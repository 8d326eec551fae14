"""Golden-section search and bisection: results, the argument checks and the
stop rules."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ibreg.binary as binary
from ibreg import ArgumentError, SolverError
from ibreg.bentropy import h2
from ibreg.optimize import (
    _BISECT_ITERATIONS,
    _INVPHI,
    bisect_decreasing_inverse,
    bisect_root,
    golden_max,
    golden_min,
)


def _bounded_parabola(limit=10_000):
    # -(x - 0.3)^2, which raises after ``limit`` evaluations, so that a
    # search that would never end fails instead of hanging the test run
    calls = [0]

    def fun(x):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError("golden section did not stop")
        return -(x - 0.3) ** 2

    return fun


def test_golden_max_and_min_find_the_extremum():
    x, v = golden_max(_bounded_parabola(), 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-18)
    fun = _bounded_parabola()
    x, v = golden_min(lambda t: -fun(t), 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("solver", [golden_max, golden_min])
@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf,
                                 "1e-10", True, 1e-10 + 0j, np.array(1e-10)])
def test_golden_rejects_bad_tol(solver, tol):
    # NaN and inf ended the loop at once with the bracket's midpoint; 0 and
    # -1 never ended it; float() took the str and the bool
    with pytest.raises(ArgumentError, match="tol"):
        solver(_bounded_parabola(), 0.0, 1.0, tol=tol)


_BAD_BRACKETS = [(2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                 (0.0, math.inf), (math.inf, math.inf), (-math.inf, math.inf),
                 (1e308, 1.7e308), (-1.7e308, 1.7e308), (0.0, 1.7e308), (-1.7e308, 0.0),
                 ("0", 1.0), (0.0, "1"), (False, 1.0), (0.0, True), (0j, 1.0),
                 (0.0, np.array(1.0)), (np.array([0.0]), 1.0)]
_SOLVERS = {
    "golden_max": lambda lo, hi: golden_max(_bounded_parabola(), lo, hi),
    "golden_min": lambda lo, hi: golden_min(_bounded_parabola(), lo, hi),
    "bisect_root": lambda lo, hi: bisect_root(lambda x: x - 0.3, lo, hi),
    "bisect_decreasing_inverse":
        lambda lo, hi: bisect_decreasing_inverse(lambda x: -x, -1.2, lo, hi),
}


@pytest.mark.parametrize("solver", list(_SOLVERS))
@pytest.mark.parametrize("lo, hi", _BAD_BRACKETS)
def test_solvers_reject_bad_bracket(solver, lo, hi):
    # golden_max(f, 2.0, 1.0) returned (1.5, f(1.5)) and
    # bisect_decreasing_inverse(lambda x: -x, -1.2, 2.0, 1.0) returned 2.0;
    # an infinite end gave NaN, and an end within a factor 2 of the float
    # limit gave inf, as bisect_root(lambda x: x - 1.5e308, 1e308, 1.7e308)
    # and golden_max(f, -1.7e308, 1.7e308, tol=1e300) did.  A str, bool,
    # complex or array end is no real number: golden_max(f, "0", 1) and
    # golden_max(f, False, 1, True) ran, bisect_root(f, "-1", 1) raised a
    # bare TypeError
    with pytest.raises(ArgumentError, match="bracket"):
        _SOLVERS[solver](lo, hi)


@pytest.mark.parametrize("target", [math.nan, "0.5", True, np.array(-0.5)])
def test_bisect_decreasing_inverse_rejects_a_bad_target(target):
    # a NaN target returned 3.9e-31 on [0, 1], from 100 halvings to the left
    with pytest.raises(ArgumentError, match="target"):
        bisect_decreasing_inverse(lambda x: -x, target, 0.0, 1.0)


@pytest.mark.parametrize("solver", list(_SOLVERS))
def test_solvers_accept_point_bracket(solver):
    # lo == hi is a valid, if empty, search; bisect_root needs a root there
    lo = hi = 0.3 if solver == "bisect_root" else 1.2
    x = _SOLVERS[solver](lo, hi)
    assert (x[0] if isinstance(x, tuple) else x) == lo


def _ref_golden_max(fun, lo, hi, tol):
    # golden_max before it stopped on a bracket that can no longer shrink
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


class _Stuck(Exception):
    pass


def _recording(fun, limit):
    # the evaluated points, raising after ``limit`` evaluations
    xs = []

    def rec(x):
        if len(xs) >= limit:
            raise _Stuck
        xs.append(x)
        return fun(x)

    return rec, xs


# (peak, lo, hi, tol, square): maximise -(x - peak)^2, or -|x - peak| when
# not square.  tol is below the float spacing at the peak, and the loop
# before the stop rule never ended on any of these
STALLING = [
    (1e5, 1e5 - 1.0, 1e5 + 1.0, 1e-11, True),
    (1e5, 0.0, 2e5, 1e-11, True),
    (1e5, 0.0, 2e5, 1e-11, False),
    (0.3, 0.0, 1.0, 1e-17, True),
    (0.7, 0.0, 1.0, 1e-17, True),
]


@pytest.mark.parametrize("peak, lo, hi, tol, square", STALLING)
def test_golden_stops_when_the_bracket_cannot_shrink(peak, lo, hi, tol, square):
    def fun(x):
        return -(x - peak) ** 2 if square else -abs(x - peak)

    ref, _ = _recording(fun, 5_000)
    with pytest.raises(_Stuck):
        _ref_golden_max(ref, lo, hi, tol)
    rec, xs = _recording(fun, 5_000)
    x, v = golden_max(rec, lo, hi, tol)
    assert len(xs) < 200
    assert abs(x - peak) <= 4.0 * math.ulp(peak)
    assert v == fun(x)


def test_golden_path_unchanged_where_the_loop_ended():
    # every run of the loop before the stop rule that ended takes the same
    # evaluations now, tol near the float spacing included, but for the last
    # step's new point, second to last in its path, which no comparison reads
    rng = random.Random(20240917)
    checked = 0
    for _ in range(400):
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        lo = rng.uniform(-scale, scale)
        hi = lo + scale * rng.uniform(0.01, 2.0)
        peak = rng.uniform(lo, hi)
        tol = math.ulp(max(abs(lo), abs(hi))) * 10.0 ** rng.uniform(-0.5, 6.0)

        def fun(x):
            return -abs(x - peak) if peak > 0.0 else -(x - peak) ** 2

        ref, ref_xs = _recording(fun, 2_000)
        try:
            want = _ref_golden_max(ref, lo, hi, tol)
        except _Stuck:
            continue
        rec, xs = _recording(fun, 2_000)
        assert golden_max(rec, lo, hi, tol) == want
        assert xs == ref_xs[:-2] + ref_xs[-1:]
        checked += 1
    assert checked >= 300


def _decreasing(x):
    return -x


# a bracket no wider than tol takes one step, the priming one, whose new
# point d no comparison reads: fun evaluates c, placed first, and the
# midpoint, whatever the bound, and never d
@pytest.mark.parametrize("lo, hi", [(0.25, 0.25 + 1e-12), (0.0, 1e-10), (1.2, 1.2)])
@pytest.mark.parametrize("bound", [None, lambda x: math.nan, lambda x: 1.0 - x, _decreasing])
def test_golden_within_tol_evaluates_c_d_and_the_midpoint(lo, hi, bound):
    rec, xs = _recording(_decreasing, 10)
    x, v = golden_max(rec, lo, hi, 1e-10, bound=bound)
    c = hi - _INVPHI * (hi - lo)
    mid = 0.5 * (lo + hi)
    assert xs == [c, mid]
    assert (x, v) == (mid, -mid)


def _is_subsequence(xs, path):
    rest = iter(path)
    return all(any(x == y for y in rest) for x in xs)


# the objective: -(x - peak)^2 or -|x - peak|, below a cap and a room less x
# as the outer frontier's are, so plateaus and ties between fc and fd occur;
# the peak lies at a drawn fraction of the bracket, mostly inside it
_SHAPES = st.tuples(st.booleans(), st.floats(-0.2, 1.2),
                    st.floats(-1.0, 1.0) | st.just(math.inf),
                    st.floats(-1.0, 3.0) | st.just(math.inf))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_SHAPES, st.floats(-2.0, 0.0), st.floats(0.01, 3.0),
       st.sampled_from([1e-3, 1e-7, 1e-11, 1e-17]),
       st.just(0.0) | st.floats(0.0, 1e-2) | st.just("terms"))
def test_golden_bound_keeps_bits_and_path(shape, lo, width, tol, slack):
    square, at, cap, room = shape
    peak = lo + at * width

    def fun(x):
        v = -(x - peak) ** 2 if square else -abs(x - peak)
        return min(v, cap, room - x)

    if slack == "terms":
        def bound(x):
            return min(cap, room - x)
    else:
        def bound(x):
            return fun(x) + slack

    ref, path = _recording(fun, 2_000)
    want = golden_max(ref, lo, lo + width, tol)
    rec, xs = _recording(fun, 2_000)
    got = golden_max(rec, lo, lo + width, tol, bound=bound)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
    assert _is_subsequence(xs, path)


def test_golden_nan_bound_keeps_the_path():
    def fun(x):
        return -abs(x - 0.3)

    ref, path = _recording(fun, 2_000)
    want = golden_max(ref, 0.0, 1.0, 1e-12)
    rec, xs = _recording(fun, 2_000)
    assert golden_max(rec, 0.0, 1.0, 1e-12, bound=lambda x: math.nan) == want
    assert xs == path


@pytest.mark.parametrize("bound", [0.5, "min", [abs]])
def test_golden_rejects_a_bound_that_cannot_be_called(bound):
    # refused before the first evaluation, not at the first stand-in
    rec, xs = _recording(lambda x: -abs(x - 0.3), 2_000)
    with pytest.raises(ArgumentError, match="bound"):
        golden_max(rec, 0.0, 1.0, bound=bound)
    assert xs == []


# golden_min's bound mirrors golden_max's: a lower bound, fun - s with
# s >= 0, or the floor max(-cap, x - room) of the mirrored objective
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_SHAPES, st.floats(-2.0, 0.0), st.floats(0.01, 3.0),
       st.sampled_from([1e-3, 1e-7, 1e-11, 1e-17]),
       st.just(0.0) | st.floats(0.0, 1e-2) | st.just("terms"))
def test_golden_min_bound_keeps_bits_and_path(shape, lo, width, tol, slack):
    square, at, cap, room = shape
    peak = lo + at * width

    def fun(x):
        v = (x - peak) ** 2 if square else abs(x - peak)
        return max(v, -cap, x - room)

    if slack == "terms":
        def bound(x):
            return max(-cap, x - room)
    else:
        def bound(x):
            return fun(x) - slack

    ref, path = _recording(fun, 2_000)
    want = golden_min(ref, lo, lo + width, tol)
    rec, xs = _recording(fun, 2_000)
    got = golden_min(rec, lo, lo + width, tol, bound=bound)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
    assert _is_subsequence(xs, path)


def test_golden_min_nan_bound_keeps_the_path():
    def fun(x):
        return abs(x - 0.3)

    ref, path = _recording(fun, 2_000)
    want = golden_min(ref, 0.0, 1.0, 1e-12)
    rec, xs = _recording(fun, 2_000)
    assert golden_min(rec, 0.0, 1.0, 1e-12, bound=lambda x: math.nan) == want
    assert xs == path


@pytest.mark.parametrize("bound", [0.5, "min", [abs]])
def test_golden_min_rejects_a_bound_that_cannot_be_called(bound):
    rec, xs = _recording(lambda x: abs(x - 0.3), 2_000)
    with pytest.raises(ArgumentError, match="bound"):
        golden_min(rec, 0.0, 1.0, bound=bound)
    assert xs == []


# enclosures (fun - s1, fun + s2) with s >= 0, 0 and inf among them, with
# or without the cap and room bound: every comparison they settle has the
# bound-free outcome, so the result keeps its bits, and fun runs only at
# points of the bound-free path, in its order, the final midpoint last
_SLACK = st.just(0.0) | st.floats(0.0, 1e-2) | st.floats(0.0, 10.0) | st.just(math.inf)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_SHAPES, st.floats(-2.0, 0.0), st.floats(0.01, 3.0),
       st.sampled_from([1e-3, 1e-7, 1e-11, 1e-17]), _SLACK, _SLACK, st.booleans())
def test_golden_enclosure_keeps_bits_and_path(shape, lo, width, tol, s1, s2, bounded):
    square, at, cap, room = shape
    peak = lo + at * width

    def fun(x):
        v = -(x - peak) ** 2 if square else -abs(x - peak)
        return min(v, cap, room - x)

    def enclose(x):
        v = fun(x)
        return v - s1, v + s2

    bound = (lambda x: min(cap, room - x)) if bounded else None
    ref, path = _recording(fun, 2_000)
    want = golden_max(ref, lo, lo + width, tol)
    rec, xs = _recording(fun, 2_000)
    got = golden_max(rec, lo, lo + width, tol, bound=bound, enclose=enclose)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
    assert _is_subsequence(xs, path)
    assert xs[-1] == path[-1]


# with or without a bound and an enclosure, fun never runs at the last
# step's new point, second to last in the reference's path, which evaluates
# every point; a point bracket and one narrower than tol take only the
# priming step, whose new point is the reference's d
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_SHAPES, st.floats(-2.0, 0.0), st.just(0.0) | st.floats(1e-13, 3.0),
       st.sampled_from([1e-3, 1e-7, 1e-11]),
       st.none() | st.just("terms") | st.floats(0.0, 1e-2),
       st.none() | st.tuples(_SLACK, _SLACK))
def test_golden_never_evaluates_the_last_step_point(shape, lo, width, tol, bounded, slacks):
    square, at, cap, room = shape
    peak = lo + at * width

    def fun(x):
        v = -(x - peak) ** 2 if square else -abs(x - peak)
        return min(v, cap, room - x)

    if bounded == "terms":
        def bound(x):
            return min(cap, room - x)
    elif bounded is None:
        bound = None
    else:
        def bound(x):
            return fun(x) + bounded

    if slacks is None:
        enclose = None
    else:
        def enclose(x):
            v = fun(x)
            return v - slacks[0], v + slacks[1]

    ref, path = _recording(fun, 2_000)
    want = _ref_golden_max(ref, lo, lo + width, tol)
    rec, xs = _recording(fun, 2_000)
    got = golden_max(rec, lo, lo + width, tol, bound=bound, enclose=enclose)
    free = golden_max(fun, lo, lo + width, tol)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, free))
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
    assert _is_subsequence(xs, path[:-2] + path[-1:])
    assert xs[-1] == path[-1]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_SHAPES, st.floats(-2.0, 0.0), st.floats(0.01, 3.0),
       st.sampled_from([1e-3, 1e-11]), st.floats(0.0, 1e-2))
def test_golden_encloses_each_point_once_after_its_bound(shape, lo, width, tol, slack):
    # the first point is enclosed at the start; every later one only after
    # its bound, at most once, and on the bound-free path
    square, at, cap, room = shape
    peak = lo + at * width

    def fun(x):
        v = -(x - peak) ** 2 if square else -abs(x - peak)
        return min(v, cap, room - x)

    calls = []

    def bound(x):
        calls.append(("bound", x))
        return min(cap, room - x)

    def enclose(x):
        calls.append(("enclose", x))
        return fun(x) - slack, fun(x) + slack

    ref, path = _recording(fun, 2_000)
    golden_max(ref, lo, lo + width, tol)
    golden_max(fun, lo, lo + width, tol, bound=bound, enclose=enclose)
    enclosed = [x for kind, x in calls if kind == "enclose"]
    assert calls[0] == ("enclose", path[0])
    assert all(calls[i - 1] == ("bound", x) for i, (kind, x) in enumerate(calls)
               if kind == "enclose" and i)
    assert _is_subsequence(enclosed, path)


@pytest.mark.parametrize("side", ["lower", "upper", "both"])
@pytest.mark.parametrize("slack", [0.0, 1e-6, 1e-2])
def test_golden_nan_enclosure_side_makes_no_claim(side, slack):
    # a NaN side settles what -inf (lower) or inf (upper) settles: nothing
    def fun(x):
        return min(-abs(x - 0.3), 0.1 - 0.5 * x)

    def claims(none_lower, none_upper):
        def enclose(x):
            v = fun(x)
            return (none_lower if side != "upper" else v - slack,
                    none_upper if side != "lower" else v + slack)
        return enclose

    ref, path = _recording(fun, 2_000)
    want = golden_max(ref, 0.0, 1.0, 1e-12)
    runs = []
    for none in [(math.nan, math.nan), (-math.inf, math.inf)]:
        rec, xs = _recording(fun, 2_000)
        got = golden_max(rec, 0.0, 1.0, 1e-12, enclose=claims(*none))
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
        runs.append(xs)
    assert runs[0] == runs[1]
    assert _is_subsequence(runs[0], path)


@pytest.mark.parametrize("enclose", [0.5, "min", [abs], (0.0, 1.0)])
def test_golden_rejects_an_enclosure_that_cannot_be_called(enclose):
    rec, xs = _recording(lambda x: -abs(x - 0.3), 2_000)
    with pytest.raises(ArgumentError, match="enclose"):
        golden_max(rec, 0.0, 1.0, enclose=enclose)
    assert xs == []


def test_dual_bounds_skip_most_bracket_searches(monkeypatch):
    # mu_d_dual's two bounds, the bracket bound and golden_min's floor over
    # alpha, on 24 calls (6 models x 4 rates): the same doubles from at most
    # 60% of the inner searches and 90% of the grid scans taken without them
    # (margin +inf refines every bracket; golden_min without its bound
    # evaluates every alpha).  629 of 1,270 searches and 744 of 914 scans
    counts = {"_dual_bracket_max": 0, "_dual_grid_scan": 0}

    def counted(name):
        inner = getattr(binary, name)

        def call(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(binary, name, call)

    models = [(0.1, 0.1), (0.3, 0.05), (0.2, 0.3), (0.05, 0.2), (0.1, 0.001), (1e-4, 0.01)]
    calls = [(frac * h2(q), p, q) for p, q in models for frac in (0.0, 0.3, 0.7, 1.0)]

    def sweep():
        counts.update(dict.fromkeys(counts, 0))
        binary._dual_memo.cache_clear()
        return [binary.mu_d_dual(*args) for args in calls], dict(counts)

    for name in counts:
        counted(name)
    bounded, n_bounded = sweep()
    monkeypatch.setattr(binary, "_DUAL_SKIP_MARGIN", math.inf)
    monkeypatch.setattr(binary, "golden_min",
                        lambda fun, lo, hi, tol, bound: golden_min(fun, lo, hi, tol))
    free, n_free = sweep()
    binary._dual_memo.cache_clear()
    assert bounded == free
    assert n_bounded["_dual_bracket_max"] <= 0.6 * n_free["_dual_bracket_max"], n_bounded
    assert n_bounded["_dual_grid_scan"] <= 0.9 * n_free["_dual_grid_scan"], n_bounded


def _ref_check_bracket(lo, hi):
    # the solvers' entry rule: the fixed-count loops below overflow on the
    # same brackets, so the references refuse them too
    if not -math.inf < lo <= hi < math.inf:
        raise ArgumentError(f"bracket needs finite lo <= hi, got [{lo!r}, {hi!r}]")
    if not (-math.inf < 2.0 * lo and 2.0 * hi < math.inf):
        raise ArgumentError(
            f"bracket [{lo!r}, {hi!r}] overflows: twice each end must be finite")


def _ref_capped_midpoint(lo, hi):
    # the solvers' rule at the cap: a bracket the halvings left wide holds no
    # point to report
    if hi - lo > 2.0 ** -52 * max(1.0, abs(lo), abs(hi)):
        raise SolverError(
            f"bisection unconverged after 100 halvings: "
            f"bracket [{lo!r}, {hi!r}] is wider than 2**-52 * max(1, |lo|, |hi|)")
    return 0.5 * (lo + hi)


def _ref_bisect_root(fun, lo, hi):
    # bisect_root before it stopped at adjacent floats: always 100 halvings
    _ref_check_bracket(lo, hi)
    flo, fhi = fun(lo), fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise SolverError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return _ref_capped_midpoint(lo, hi)


def _ref_bisect_decreasing_inverse(fun, target, lo, hi):
    # bisect_decreasing_inverse before it stopped at adjacent floats
    _ref_check_bracket(lo, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return _ref_capped_midpoint(lo, hi)


def _outcome(solve, fun, *args):
    # (result as hex, so -0.0 and 0.0 differ, or the error) and the points
    # at which ``fun`` was evaluated
    xs = []

    def rec(x):
        xs.append(x)
        return fun(x)

    try:
        return float.hex(solve(rec, *args)), xs
    except Exception as exc:
        return (type(exc), str(exc)), xs


def _assert_same_as_reference(solve, ref, fun, *args):
    got, xs = _outcome(solve, fun, *args)
    want, ref_xs = _outcome(ref, fun, *args)
    assert got == want, args
    # the early stop only drops evaluations off the end
    assert xs == ref_xs[:len(xs)]
    return len(xs), len(ref_xs)


def _random_bracket(rng):
    # ordinary, point, adjacent-float, few-ulp, subnormal and signed-zero
    # brackets, plus a reversed one
    kind = rng.randrange(8)
    if kind == 0:
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        a, b = sorted(rng.uniform(-scale, scale) for _ in range(2))
        return a, b
    if kind <= 2:
        # narrow enough, relative to its ends, to reach adjacent floats
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)
        return a, a + abs(a) * 10.0 ** rng.uniform(-15.0, 0.0)
    x = rng.choice([0.0, -0.0, 0.25, -3.0, 1e-300, 7e5, 1.7e308, -2.0 ** 1023]) * rng.uniform(0.5, 1.0)
    if kind == 3:
        return x, x
    if kind == 4:
        return x, math.nextafter(x, math.inf)
    if kind == 5:
        return x, x + rng.randint(2, 9) * math.ulp(x)
    if kind == 6:
        return rng.choice([(0.0, rng.randint(1, 4_000) * 5e-324),
                           (-0.0, 0.0), (-0.0, 5e-324), (-5e-324, 0.0), (0.0, -0.0)])
    return x + 1.0, x


_CASES = 10_000


def test_bisect_root_equals_fixed_count_loop():
    # same bits or the same error on every case, and never more evaluations
    rng = random.Random(20240917)
    saved = 0
    for _ in range(_CASES):
        lo, hi = _random_bracket(rng)
        root = rng.choice([lo, hi, 0.5 * (lo + hi), rng.uniform(0.0, 1e-300),
                           rng.uniform(-1.0, 1.0)] + [rng.uniform(lo, hi)] * 5)
        shape = rng.randrange(6)
        if shape == 0:
            def fun(x):
                return x - root
        elif shape == 1:
            def fun(x):
                return math.atan(root - x)
        elif shape == 2:
            def fun(x):
                return math.tanh(1e3 * (x - root))
        elif shape == 3:
            def fun(x):
                # a step: zero nowhere, sign change at ``root``
                return 1.0 if x > root else -1.0
        elif shape == 4:
            def fun(x, nan_at=rng.choice([lo, hi])):
                return math.nan if x == nan_at else x - root
        else:
            def fun(x):
                return math.sin(0.5 * x - 0.5 * root)
        new, old = _assert_same_as_reference(bisect_root, _ref_bisect_root, fun, lo, hi)
        saved += old - new
    assert saved > 0


def test_bisect_decreasing_inverse_equals_fixed_count_loop():
    rng = random.Random(7)
    saved = 0
    for _ in range(_CASES):
        lo, hi = _random_bracket(rng)
        if rng.random() < 0.2:
            q = rng.uniform(0.01, 0.49)
            lo, hi = 0.0, 0.5
            target = h2(q) * rng.choice([rng.random(), 1e-12, 1.0 - 1e-12])

            def fun(r):
                return binary._g(r, q)
        else:
            root = rng.choice([lo, hi, rng.uniform(lo, hi), rng.uniform(0.0, 1e-300)])
            target = -root
            shape = rng.randrange(3)
            if shape == 0:
                def fun(x):
                    return -x
            elif shape == 1:
                def fun(x):
                    return -math.atan(x)
                target = -math.atan(root)
            else:
                def fun(x):
                    return -math.tanh(x - root) - root
        new, old = _assert_same_as_reference(
            bisect_decreasing_inverse, _ref_bisect_decreasing_inverse, fun, target, lo, hi)
        saved += old - new
    assert saved > 0


def test_g_inverse_stops_at_adjacent_floats(monkeypatch):
    # 53-61 halvings on these rates, 100 before the early stop; each halving
    # takes four binary.log2 calls, two per h2 of the written-out g
    q = 0.1
    calls = []

    def counted(x):
        calls.append(x)
        return math.log2(x)

    monkeypatch.setattr(binary, "log2", counted)
    for frac in [0.02 + 0.96 * k / 200 for k in range(1, 200)]:
        rate = frac * h2(q)
        calls.clear()
        r = binary.g_inverse(rate, q)
        assert len(calls) % 4 == 0 and len(calls) <= 4 * 70
        assert r == _ref_bisect_decreasing_inverse(lambda x: binary._g(x, q), rate, 0.0, 0.5)


def test_g_inverse_equals_bisect_decreasing_inverse():
    # the written-out loop keeps bisect_decreasing_inverse's steps on _g, the
    # early stop and the 100-halving cap (taken at rate = h2(q)), bit for bit
    rng = random.Random(20240917)
    cases = []
    for _ in range(20_000):
        q = rng.uniform(1e-12, 0.5 - 1e-12)
        cases.append((rng.uniform(0.0, h2(q)), q))
    for q in (1e-12, 0.1, 0.5 - 1e-12):
        hq = h2(q)
        cases += [(0.0, q), (hq, q), (rng.uniform(0.0, 1e-15), q),
                  (hq - rng.uniform(0.0, 1e-15), q)]
    for rate, q in cases:
        want = 0.5 if rate == 0.0 else bisect_decreasing_inverse(
            lambda r: binary._g(r, q), rate, 0.0, 0.5)
        assert float.hex(binary.g_inverse(rate, q)) == float.hex(want), (rate, q)


def test_critical_point_bisection_stops_at_adjacent_floats(monkeypatch):
    # 39 evaluations, two of them the bracket's ends; 102 before
    counts = []

    def counted(fun, lo, hi):
        xs = []

        def rec(x):
            xs.append(x)
            return fun(x)

        r = bisect_root(rec, lo, hi)
        assert r == _ref_bisect_root(fun, lo, hi)
        counts.append(len(xs))
        return r

    monkeypatch.setattr(binary, "bisect_root", counted)
    binary.critical_point(0.1, 0.2)
    assert len(counts) == 1 and counts[0] <= 60


def test_bisection_cap_is_one_hundred_halvings():
    # a root in the subnormals is more than 100 halvings from [0, 1/2]; the
    # cap, not the adjacent-float stop, ends that search
    assert _BISECT_ITERATIONS == 100
    got, xs = _outcome(bisect_decreasing_inverse, lambda x: -x, -1e-310, 0.0, 0.5)
    assert len(xs) == 100
    assert got == _outcome(_ref_bisect_decreasing_inverse, lambda x: -x, -1e-310, 0.0, 0.5)[0]


@pytest.mark.parametrize("solve, args", [
    (bisect_root, (lambda x: x - 0.3, 0.0, 8.9e307)),
    (bisect_decreasing_inverse, (lambda x: -x, -0.3, 0.0, 8.9e307)),
], ids=["bisect_root", "bisect_decreasing_inverse"])
def test_unconverged_bisection_raises(solve, args):
    # 100 halvings leave [0, 8.9e307] about 7e277 wide; the midpoint
    # 3.5104310282335026e+277 is no root of either function
    with pytest.raises(SolverError, match=r"unconverged after 100 halvings: bracket \[0.0, "):
        solve(*args)
