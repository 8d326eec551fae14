"""Golden-section search: results, the tolerance check and the stop rule."""

import math
import random

import pytest

from ibreg import ArgumentError
from ibreg.optimize import (
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
@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_golden_rejects_bad_tol(solver, tol):
    # NaN and inf ended the loop at once with the bracket's midpoint; 0 and
    # -1 never ended it
    with pytest.raises(ArgumentError, match="tol"):
        solver(_bounded_parabola(), 0.0, 1.0, tol=tol)


_BAD_BRACKETS = [(2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                 (0.0, math.inf), (math.inf, math.inf), (-math.inf, math.inf)]
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
    # an infinite end gave NaN
    with pytest.raises(ArgumentError, match="bracket"):
        _SOLVERS[solver](lo, hi)


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
    # evaluations now, tol near the float spacing included
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
        assert xs == ref_xs
        checked += 1
    assert checked >= 300
