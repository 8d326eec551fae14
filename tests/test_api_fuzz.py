"""Python-API fuzz suite: every public callable against broken arguments.

Each case is a valid call of one callable in the ``__all__`` of ``bentropy``,
``binary``, ``gaussian``, ``pmf``, ``search`` and ``curves``, with the kind
of each argument (README "Numerical conventions").  One argument at a time is
replaced by a probe.  Where the argument's rule rejects the probe, the call
must raise the rule's ``IbregError`` subclass; where the rule accepts it, the
call returns a result without NaN (or raises an ``IbregError`` the model or a
solver gives, never one of the argument rules), and an infinite rate gives
the value at 1e300.  Runs are derandomized and keep no example database.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ibreg import bentropy, binary, curves, gaussian, pmf, search
from ibreg.errors import ArgumentError, DomainError, IbregError

NAN, INF = math.nan, math.inf
PROBES = (NAN, INF, -INF, 1e308, 5e-324, "0.1", None, True, 10 ** 400, np.array([0.1, 0.2]))
_NUMBER = (int, float, np.integer, np.floating)

BM = binary.BinaryModel(0.1, 0.2)
TW = gaussian.GaussianTwcibModel(0.3, 0.5, 0.2, 0.6, 0.1)
CA = gaussian.GaussianCdibModel.chain_x1_x2_y(0.8, 0.8)
CB = gaussian.GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)
P2 = pmf.JointPmf((pmf.Axis("a", 2), pmf.Axis("b", 2)), [[0.4, 0.1], [0.1, 0.4]])
SRC3 = BM.half_round_source()
U1 = pmf.Channel.bsc("x1", "v1", 0.1)
U2 = pmf.Channel.constant([("x2", 2), ("v1", 2)], "v2")
SCHED = search.RoundSchedule(1, (U1, U2))
ENV = search.upper_concave_envelope([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
CURVE = curves.RegionCurve({}, "m", None, ((0.0, 0.1), (1.0, 0.5)))

# the range each number kind accepts; a probe outside it raises DomainError.
# Probabilities and rates take a spill of 1e-12 past their ends
_S = 1e-12
RANGES = {
    "rate": lambda x: x >= -_S,
    "prob": lambda x: -_S <= x <= 1.0 + _S,
    "half": lambda x: -_S <= x <= 0.5 + _S,
    "rate_upto_hq": lambda x: -_S <= x <= bentropy.h2(0.2) + _S,
    "crossover": lambda x: 0.0 < x < 0.5,
    "open_unit": lambda x: 0.0 < x < 1.0,
    "variance": lambda x: 0.0 < x < INF,
    "correlation": lambda x: -1.0 < x < 1.0,
    "nonzero_correlation": lambda x: -1.0 < x < 1.0 and x != 0.0,
    # below the validity limit of each model's relevance
    "relevance_w1": lambda x: 0.0 <= x < gaussian.twcib_relevance_limit(TW, 1),
    "relevance_w2": lambda x: 0.0 <= x < gaussian.twcib_relevance_limit(TW, 2),
    "relevance_x2": lambda x: 0.0 <= x < CA.i_y_x2(),
    "finite": lambda x: -INF < x < INF,
    "symbol": lambda x: x in (0.0, 1.0),
}
COUNT_FLOORS = {"count0": 0, "count1": 1, "budget": 1, "which": 1}

def _threads_keyword(fn):
    """``fn`` with its keyword-only ``threads`` as a last positional argument."""
    def call(*args):
        return fn(*args[:-1], threads=args[-1])
    call.public, call.__name__ = fn, fn.__name__
    return call


# (callable, valid arguments, kind of each argument).  "object" and "option"
# arguments (models, pmfs, channels, curves, names) reject every probe;
# "any" marks an argument whose probes may pass or raise.
CASES = [
    (bentropy.h2, (0.3,), ("prob",)),
    (bentropy.h2_inv, (0.3,), ("prob",)),
    (bentropy.star, (0.1, 0.2), ("prob", "prob")),
    (bentropy.gerber_bound, (0.5, 0.1), ("prob", "half")),
    (bentropy.h2_arr, ([0.1, 0.3],), ("prob_array",)),
    (binary.BinaryModel, (0.1, 0.2), ("crossover", "crossover")),
    (binary.TestChannelSpec, ("direct", 0.1), ("option", "half")),
    (binary.TestChannelSpec, ("timeshared", None, 0.5, 0.1), ("option", "half?", "prob", "half")),
    (binary.g, (0.3, 0.2), ("prob", "crossover")),
    (binary.f, (0.3, 0.1, 0.2), ("prob", "crossover", "crossover")),
    (binary.f_alt, (0.3, 0.1, 0.2), ("prob", "crossover", "crossover")),
    (binary.g_prime, (0.3, 0.2), ("open_unit", "crossover")),
    (binary.f_prime, (0.3, 0.1, 0.2), ("prob", "crossover", "crossover")),
    (binary.g_inverse, (0.0, 0.2), ("rate_upto_hq", "crossover")),   # 0 <= h2(any q)
    (binary.critical_point, (0.1, 0.2), ("crossover", "crossover")),
    *[(fn, (0.3, 0.1, 0.2), ("rate", "crossover", "crossover"))
      for fn in (binary.mu_ed, binary.mu_d, binary.mu_d_dual, binary.mu_d_timeshare_oracle,
                 binary.optimal_channel)],
    (gaussian.GaussianTwcibModel, (0.3, 0.5, 0.2, 0.6, 0.1, 1.0, 1.0, 1.0, 1.0),
     ("correlation",) * 5 + ("variance",) * 4),
    (gaussian.GaussianCdibModel, ("x1-x2-y", 0.8, 0.8, 0.0, 1.0, 1.0, 1.0),
     ("option", "nonzero_correlation", "nonzero_correlation", "any") + ("variance",) * 3),
    (gaussian.gaussian_mi, (CB.covariance(), [0], [1], [2]), ("object",) * 4),
    (gaussian.twcib_coefficients, (TW,), ("object",)),
    (gaussian.twcib_relevance_limit, (TW, 2), ("object", "which")),
    (gaussian.twcib_rate_for_relevance, (TW, 2, 0.1), ("object", "which", "relevance_w2")),
    (gaussian.twcib_test_channel_variances, (TW, 0.1, 0.1),
     ("object", "relevance_w2", "relevance_w1")),
    (gaussian.twcib_point_for_variances, (TW, 0.5, 0.5), ("object", "variance", "variance")),
    (gaussian.cdib_x1x2y_mu, (CA, 0.5, 0.5), ("object", "rate", "rate")),
    (gaussian.cdib_x1x2y_r2, (CA, 0.5, 0.3), ("object", "rate", "relevance_x2")),
    (gaussian.cdib_x1x2y_critical_r1, (CA, 0.3), ("object", "relevance_x2")),
    (gaussian.cdib_x1yx2_outer_point, (CB, 0.5, 0.5), ("object", "rate", "rate")),
    (gaussian.cdib_x1yx2_outer_frontier, (CB, 0.5, 0.5), ("object", "rate", "rate")),
    (gaussian.cdib_x1yx2_inner, (CB, 0.5, 0.5), ("object", "rate", "rate")),
    (pmf.Axis, ("a", 2), ("any", "count1")),
    (pmf.JointPmf, ((pmf.Axis("a", 2),), [0.25, 0.75]), ("object", "any")),
    (pmf.Channel, (("a",), pmf.Axis("v", 2), [[0.5, 0.5], [0.1, 0.9]]),
     ("object", "object", "any")),
    (pmf.entropy, (P2, ["a"]), ("object", "object")),
    (pmf.mutual_information, (P2, ["a"], ["b"]), ("object",) * 3),
    (pmf.conditional_mutual_information, (SRC3, ["x1"], ["y"], ["x2"]), ("object",) * 4),
    (pmf.compose_markov, (P2, pmf.Channel.bsc("a", "v", 0.1)), ("object", "object")),
    (pmf.marginalize, (P2, ["a"]), ("object", "object")),
    (pmf.condition, (P2, "a", 1), ("object", "object", "symbol")),
    (search.RoundSchedule, (1, (U1, U2)), ("any", "object")),
    (search.evaluate_twcib, (BM.twcib_source(), SCHED), ("object", "object")),
    (search.evaluate_cdib_inner, (SRC3, SCHED), ("object", "object")),
    (search.corner_points_outer, (SRC3, U1, U2), ("object",) * 3),
    (search.upper_concave_envelope, ([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)],), ("object",)),
    (search.envelope_value, (ENV, 0.5), ("object", "x_array")),
    *[(fn, (BM, [0.0, 0.3], 64, 1, 1), ("object", "vector", "budget", "count0", "count1?"))
      for fn in map(_threads_keyword, (search.search_mu_int, search.search_mu_int_detailed))],
    (search.check_inclusion, (CURVE, CURVE, 1e-9), ("object", "object", "tolerance")),
    (curves.RegionCurve, ({}, "m", None, ((0.0, 0.1), (1.0, 0.5))),
     ("object", "string", "count0?", "object")),
    (curves.sig12, (0.25,), ("finite",)),
    (curves.csv_document, ([0.0, 1.0], [0.5, 0.25], "abc"), ("vector", "vector", "string")),
]
# result records: plain containers the functions return, which check nothing
RECORDS = {binary.CriticalPoint, gaussian.OuterBoundPoint, search.RegionPoint,
           search.EnvelopePoint, search.InclusionVerdict}


def expected_error(kind: str, v):
    """The error class the README rule of ``kind`` raises for ``v``; None if
    the rule accepts ``v``, IbregError if any subclass will do."""
    if kind.endswith("?"):   # an optional argument, for which None means unset
        kind = kind[:-1]
        if v is None:
            return None
    if kind in ("object", "option"):
        return IbregError
    if kind == "string":
        return None if isinstance(v, str) else ArgumentError
    number = isinstance(v, _NUMBER) and not isinstance(v, bool)
    if kind in ("x_array", "prob_array", "vector"):
        if not (number or isinstance(v, np.ndarray)) or (isinstance(v, int) and
                                                          abs(v) > sys.float_info.max):
            return ArgumentError   # numpy holds str, None, bool and huge ints apart
        if kind == "vector":   # a 1-d array; a scalar raises
            return None if np.ndim(v) == 1 else IbregError
        if kind == "prob_array":   # the probability rule, entry by entry
            return None if all(RANGES["prob"](x) for x in np.ravel(v)) else DomainError
        return DomainError if np.isnan(v).any() else None
    if kind in COUNT_FLOORS:
        if not (number and v >= COUNT_FLOORS[kind] and v % 1 == 0):
            return ArgumentError
        if kind == "budget" and v > 2 ** 26:
            return ArgumentError
        return DomainError if kind == "which" and v > 2 else None
    if not number:
        return ArgumentError
    try:
        x = float(v)
    except OverflowError:
        return DomainError
    if kind == "tolerance":
        return None if -INF < x < INF else ArgumentError
    return None if RANGES[kind](x) else DomainError


def _values(obj):
    """Every float in a result, through records, dicts, sequences and arrays."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _values(item)]
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return obj.ravel().tolist()
    return [obj] if isinstance(obj, float) else []


def check_call(case: int, pos: int, probe) -> None:
    fn, args, kinds = CASES[case]
    call = list(args)
    call[pos] = probe
    want = "any" if kinds[pos] == "any" else expected_error(kinds[pos], probe)
    try:
        got = fn(*call)
    except IbregError as exc:
        if want is None:
            # an accepted argument may still meet a model or solver error
            assert not isinstance(exc, (ArgumentError, DomainError)), (fn, pos, probe, exc)
        elif want != "any":
            assert isinstance(exc, want), (fn, pos, probe, exc)
        return
    assert want in (None, "any"), (fn.__name__, pos, probe, got)
    assert not any(math.isnan(x) for x in _values(got)), (fn.__name__, pos, probe, got)
    if kinds[pos] == "rate" and probe == INF:
        # an unlimited rate: the value at 1e300, save the outer point's rate bounds
        call[pos] = 1e300
        at_1e300 = fn(*call)
        if fn is gaussian.cdib_x1yx2_outer_point:
            assert (got.mu_max, got.sum_min) == (at_1e300.mu_max, INF)
        else:
            assert got == at_1e300, (fn.__name__, pos)
    if kinds[pos] == "x_array" and np.ndim(probe) == 0 and abs(probe) == INF:
        assert got == (ENV[0].y if probe < 0 else ENV[-1].y)


def test_cases_cover_every_public_callable():
    public = {getattr(mod, name) for mod in (bentropy, binary, gaussian, pmf, search, curves)
              for name in mod.__all__ if callable(getattr(mod, name))}
    assert {getattr(fn, "public", fn) for fn, _, _ in CASES} | RECORDS == public
    for fn, args, kinds in CASES:
        assert len(args) == len(kinds)
        fn(*args)   # every base call is valid


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"{fn.__name__}{i}" for i, (fn, _, _) in enumerate(CASES)])
def test_each_probe_in_each_argument(case):
    for pos in range(len(CASES[case][1])):
        for probe in PROBES:
            check_call(case, pos, probe)


_POSITIONS = [(c, p) for c, (_, args, _) in enumerate(CASES) for p in range(len(args))]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_POSITIONS),
       st.one_of(st.floats(), st.integers(-(10 ** 30), 10 ** 30), st.text(max_size=2),
                 st.none(), st.booleans(), st.sampled_from(PROBES)))
def test_random_value_in_each_argument(position, value):
    case, pos = position
    # a large accepted budget would run a long search
    assume(not (CASES[case][2][pos] == "budget" and expected_error("budget", value) is None
                and value > 4096))
    check_call(case, pos, value)
