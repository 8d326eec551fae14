"""Binary relevance-rate curves: f/g calculus, critical point, mu curves.

Frozen reference values were computed independently at 50-digit precision
(mpmath): the critical point by bisecting f'g - fg' with numerically
differentiated 50-digit f and g, the curve values from the resulting
piecewise formula, and every h2 combination from the defining sums.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibreg import (
    ArgumentError,
    BinaryModel,
    DomainError,
    SolverError,
    critical_point,
    f,
    f_alt,
    f_prime,
    g,
    g_inverse,
    g_prime,
    h2,
    mu_d,
    mu_d_dual,
    mu_d_timeshare_oracle,
    mu_ed,
    optimal_channel,
    star,
)
from ibreg import binary
from ibreg.binary import (
    _curve_grids, _f_prime, _fg_vec, _first_form, _g, _g_prime, _second_form)
from ibreg.optimize import bisect_root, golden_max, golden_min
from ibreg.pmf import compose_markov, conditional_mutual_information as cmi, \
    mutual_information as mi

P = Q = 0.1
HQ = 0.46899559358928122          # h2(0.1)
MU0 = 0.31992295427172016         # 1 - h2(0.18)
TOP = 0.53100440641071878         # 1 - h2(0.1)
F0 = 0.21108145213899862          # f(0) = h2(0.18) - h2(0.1)
G_025 = 0.07001277477155975       # g(0.25; q=0.1)
F_02 = 0.04296149018684240        # f(0.2; p=q=0.1)
R_CROSS = 0.008804506547680026    # r_c for p=q=0.1
R_C = 0.41817439235213445         # R_c = g(r_c)
ALPHA = 0.45760124543433585       # f(r_c)/R_c
MU_ED_02 = 0.42428134232508697    # mu_ed(0.2)
MU_D_02 = 0.41144320335858733     # mu_d(0.2), linear branch
MU_D_035 = 0.48008339017373771    # mu_d(0.35), linear branch (R_c = 0.418)
MU_D_04 = 0.50296345244545450     # mu_d(0.4), linear branch

# mu_d_dual(rate, p, q) and critical_point(p, q) printed with repr when every
# solver evaluation went through the checked public f/g; the solvers' calls
# to the unchecked kernels must reproduce them bit for bit
DUAL_FROZEN = [
    ((0.05, 0.1, 0.1), 0.34280301667172275),
    ((0.2, 0.1, 0.1), 0.41144320375226406),
    ((0.4, 0.1, 0.1), 0.5029634524782484),
    ((0.3, 0.05, 0.3), 0.32648505235357894),
    ((0.1, 0.3, 0.05), 0.10373072310938518),
    ((0.5, 0.2, 0.2), 0.2305822545334177),
]
CP_FROZEN = [
    ((0.1, 0.1), (0.008804506547680096, 0.41817439235213416, 0.457601245434336)),
    ((0.2, 0.2), (0.0939631564944702, 0.3716694588807831, 0.2714137987454078)),
]
# repr values printed before the curve kernels and the dual objective were
# written out on flat floats; asserted with == so that a reordered operation
# or a different log2 shows
G_INV_FROZEN = [
    ((0.2, 0.1), 0.10801915969807382),
    ((0.01, 0.3), 0.43586961033324567),
    ((0.44, 0.3), 0.10576502214822542),
]
MU_ED_FROZEN = [
    ((0.2, 0.1, 0.1), 0.42428134232508696),
    ((0.05, 0.3, 0.05), 0.10059238640443713),
    ((0.7, 0.2, 0.3), 0.24636256145232505),
]
MU_D_CURVED_FROZEN = [
    ((0.4435849929707077, 0.1, 0.1), 0.5223377998530859),
    ((0.5467987768840727, 0.2, 0.2), 0.24238814834972858),
    ((0.1, 0.3, 0.05), 0.10373072308379705),    # degenerate: no linear segment
    ((0.2, 0.3, 0.05), 0.11184290389208786),
]
# rate 0, rate h2(q) (written as its repr), a curved-branch rate, and the
# degenerate model (0.3, 0.05)
DUAL_MORE_FROZEN = [
    ((0.0, 0.1, 0.1), 0.31992295427172013),
    ((0.4689955935892812, 0.1, 0.1), 0.5310044064107187),
    ((0.0, 0.2, 0.2), 0.09561854227550615),
    ((0.7219280948873623, 0.2, 0.2), 0.2780719051126376),
    ((0.45, 0.1, 0.1), 0.5248721265115619),
    ((0.0, 0.3, 0.05), 0.09561854227550626),
    ((0.25, 0.3, 0.05), 0.11589899430007698),
    ((0.28639695711595625, 0.3, 0.05), 0.1187091007693078),
]
# mu_d_timeshare_oracle(rate, p, q) printed with repr while it still
# evaluated the full 512 x 512 grid of pairs; the fourth and last rates are
# the grid values g(r[40]; q = 0.1) and g(r[3]; q = 0.1)
TIMESHARE_FROZEN = [
    ((0.0, 0.1, 0.1), 0.31992295427172013),
    ((0.4689955935892812, 0.1, 0.1), 0.5310044064107187),
    ((0.2, 0.1, 0.1), 0.4114432033397465),
    ((0.3226928464102984, 0.1, 0.1), 0.4675876026514245),
    ((0.3, 0.2, 0.2), 0.17704268179041055),
    ((0.0, 0.3, 0.05), 0.09561854227550626),
    ((0.25, 0.3, 0.05), 0.11589348858455581),
    ((0.4474736569105588, 0.45, 0.1), 0.007142553287969006),
]
NAN = float("nan")
INF = float("inf")


def test_model_validation():
    BinaryModel(0.1, 0.49)
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(DomainError):
            BinaryModel(bad, 0.1)
        with pytest.raises(DomainError):
            BinaryModel(0.1, bad)


# ---------------------------------------------------------------------------
# f and g
# ---------------------------------------------------------------------------


def test_g_values():
    assert g(0.0, Q) == pytest.approx(h2(Q), abs=1e-15)
    assert g(0.5, Q) == pytest.approx(0.0, abs=1e-15)
    assert g(0.25, Q) == pytest.approx(G_025, abs=1e-12)


def test_f_values():
    assert f(0.0, P, Q) == pytest.approx(F0, abs=1e-12)
    assert f(0.5, P, Q) == pytest.approx(0.0, abs=1e-12)
    assert f(0.2, P, Q) == pytest.approx(F_02, abs=1e-12)


def test_f_two_forms_agree():
    assert f(0.2, P, Q) == pytest.approx(f_alt(0.2, P, Q), abs=1e-10)
    for r in np.linspace(0.0, 1.0, 201):
        assert f(r, P, Q) == pytest.approx(f_alt(r, P, Q), abs=1e-10)


@pytest.mark.parametrize("p,q", [(0.1, 0.1), (0.05, 0.3), (0.3, 0.05), (0.2, 0.2)])
def test_f_g_sandwich_and_symmetry(p, q):
    rs = np.linspace(0.0, 1.0, 1000)
    fv = np.array([f(r, p, q) for r in rs])
    gv = np.array([g(r, q) for r in rs])
    assert np.all(fv >= -1e-12)
    assert np.all(fv <= gv + 1e-12)
    for r in np.linspace(0.0, 0.5, 100):
        assert f(r, p, q) == pytest.approx(f(1.0 - r, p, q), abs=1e-12)
        assert g(r, q) == pytest.approx(g(1.0 - r, q), abs=1e-12)


def test_f_g_strictly_convex():
    rs = np.linspace(0.01, 0.99, 400)
    fv = np.array([f(r, P, Q) for r in rs])
    gv = np.array([g(r, Q) for r in rs])
    assert np.all(np.diff(fv, 2) > 0.0)
    assert np.all(np.diff(gv, 2) > 0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        g(1.5, Q)
    with pytest.raises(DomainError):
        f(0.2, 0.5, Q)
    with pytest.raises(DomainError):
        g(0.2, 0.0)


@pytest.mark.parametrize("p,q", [(0.1, 0.1), (0.05, 0.3), (0.3, 0.05)])
def test_kernels_equal_public_twins(p, q):
    # the unchecked kernels hold the only copy of each formula: on in-domain
    # input the public function must return exactly the kernel's value; f
    # evaluates r > 1/2 at its mirror 1 - r
    for r in np.concatenate([[0.0, 1e-300, 0.5], np.linspace(0.0, 1.0, 201)]):
        r = float(r)
        assert _first_form(p, q)(r if r <= 0.5 else 1.0 - r)[0] == f(r, p, q)
        assert _g(r, q) == g(r, q)
        assert _f_prime(r, q, *_second_form(p, q)) == f_prime(r, p, q)
        if 0.0 < r < 1.0:
            assert _g_prime(r, q) == g_prime(r, q)


@pytest.mark.parametrize("p,q", [(0.1, 0.1), (0.05, 0.3), (0.3, 0.05), (0.2, 0.25)])
def test_derivatives_match_finite_differences(p, q):
    h = 1e-6
    for r in np.linspace(0.02, 0.48, 24):
        fd_g = (g(r + h, q) - g(r - h, q)) / (2 * h)
        fd_f = (f(r + h, p, q) - f(r - h, p, q)) / (2 * h)
        assert g_prime(r, q) == pytest.approx(fd_g, abs=1e-5)
        assert f_prime(r, p, q) == pytest.approx(fd_f, abs=1e-5)


def test_g_inverse():
    assert g_inverse(h2(Q), Q) == pytest.approx(0.0, abs=1e-12)
    assert g_inverse(0.0, Q) == pytest.approx(0.5, abs=1e-12)
    assert g(g_inverse(0.1, Q), Q) == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(DomainError):
        g_inverse(h2(Q) + 0.01, Q)


# ---------------------------------------------------------------------------
# critical point
# ---------------------------------------------------------------------------


def test_critical_point_values():
    cp = critical_point(P, Q)
    assert cp.crossover == pytest.approx(R_CROSS, abs=1e-9)
    assert cp.rate == pytest.approx(R_C, abs=1e-9)
    assert cp.alpha_star == pytest.approx(ALPHA, abs=1e-9)
    # definitional invariants
    assert g(cp.crossover, Q) == pytest.approx(cp.rate, abs=1e-9)
    assert cp.alpha_star == pytest.approx(f(cp.crossover, P, Q) / cp.rate, abs=1e-9)
    assert 0.0 < cp.rate < h2(Q)
    assert 0.0 < cp.alpha_star < 1.0


def test_critical_point_frozen_bits():
    for (p, q), expected in CP_FROZEN:
        cp = critical_point(p, q)
        assert (cp.crossover, cp.rate, cp.alpha_star) == expected


def test_critical_point_tangent_dominates_curved_branch():
    cp = critical_point(P, Q)
    for rate in np.linspace(cp.rate, h2(Q), 50):
        chord = cp.alpha_star * rate
        assert chord >= f(g_inverse(rate, Q), P, Q) - 1e-9


def test_critical_point_degenerate_configs_raise():
    # for these parameters f/g is monotone: no interior tangency
    for p, q in ((0.3, 0.3), (0.05, 0.3), (0.05, 0.2)):
        with pytest.raises(SolverError):
            critical_point(p, q)


@pytest.mark.parametrize("p, q, match", [
    (0.2, 0.3, "no tangency sign change"),
    (0.1, 0.3, "only at the boundary"),
    (1e-12, 1e-3, "no tangency in the scan bracket"),
    (0.3, 0.3, "only at the boundary"),
    # the scan bracket straddles r = 0.499 and the bisection's root lies past it
    (0.49792045022311376, 0.3916877838419371, r"only at the boundary \(r_c=0\.4990143"),
    (0.1, 1e-19, "degenerate tangency"),
])
def test_critical_point_error_keeps_no_scan_array(p, q, match):
    # a caller that keeps the error keeps its traceback's frames; no 2,048-point
    # scan array may stay alive in them
    with pytest.raises(SolverError, match=match) as info:
        critical_point(p, q)
    tb = info.value.__traceback__
    while tb is not None:
        held = [k for k, v in tb.tb_frame.f_locals.items() if isinstance(v, np.ndarray)]
        assert held == [], tb.tb_frame.f_code.co_name
        tb = tb.tb_next


# q near 1e-10, where f at the tangency is rounding noise: the slope f/g came
# out negative and CriticalPoint raised DomainError through mu_d and
# optimal_channel.  At q = 1e-19, R_c = g(r_c) rounds to 0, and f/g raised
# ZeroDivisionError through both
TINY_Q = [(0.25, 1e-10), (0.1, 2e-10), (0.2, 2e-10), (0.35, 5e-10), (0.45, 5e-10),
          (0.4, 5e-09), (0.1, 1e-19)]


@pytest.mark.parametrize("p, q", TINY_Q)
def test_tiny_q_degenerate_tangency_uses_the_curved_branch(p, q):
    with pytest.raises(SolverError, match="degenerate tangency"):
        critical_point(p, q)
    for frac in (0.01, 0.5, 0.9):
        rate = frac * h2(q)
        assert mu_d(rate, p, q) == pytest.approx(mu_d_dual(rate, p, q), abs=1e-6)
        assert mu_d(rate, p, q) == 1.0 - h2(star(p, q)) + f(g_inverse(rate, q), p, q)
        assert optimal_channel(rate, p, q).kind == "direct"


# ---------------------------------------------------------------------------
# relevance-rate curves
# ---------------------------------------------------------------------------


def test_mu_ed_values():
    assert mu_ed(0.0, P, Q) == pytest.approx(MU0, abs=1e-12)
    assert mu_ed(h2(Q), P, Q) == pytest.approx(TOP, abs=1e-12)
    assert mu_ed(2.0, P, Q) == pytest.approx(TOP, abs=1e-12)
    assert mu_ed(0.2, P, Q) == pytest.approx(MU_ED_02, abs=1e-9)
    with pytest.raises(DomainError):
        mu_ed(-0.1, P, Q)


def test_mu_d_endpoints_and_values():
    assert mu_d(0.0, P, Q) == pytest.approx(MU0, abs=1e-12)
    assert mu_d(h2(Q), P, Q) == pytest.approx(TOP, abs=1e-12)
    assert mu_d(1.0, P, Q) == pytest.approx(TOP, abs=1e-15)
    assert mu_d(0.2, P, Q) == pytest.approx(MU_D_02, abs=1e-9)
    assert mu_d(0.35, P, Q) == pytest.approx(MU_D_035, abs=1e-9)
    assert mu_d(0.4, P, Q) == pytest.approx(MU_D_04, abs=1e-9)
    with pytest.raises(DomainError):
        mu_d(-1e-3, P, Q)


def test_mu_d_continuous_at_breakpoints():
    cp = critical_point(P, Q)
    eps = 1e-12
    assert mu_d(cp.rate - eps, P, Q) == pytest.approx(mu_d(cp.rate + eps, P, Q), abs=1e-9)
    assert mu_d(h2(Q) - eps, P, Q) == pytest.approx(mu_d(h2(Q) + eps, P, Q), abs=1e-9)


@pytest.mark.parametrize("p,q", [(0.1, 0.1), (0.3, 0.3), (0.05, 0.3), (0.3, 0.05)])
def test_mu_d_shape_and_sandwich(p, q):
    hq = h2(q)
    rates = np.linspace(0.0, hq, 500)
    vals = np.array([mu_d(r, p, q) for r in rates])
    assert np.all(np.diff(vals) >= -1e-12)          # nondecreasing
    assert np.all(np.diff(vals, 2) <= 1e-9)         # concave
    lo_slope = (h2(star(p, q)) - h2(p)) / hq
    base = 1.0 - h2(star(p, q))
    assert np.all(vals >= base + lo_slope * rates - 1e-9)
    assert np.all(vals <= base + rates + 1e-9)


@pytest.mark.xfail(strict=True, reason="mu_d takes the curved branch where its "
                   "tangency scan, from r = 1e-6, misses the critical point (ROADMAP item 8)")
def test_mu_d_on_or_above_the_chord_at_small_q():
    # the chord from the constant channel to the identity is achievable, so
    # mu_d lies on or above it: here 0.528727 against 0.529739 (mu_d_dual
    # 0.529739), since f/g peaks near r = 3.5e-7
    p, q = 0.1, 0.001
    rate = h2(q) / 2.0
    hpq = h2(star(p, q))
    chord = 1.0 - hpq + rate * (hpq - h2(p)) / h2(q)
    assert mu_d(rate, p, q) >= chord - 1e-9


def test_mu_d_dominated_by_mu_ed():
    for p, q in ((0.1, 0.1), (0.3, 0.3), (0.05, 0.3)):
        for r in np.linspace(0.0, h2(q) * 1.2, 60):
            assert mu_d(r, p, q) <= mu_ed(r, p, q) + 1e-9
    # beyond h2(q) both sit at 1 - h2(p) exactly
    assert mu_d(h2(Q) + 0.05, P, Q) == mu_ed(h2(Q) + 0.05, P, Q)


def test_mu_d_dual_endpoints_and_agreement():
    assert mu_d_dual(0.0, P, Q) == pytest.approx(MU0, abs=1e-6)
    assert mu_d_dual(h2(Q), P, Q) == pytest.approx(TOP, abs=1e-6)
    mid = h2(Q) / 2
    assert mu_d_dual(mid, P, Q) == pytest.approx(mu_d(mid, P, Q), abs=1e-6)
    # a rate above h2(q) reads as h2(q); a negative one beyond the slack raises
    assert mu_d_dual(h2(Q) + 0.01, P, Q) == mu_d_dual(h2(Q), P, Q)
    with pytest.raises(DomainError):
        mu_d_dual(-0.01, P, Q)


def test_mu_d_dual_frozen_bits():
    for (rate, p, q), expected in DUAL_FROZEN:
        assert mu_d_dual(rate, p, q) == expected


def test_more_frozen_bits():
    for (rate, q), expected in G_INV_FROZEN:
        assert g_inverse(rate, q) == expected
    for (rate, p, q), expected in MU_ED_FROZEN:
        assert mu_ed(rate, p, q) == expected
    for (rate, p, q), expected in MU_D_CURVED_FROZEN:
        assert mu_d(rate, p, q) == expected
    for (rate, p, q), expected in DUAL_MORE_FROZEN:
        assert mu_d_dual(rate, p, q) == expected


# The dual oracle as it was before its objective was written out on flat
# floats: nested calls into a looping h2 and the star convolution.  Kept as
# the reference the flat objective and the kernels must equal bit for bit.

def _ref_h2(x):
    out = 0.0
    for v in (x, 1.0 - x):
        if v > 0.0:
            out -= v * math.log2(v)
    return out


def _ref_star(a, b):
    return a * (1.0 - b) + b * (1.0 - a)


def _ref_g(r, q):
    return _ref_h2(_ref_star(r, q)) - _ref_h2(r)


def _ref_f(r, p, q):
    w = _ref_star(q, r)
    return (_ref_h2(_ref_star(p, q))
            - (1.0 - w) * _ref_h2(_ref_star(p, min(q * r / (1.0 - w), 1.0)))
            - w * _ref_h2(_ref_star(p, (1.0 - q) * r / w)))


def _ref_mu_d_dual(rate, p, q, alpha_tol=1e-8, grid_n=4096):
    rgrid, fg, gg = _curve_grids(p, q, grid_n)

    def objective(r, alpha):
        return _ref_f(r, p, q) - alpha * _ref_g(r, q)

    def inner_max(alpha):
        vals = fg - alpha * gg
        best = max(float(vals[0]), float(vals[-1]))
        interior = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
        if len(interior):
            order = interior[np.argsort(vals[interior])[::-1][:2]]
        else:
            order = []
        brackets = [(rgrid[i - 1], rgrid[i + 1]) for i in order]
        brackets.append((float(rgrid[0]), float(rgrid[2])))
        for lo, hi in brackets:
            _, v = golden_max(lambda r: objective(r, alpha), lo, hi, tol=1e-10)
            best = max(best, v)
        return best

    _, value = golden_min(lambda a: inner_max(a) + a * rate, 0.0, 1.0, tol=alpha_tol)
    return 1.0 - _ref_h2(_ref_star(p, q)) + value


def test_mu_d_dual_equals_reference_bits():
    rng = np.random.default_rng(20261018)
    for i in range(40):
        p, q = (float(v) for v in rng.uniform(0.02, 0.48, size=2))
        hq = h2(q)
        rate = (0.0, hq)[i] if i < 2 else float(rng.uniform(0.0, hq))
        assert mu_d_dual(rate, p, q) == _ref_mu_d_dual(rate, p, q), (rate, p, q)


def _small_crossover_models():
    # p, q = 10^U(-6, log10 0.499): crossovers down to 1e-6 and up to 1/2,
    # each model once as drawn and once with p and q swapped
    rng = np.random.default_rng(20261020)
    drawn = 10.0 ** rng.uniform(-6.0, math.log10(0.499), size=(24, 2))
    return [(float(p), float(q)) for a, b in drawn for p, q in ((a, b), (b, a))]


def test_mu_d_dual_equals_reference_bits_small_crossovers():
    # the bracket bound and the alpha floor skip work only where it cannot
    # change a bit: the reference, which skips nothing, at two of the rates
    # 0, h2(q), an unlimited one (read as h2(q)) and a drawn one per model
    rng = np.random.default_rng(35)
    for i, (p, q) in enumerate(_small_crossover_models()):
        hq = h2(q)
        rates = (0.0, hq, math.inf, float(rng.uniform(0.0, hq)))
        for rate in (rates[i % 4], rates[(i + 1) % 4]):
            assert mu_d_dual(rate, p, q) == _ref_mu_d_dual(min(rate, hq), p, q), (rate, p, q)


def test_dual_skip_margin_covers_the_kernels_rounding():
    # the bracket bound reads F and G off the second-form grid, while the
    # bracket's search evaluates the first form; the two agree within
    # 1e-4 of the margin on every grid point of those models
    for p, q in _small_crossover_models():
        rgrid, fg, gg = _curve_grids(p, q, binary._DUAL_GRID_N)
        first = binary._first_form(p, q)
        f1, g1 = np.array([first(r) for r in rgrid.tolist()]).T
        assert np.abs(f1 - fg).max() <= binary._DUAL_SKIP_MARGIN / 1e4, (p, q)
        assert np.abs(g1 - gg).max() <= binary._DUAL_SKIP_MARGIN / 1e4, (p, q)


def test_dual_inner_search_equals_golden_max():
    # the end value hides most last-digit changes (a golden section rarely
    # changes course over one ulp), so the written-out inner search is held
    # to golden_max on the reference f - alpha g at every step: the same r
    # evaluated, in order, and the same double.  Its memo starts empty, so
    # every new r is a miss that reads the reference (f, g) through first
    rng = np.random.default_rng(7)
    rgrid = _curve_grids(P, Q, 4096)[0].tolist()
    n = len(rgrid)
    cases = []
    for k in range(40):
        p, q = (float(v) for v in rng.uniform(0.005, 0.495, 2))
        alpha = (0.0, 1.0)[k] if k < 2 else float(rng.uniform())
        i = int(rng.integers(2, n - 2))
        cases.append((p, q, alpha, rgrid[i - 1], rgrid[i + 1]))
    # the left edge's bracket, and the last one next to r = 1/2
    cases += [(p, q, alpha, rgrid[0], rgrid[2]) for p, q, alpha, *_ in cases[:10]]
    cases += [(p, q, alpha, rgrid[n - 3], rgrid[n - 1]) for p, q, alpha, *_ in cases[:10]]
    for p, q, alpha, lo, hi in cases:
        want, got = [], []

        def reference(r):
            want.append(r)
            return _ref_f(r, p, q) - alpha * _ref_g(r, q)

        def first(r):
            got.append(r)
            return _ref_f(r, p, q), _ref_g(r, q)

        value = binary._dual_bracket_max({}, first, alpha, lo, hi)
        assert value.hex() == golden_max(reference, lo, hi, tol=1e-10)[1].hex()
        assert got == want, (p, q, alpha, lo, hi)
        assert len(got) > 30


def _ref_grid_scan(alpha, rgrid, fg, gg):
    # mu_d_dual's grid scan as it was before it was written out
    vals = fg - alpha * gg
    best = max(float(vals[0]), float(vals[-1]))
    interior = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    if len(interior):
        order = interior[np.argsort(vals[interior])[::-1][:2]]
    else:
        order = []
    return best, [(float(rgrid[i - 1]), float(rgrid[i + 1])) for i in order], len(interior)


def test_dual_grid_scan_equals_argsort_expression():
    # mu_d_dual's own grids show 0 or 1 interior maxima, so the argsort path
    # is held here on synthetic ones: 0, 1, 2 and 5 maxima, tied maxima and
    # flat plateaus, at alpha = 0 (values fg itself) and on drawn gg
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, 64)
    # 31 peaks tied in tens, on which a stable argsort picks another pair
    tens = np.round(np.linspace(0.1, 1.0, 32)[np.random.default_rng(0).permutation(32)], 1)
    shapes = [
        (0, x), (0, -x), (0, (x - 0.5) ** 2),
        (1, -(x - 0.3) ** 2),
        (2, np.sin(4 * np.pi * x) + x),
        (2, np.sin(np.pi * x)),                               # a tied pair
        (5, np.sin(10 * np.pi * x) + 0.1 * x),
        (6, np.round(np.sin(12 * np.pi * x), 1)),             # six tied
        (31, np.tile([0.0, 1.0], 32)),                        # 31 tied
        (31, np.column_stack([np.zeros(32), tens]).ravel()),
        (42, np.minimum(np.sin(np.pi * x), 0.5)),             # one plateau
        (26, np.minimum(np.abs(np.sin(2 * np.pi * x)), 0.8)),  # two plateaus
        (62, np.full(64, 0.25)),                              # all flat
    ]
    rgrid = np.linspace(0.0, 0.5, 64)
    buffers = np.empty(64), np.empty(62, bool), np.empty(62, bool)
    for count, fg in shapes:
        for alpha, gg in ((0.0, rng.uniform(-1.0, 1.0, 64)),
                          (float(rng.uniform()), np.zeros(64)),
                          (float(rng.uniform()), rng.uniform(-1.0, 1.0, 64))):
            best, brackets, found = _ref_grid_scan(alpha, rgrid, fg, gg)
            if alpha == 0.0 or not gg.any():
                assert found == count
            got = binary._dual_grid_scan(alpha, fg, gg, *buffers)
            assert got[0].hex() == best.hex()
            # indices k of the brackets (r[k], r[k+2]), as inner_max reads them
            assert [(float(rgrid[k]), float(rgrid[k + 2])) for k in got[1]] == brackets, \
                (count, alpha)


def test_dual_refines_the_brackets_its_bound_leaves_open(monkeypatch):
    # the bracket bound as documented: refine the peak brackets, highest
    # first, then the left edge, each only if the split bound
    # max(F(r_k) - alpha G(r_k+1), F(r_k+1) - alpha G(r_k+2)) plus the margin
    # reaches the best value so far.  On a fresh memo each alpha is scanned
    # once a call; those whose inner max ran are replayed on the reference
    # scan, in that order, and the searches must be these.  An alpha
    # golden_min's claims settled is scanned without a search
    scans, searches, ran = [], [], []
    scan, search = binary._dual_grid_scan, binary._dual_bracket_max

    def counted_golden_min(fun, *args, **kwargs):
        return golden_min(lambda a: ran.append(a) or fun(a), *args, **kwargs)

    def scanned(alpha, *args):
        scans.append(alpha)
        return scan(alpha, *args)

    def searched(get, fill, alpha, lo, hi):
        value = search(get, fill, alpha, lo, hi)
        searches.append((alpha, lo, hi, value))
        return value

    monkeypatch.setattr(binary, "_dual_grid_scan", scanned)
    monkeypatch.setattr(binary, "_dual_bracket_max", searched)
    monkeypatch.setattr(binary, "golden_min", counted_golden_min)
    models = [(0.1, 0.1), (0.3, 0.05), (0.1, 0.001)] + _small_crossover_models()[:3]
    enclosed_only = 0
    for p, q in models:
        for rate in (0.0, 0.4 * h2(q), h2(q)):
            for seen in (scans, searches, ran):
                seen.clear()
            binary._dual_memo.cache_clear()
            mu_d_dual(rate, p, q)
            assert len(set(scans)) == len(scans) and set(ran) <= set(scans), (rate, p, q)
            enclosed_only += len(set(scans) - set(ran))
            rgrid, fg, gg = _curve_grids(p, q, binary._DUAL_GRID_N)
            index = {r: k for k, r in enumerate(rgrid.tolist())}
            done, want = iter(searches), []
            for alpha in dict.fromkeys(ran):
                best, brackets, _ = _ref_grid_scan(alpha, rgrid, fg, gg)
                for lo, hi in brackets + [(float(rgrid[0]), float(rgrid[2]))]:
                    k = index[lo]
                    split = max(float(fg[k]) - alpha * float(gg[k + 1]),
                                float(fg[k + 1]) - alpha * float(gg[k + 2]))
                    if split + binary._DUAL_SKIP_MARGIN >= best:
                        got = next(done)
                        want.append((alpha, lo, hi, got[3]))
                        best = max(best, got[3])
            assert searches == want, (rate, p, q)
    assert enclosed_only > 0
    binary._dual_memo.cache_clear()


def test_dual_claims_hold_on_the_computed_objective(monkeypatch):
    # mu_d_dual's claims on golden_min's objective, inner_max(a) + a rate,
    # drawn from a's grid scan alone: lower <= objective <= upper at 61
    # alphas a model, each enclosed before it is evaluated.  Both rest on f
    # and g falling on [0, 1/2]; on the grid they do, up to rounding far
    # below the margin
    probes = np.linspace(0.0, 1.0, 61).tolist()
    held = []

    def probing_golden_min(fun, lo, hi, tol, bound, enclose):
        for a in probes:
            lower, upper = enclose(a)
            value = fun(a)
            assert lower <= value <= upper, (a, lower, value, upper)
            held.append(upper - lower)
        return golden_min(fun, lo, hi, tol, bound=bound, enclose=enclose)

    monkeypatch.setattr(binary, "golden_min", probing_golden_min)
    bench = [(p, q) for p in (0.05, 0.1, 0.2, 0.3) for q in (0.05, 0.1, 0.2, 0.3)]
    extremes = [(0.4999, 0.4999), (1e-6, 0.2), (0.1, 0.001)]
    for i, (p, q) in enumerate(bench + _small_crossover_models() + extremes):
        _, fg, gg = _curve_grids(p, q, binary._DUAL_GRID_N)
        assert np.diff(fg).max() <= binary._DUAL_SKIP_MARGIN / 1e4, (p, q)
        assert np.diff(gg).max() <= binary._DUAL_SKIP_MARGIN / 1e4, (p, q)
        binary._dual_memo.cache_clear()
        mu_d_dual((0.0, 0.5, 1.0)[i % 3] * h2(q), p, q)
    assert len(held) == 61 * 67
    binary._dual_memo.cache_clear()


def test_dual_refined_bracket_never_tops_its_split_bound(monkeypatch):
    # the one bound behind both the bracket skip and the upper claim: at
    # every alpha golden_min tries, each bracket in (*ks, 0), refined with
    # no skip, ends at most max(F(r_k) - alpha G(r_k+1), F(r_k+1) -
    # alpha G(r_k+2)) plus the margin, with F and G read off the grid alone
    tried = []

    def recording_golden_min(fun, lo, hi, tol, bound, enclose):
        return golden_min(lambda a: tried.append(a) or fun(a), lo, hi, tol, bound=bound,
                          enclose=lambda a: tried.append(a) or enclose(a))

    monkeypatch.setattr(binary, "golden_min", recording_golden_min)
    bench = [(p, q) for p in (0.05, 0.1, 0.2, 0.3) for q in (0.05, 0.1, 0.2, 0.3)]
    extremes = [(0.4999, 0.4999), (1e-6, 0.2), (0.1, 0.001)]
    refined = 0
    for i, (p, q) in enumerate(bench + _small_crossover_models() + extremes):
        tried.clear()
        binary._dual_memo.cache_clear()
        mu_d_dual((0.0, 0.5, 1.0)[i % 3] * h2(q), p, q)
        grids = _curve_grids(p, q, binary._DUAL_GRID_N)
        rgrid, fg, gg = (a.tolist() for a in grids)
        first, terms = binary._first_form(p, q), {}
        buffers = np.empty(len(fg)), np.empty(len(fg) - 2, bool), np.empty(len(fg) - 2, bool)
        for alpha in dict.fromkeys(tried):
            _, ks = binary._dual_grid_scan(alpha, *grids[1:], *buffers)
            for k in (*ks, 0):
                value = binary._dual_bracket_max(terms, first, alpha, rgrid[k], rgrid[k + 2])
                split = max(fg[k] - alpha * gg[k + 1], fg[k + 1] - alpha * gg[k + 2])
                assert value <= split + binary._DUAL_SKIP_MARGIN, (p, q, alpha, k)
                refined += 1
    assert refined > 2000
    binary._dual_memo.cache_clear()


def test_curve_grids_are_read_only():
    # both oracles share these arrays per (p, q); a write through a stray
    # out= would change every later call on the model
    for n in (4096, 512):
        for a in _curve_grids(0.1, 0.2, n):
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                np.multiply(a, 2.0, out=a)


# what one mu_d_dual call can add to its memos, which it bounds only at entry:
# golden_min on [0, 1] at tol 1e-8 tries at most 41 alphas, and each refines
# at most 3 brackets, each searched at tol 1e-10 in at most 33 points
_DUAL_CALL_ALPHAS = 41
_DUAL_CALL_R = 41 * 3 * 33


def test_mu_d_dual_memo_keeps_bits(monkeypatch):
    # 60 calls in blocks of three on one of three models, rates drawn from
    # four per model so that rates repeat; each result must equal the same
    # call made with the memo cleared.  The second sweep's cap is below the
    # distinct r of one call, so its memos are cleared at most call entries;
    # after each call they hold less than the cap plus what one call adds
    rng = np.random.default_rng(17)
    models = [(0.1, 0.1), (0.3, 0.05), (0.2, 0.3)]
    rates = {m: [float(v) for v in rng.uniform(0.0, h2(m[1]), 4)] for m in models}
    calls = []
    for i in rng.integers(3, size=20):
        p, q = models[i]
        calls += [(rates[p, q][j], p, q) for j in rng.integers(4, size=3)]
    fresh = []
    for args in calls:
        binary._dual_memo.cache_clear()
        fresh.append(mu_d_dual(*args))
    for cap in (binary._DUAL_MEMO_CAP, 64):
        monkeypatch.setattr(binary, "_DUAL_MEMO_CAP", cap)
        binary._dual_memo.cache_clear()
        got = []
        for args in calls:
            got.append(mu_d_dual(*args))
            _, terms, alphas = binary._dual_memo(*args[1:])
            assert len(terms) < cap + _DUAL_CALL_R and 0 < len(alphas) < cap + _DUAL_CALL_ALPHAS
        assert got == fresh


def test_mu_d_dual_memo_holds_one_capped_model(monkeypatch):
    # a call clears each dict it finds at _DUAL_MEMO_CAP = 2**15 = 32,768
    # entries or more and adds at most 4,059 r and 41 alphas; on CPython 3.11
    # an r -> (F, G) entry takes 168 B, and an alpha -> (lower, upper, ends,
    # ks) entry 336 B while it holds a scan (two grid indices in ks) and
    # 160 B once it holds the inner max, so at most about
    # 6.2 MB + 11.0 MB = 17.2 MB in all.  The sweep inserts about
    # 39,800 r, more than the cap, so the clear runs
    inserts, kernel = [0], binary._first_form

    def counting_first_form(p, q):
        first = kernel(p, q)

        def counted(r):
            inserts[0] += 1
            return first(r)

        return counted

    monkeypatch.setattr(binary, "_first_form", counting_first_form)
    mu_d_dual(0.2, 0.2, 0.2)
    for rate in np.linspace(0.0, h2(0.3), 80):
        mu_d_dual(rate, 0.1, 0.3)
    assert inserts[0] > binary._DUAL_MEMO_CAP
    info = binary._dual_memo.cache_info()
    assert info.currsize == 1
    _, terms, alphas = binary._dual_memo(0.1, 0.3)
    assert binary._dual_memo.cache_info().hits == info.hits + 1
    assert 0 < len(terms) < binary._DUAL_MEMO_CAP + _DUAL_CALL_R
    assert 0 < len(alphas) < binary._DUAL_MEMO_CAP + _DUAL_CALL_ALPHAS


def test_mu_d_dual_call_stays_within_its_memo_bound(monkeypatch):
    # the counts behind _DUAL_CALL_R and _DUAL_CALL_ALPHAS, on fresh memos so
    # that every entry is the call's own, down to p, q = 1e-6 and at rates 0,
    # h2(q) and an unlimited one: a tolerance or grid change that lets a call
    # outgrow them fails here
    alphas, brackets, points = [], [], []
    search = binary._dual_bracket_max

    def counted_golden_min(fun, lo, hi, tol, bound, enclose):
        # every alpha the search tries, whether its claims or fun settle it
        return golden_min(lambda a: alphas.append(a) or fun(a), lo, hi, tol, bound=bound,
                          enclose=lambda a: alphas.append(a) or enclose(a))

    def searched(terms, first, alpha, lo, hi):
        # replayed on an empty memo, whose misses are the bracket's points
        seen = []
        search({}, lambda r: seen.append(r) or first(r), alpha, lo, hi)
        brackets.append(alpha)
        points.append(len(seen))
        return search(terms, first, alpha, lo, hi)

    monkeypatch.setattr(binary, "golden_min", counted_golden_min)
    monkeypatch.setattr(binary, "_dual_bracket_max", searched)
    models = [(0.1, 0.1), (0.1, 0.001), (1e-6, 0.2), (0.4999, 0.4999)]
    for p, q in models + _small_crossover_models():
        for rate in (0.0, h2(q), math.inf):
            for seen in (alphas, brackets, points):
                seen.clear()
            binary._dual_memo.cache_clear()
            mu_d_dual(rate, p, q)
            _, terms, memo = binary._dual_memo(p, q)
            assert len(set(alphas)) <= _DUAL_CALL_ALPHAS, (rate, p, q)
            assert max(map(brackets.count, brackets), default=0) <= 3, (rate, p, q)
            assert max(points, default=0) <= 33, (rate, p, q)
            assert len(terms) <= _DUAL_CALL_R and len(memo) <= _DUAL_CALL_ALPHAS, (rate, p, q)


def test_mu_d_dual_concurrent_calls_keep_bits(monkeypatch):
    # two threads share one model's memos; at cap 64 each call clears them at
    # entry, often while the other thread is mid-call, with a short switch
    # interval to interleave the two finely.  The sweep runs over eight
    # pairs of rate orders, each from a cleared memo: the same order twice,
    # so that both threads reach one alpha at once, an order and its
    # reverse, and two shuffles, so that an alpha entry one thread reads
    # while the other writes or clears it is met at many points of a call.
    # No result may move
    monkeypatch.setattr(binary, "_DUAL_MEMO_CAP", 64)
    p, q = 0.1, 0.1
    rng = np.random.default_rng(37)
    rates = [float(v) for v in rng.uniform(0.0, h2(q), 36)]
    want = {}
    for rate in rates:
        binary._dual_memo.cache_clear()
        want[rate] = mu_d_dual(rate, p, q).hex()
    one, two = ([rates[i] for i in rng.permutation(len(rates))] for _ in range(2))
    orders = [(rates, rates), (rates, rates[::-1]), (one, one), (one, one[::-1]),
              (two, two), (two, two[::-1]), (rates, one), (one, two)]
    got = {}

    def run(name, order):
        got[name] = {rate: mu_d_dual(rate, p, q).hex() for rate in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i, pair in enumerate(orders):
            got.clear()
            binary._dual_memo.cache_clear()
            threads = [threading.Thread(target=run, args=(name, order))
                       for name, order in enumerate(pair)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive(), i
            assert got == {0: want, 1: want}, i
    finally:
        sys.setswitchinterval(interval)


def test_kernels_equal_reference_bits():
    rng = np.random.default_rng(5)
    rs = np.concatenate([[0.0, 1e-300, 0.5, 1.0, 1.0 - 2.0 ** -53],
                         rng.uniform(0.0, 1.0, 300), 1.0 - rng.uniform(0.0, 1e-12, 50)])
    for r in rs:
        r = float(r)
        # the map f applies, exact by Sterbenz: _first_form works on [0, 1/2]
        h = r if r <= 0.5 else 1.0 - r
        for p, q in ((0.1, 0.1), (0.3, 0.05), (0.45, 1e-4), (0.2, 1e-3)):
            assert _g(r, q) == _ref_g(r, q), (r, q)
            assert _first_form(p, q)(h) == (_ref_f(h, p, q), _ref_g(h, q)), (r, p, q)


# critical_point's scan as it was before it shared its star arrays: four array
# kernels, each forming r*q (and f' and f r*gam and r*dlt) on its own.  Kept
# as the reference the shared-term scan must equal bit for bit

def _ref_h2p_vec(x):
    return np.log2((1.0 - x) / x)


def _ref_scan_terms(rs, p, q):
    # f', g, f and g' on rs
    w = star(p, q)
    gam = p * q / (1.0 - w)
    dlt = p * (1.0 - q) / w
    fp = ((1 - 2 * q) * _ref_h2p_vec(rs * (1 - 2 * q) + q)
          - (1 - w) * (1 - 2 * gam) * _ref_h2p_vec(rs * (1 - 2 * gam) + gam)
          - w * (1 - 2 * dlt) * _ref_h2p_vec(rs * (1 - 2 * dlt) + dlt))
    g_v = binary._h2_arr(rs * (1 - 2 * q) + q) - binary._h2_arr(rs)
    f_v = (binary._h2_arr(rs * (1 - 2 * q) + q)
           - (1.0 - w) * binary._h2_arr(rs * (1 - 2 * gam) + gam)
           - w * binary._h2_arr(rs * (1 - 2 * dlt) + dlt))
    gp = (1 - 2 * q) * _ref_h2p_vec(rs * (1 - 2 * q) + q) - _ref_h2p_vec(rs)
    return fp, g_v, f_v, gp


def _ref_critical_point(p, q):
    # (r_c, R_c, alpha*) by the reference scan and a bisection whose phi forms
    # the second form's constants at each call; None where critical_point
    # raises SolverError
    rs = np.linspace(1e-6, 0.5 - 1e-6, binary._SCAN_N)
    fp, g_v, f_v, gp = _ref_scan_terms(rs, p, q)
    phi = fp * g_v - f_v * gp
    hits = np.nonzero((phi[:-1] > 0.0) & (phi[1:] <= 0.0))[0]
    scan = ((False, float(phi.min()), float(phi.max())) if len(hits) == 0
            else (True, float(rs[hits[0]]), float(rs[hits[0] + 1])))
    if not scan[0]:
        return scan, None
    first = _first_form(p, q)

    def phi_scalar(r):
        f_r, g_r = first(r)
        return _f_prime(r, q, *_second_form(p, q)) * g_r - f_r * _g_prime(r, q)

    try:
        r_c = bisect_root(phi_scalar, scan[1], scan[2])
    except SolverError:
        return scan, None
    f_c, rate = first(r_c)
    if r_c > 0.5 - 1e-3 or not (rate > 0.0 and 0.0 < f_c / rate < 1.0):
        return scan, None
    return scan, (r_c, rate, f_c / rate)


@pytest.mark.parametrize("p,q", [(0.1, 0.1), (0.05, 0.3), (0.3, 0.05), (0.45, 1e-3)])
def test_derivative_array_kernels_match_scalar(p, q):
    # the scan's f' and g' (the reference terms, which it equals bit for bit)
    # against the scalar kernels
    rs = np.linspace(1e-6, 0.5 - 1e-6, binary._SCAN_N)
    fp, _, _, gp = _ref_scan_terms(rs, p, q)
    w_gam_dlt = _second_form(p, q)
    np.testing.assert_allclose(fp, [_f_prime(float(r), q, *w_gam_dlt) for r in rs],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(gp, [_g_prime(float(r), q) for r in rs], rtol=0, atol=1e-12)


def test_derivative_array_kernels_equal_reference_bits():
    # the scan's sign changes, and so the bisection's bracket, depend on
    # every bit of f', g, f and g'; 300 seeded models, about half of them
    # degenerate (no tangency), plus tiny and edge p and q
    rng = np.random.default_rng(31)
    models = [tuple(float(v) for v in rng.uniform(0.005, 0.495, size=2)) for _ in range(300)]
    models += [(p, q) for p in (1e-300, 0.1, 0.4999999999999999)
               for q in (1e-300, 1e-19, 1e-10, 0.1, 0.4999999999999999)]
    found = 0
    for p, q in models:
        scan, want = _ref_critical_point(p, q)
        assert binary._tangency_scan(p, q) == scan, (p, q)
        try:
            got = critical_point(p, q)
        except SolverError as exc:
            assert want is None, (p, q)
            # the message names a missing, boundary or degenerate tangency,
            # never the bisection's bare bracket
            assert not str(exc).startswith("no sign change"), (p, q)
            continue
        found += 1
        assert [float.hex(v) for v in (got.crossover, got.rate, got.alpha_star)] \
            == [float.hex(v) for v in want], (p, q)
    assert 100 < found < len(models) - 100


def test_mu_d_timeshare_oracle():
    assert mu_d_timeshare_oracle(0.0, P, Q) == pytest.approx(MU0, abs=1e-12)
    assert mu_d_timeshare_oracle(h2(Q), P, Q) == pytest.approx(TOP, abs=1e-12)
    for rate in np.linspace(0.02, h2(Q) - 0.02, 9):
        v = mu_d_timeshare_oracle(rate, P, Q)
        ref = mu_d(rate, P, Q)
        assert v <= ref + 1e-9
        assert v >= ref - 5e-3


# The time-sharing oracle as it was before it kept only the two blocks of
# pairs that can be valid: every pair of the 512-point grid.  Kept as the
# reference the block version must equal under ==.

def _ref_mu_d_timeshare_oracle(rate, p, q):
    r = np.linspace(0.0, 0.5, 512)
    fv, gv, _ = _fg_vec(r, p, q)
    g1, g2 = gv[:, None], gv[None, :]
    f1, f2 = fv[:, None], fv[None, :]
    den = g1 - g2
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(den != 0.0, (rate - g2) / den, np.nan)
    valid = np.isfinite(lam) & (lam >= 0.0) & (lam <= 1.0)
    obj = np.where(valid, lam * f1 + (1.0 - lam) * f2, -np.inf)
    best = float(obj.max())
    exact = np.isclose(gv, rate, rtol=0.0, atol=1e-15)
    if exact.any():
        best = max(best, float(fv[exact].max()))
    return 1.0 - h2(star(p, q)) + best


def test_mu_d_timeshare_oracle_frozen_bits():
    for (rate, p, q), expected in TIMESHARE_FROZEN:
        assert mu_d_timeshare_oracle(rate, p, q) == expected


def test_mu_d_timeshare_oracle_equals_reference_bits():
    # per 8 draws: rate 0, rate h2(q), two grid values of g (a pair with lam
    # exactly 0 or 1, and the exact-point branch) and four uniform rates;
    # dropping the mirror block changes about one interior value in twenty
    rng = np.random.default_rng(20261019)
    grid = np.linspace(0.0, 0.5, 512)
    for i in range(96):
        p, q = (float(v) for v in rng.uniform(0.02, 0.48, size=2))
        kind = i % 8
        if kind == 0:
            rate = 0.0
        elif kind == 1:
            rate = h2(q)
        elif kind < 4:
            rate = float(_fg_vec(grid, p, q)[1][int(rng.integers(0, 500))])
        else:
            rate = float(rng.uniform(0.0, h2(q)))
        assert mu_d_timeshare_oracle(rate, p, q) == _ref_mu_d_timeshare_oracle(rate, p, q), \
            (rate, p, q)


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(st.floats(0.02, 0.48), st.floats(0.02, 0.48), st.floats(0.0, 1.0))
def test_mu_d_timeshare_oracle_equals_reference_bits_drawn(p, q, u):
    rate = u * h2(q)
    assert mu_d_timeshare_oracle(rate, p, q) == _ref_mu_d_timeshare_oracle(rate, p, q)


@pytest.mark.parametrize("rate,p,q", [
    (h2(0.1) + 1e-13, 0.2, 0.1),
    (h2(0.3) + 5e-13, 0.2, 0.3),
    (0.2059059333799176, 0.2, 0.03232195823057572),
])
def test_mu_d_timeshare_oracle_rate_in_slack_above_hq(rate, p, q):
    # the guard accepts up to h2(q) + 1e-12; no grid pair reached such a
    # rate, and the oracle returned -inf before the rate was clamped
    assert h2(q) < rate <= h2(q) + 1e-12
    v = mu_d_timeshare_oracle(rate, p, q)
    assert v == mu_d_timeshare_oracle(h2(q), p, q)
    assert abs(v - (1.0 - h2(p))) <= math.ulp(1.0 - h2(p))


@pytest.mark.parametrize("p,q", [(0.1, 0.1), (0.2, 0.3), (0.45, 0.02)])
def test_mu_d_timeshare_oracle_rate_in_slack_below_zero(p, q):
    # a hair below 0 is the value at 0, as mu_d_dual accepts it; beyond the
    # 1e-12 slack it is an error
    at_zero = mu_d_timeshare_oracle(0.0, p, q)
    for rate in (-1e-12, -1e-13, -5e-324):
        assert mu_d_timeshare_oracle(rate, p, q) == at_zero
        mu_d_dual(rate, p, q)
    with pytest.raises(DomainError):
        mu_d_timeshare_oracle(-2e-12, p, q)


@pytest.mark.parametrize("fn,args", [
    pytest.param(g, (NAN, Q), id="g"),
    pytest.param(f, (NAN, P, Q), id="f"),
    pytest.param(g_prime, (NAN, Q), id="g_prime"),
    pytest.param(f_prime, (NAN, P, Q), id="f_prime"),
    pytest.param(g_inverse, (NAN, Q), id="g_inverse"),
    pytest.param(critical_point, (NAN, Q), id="critical_point"),
    pytest.param(mu_d, (NAN, P, Q), id="mu_d"),
    pytest.param(mu_ed, (NAN, P, Q), id="mu_ed"),
    pytest.param(mu_d_dual, (NAN, P, Q), id="mu_d_dual"),
    pytest.param(mu_d_timeshare_oracle, (NAN, P, Q), id="mu_d_timeshare_oracle"),
    pytest.param(optimal_channel, (NAN, P, Q), id="optimal_channel"),
])
def test_nan_rejected(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_infinite_rate():
    # beyond h2(q) the curves saturate, and both oracles read such a rate as
    # h2(q); only g_inverse, the inverse of g on [0, h2(q)], rejects it
    assert mu_d(INF, P, Q) == 1.0 - h2(P)
    assert mu_ed(INF, P, Q) == 1.0 - h2(P)
    assert optimal_channel(INF, P, Q).kind == "identity"
    for fn in (mu_d_dual, mu_d_timeshare_oracle):
        at_hq = fn(h2(Q), P, Q)
        assert fn(2.0, P, Q) == fn(INF, P, Q) == at_hq
        assert abs(at_hq - mu_d(INF, P, Q)) <= 1e-9
    with pytest.raises(DomainError):
        g_inverse(INF, Q)


# ---------------------------------------------------------------------------
# optimal test channels
# ---------------------------------------------------------------------------


def _evaluate_channel(spec):
    src = BinaryModel(P, Q).half_round_source()
    q = compose_markov(src, spec.to_channel("u"))
    rate = cmi(q, ["x1"], ["u"], ["x2"])
    rel = mi(q, ["y"], ["u", "x2"])
    return rate, rel


def test_optimal_channel_kinds():
    assert optimal_channel(0.0, P, Q).kind == "constant"
    assert optimal_channel(h2(Q) + 0.1, P, Q).kind == "identity"
    cp = critical_point(P, Q)
    assert optimal_channel(cp.rate * 0.5, P, Q).kind == "timeshared"
    assert optimal_channel((cp.rate + h2(Q)) / 2, P, Q).kind == "direct"


def test_optimal_channel_constant_point():
    rate, rel = _evaluate_channel(optimal_channel(0.0, P, Q))
    assert rate == pytest.approx(0.0, abs=1e-12)
    assert rel == pytest.approx(mu_d(0.0, P, Q), abs=1e-12)


def test_optimal_channel_identity_point():
    rate, rel = _evaluate_channel(optimal_channel(h2(Q) + 1.0, P, Q))
    assert rate == pytest.approx(h2(Q), abs=1e-12)
    assert rel == pytest.approx(TOP, abs=1e-12)


def test_optimal_channel_direct_round_trip():
    for rate_req in (0.43, 0.45, h2(Q) - 1e-3):
        spec = optimal_channel(rate_req, P, Q)
        assert spec.kind == "direct"
        rate, rel = _evaluate_channel(spec)
        assert rate == pytest.approx(g(spec.r, Q), abs=1e-9)
        assert rel == pytest.approx(MU0 + f(spec.r, P, Q), abs=1e-9)
        assert rate == pytest.approx(rate_req, abs=1e-9)
        assert rel == pytest.approx(mu_d(rate_req, P, Q), abs=1e-9)


def test_optimal_channel_timeshared_round_trip():
    for rate_req in (0.1, 0.25, 0.4):
        spec = optimal_channel(rate_req, P, Q)
        assert spec.kind == "timeshared"
        rate, rel = _evaluate_channel(spec)
        assert rate == pytest.approx(rate_req, abs=1e-9)
        assert rel == pytest.approx(mu_d(rate_req, P, Q), abs=1e-9)


def test_spec_validation():
    from ibreg import TestChannelSpec
    with pytest.raises(DomainError):
        TestChannelSpec("direct", r=0.7)
    with pytest.raises(DomainError):
        TestChannelSpec("timeshared", lam=1.4, r_c=0.1)
    with pytest.raises(ArgumentError):
        TestChannelSpec("noise")
    # a kind that needs a parameter is rejected without it, not at to_channel
    for kw in ({}, {"lam": 0.5}):
        with pytest.raises(ArgumentError):
            TestChannelSpec("direct", **kw)
    for kw in ({}, {"lam": 0.5}, {"r_c": 0.1}, {"r": 0.1, "r_c": 0.1}):
        with pytest.raises(ArgumentError):
            TestChannelSpec("timeshared", **kw)
    with pytest.raises(DomainError):
        TestChannelSpec("timeshared", lam=0.5, r_c=0.6)
    with pytest.raises(ArgumentError):
        TestChannelSpec("timeshared", lam=0.5, r_c=0.1).to_channel(out_card=2)
    # a rounding spill past an end is clamped onto it
    assert TestChannelSpec("direct", r=0.5 + 1e-13).r == 0.5
    spec = TestChannelSpec("timeshared", lam=1.0 + 1e-13, r_c=-1e-13)
    assert (spec.lam, spec.r_c) == (1.0, 0.0)


@pytest.mark.parametrize("out_card", [2.5, math.nan, math.inf, 0, -1])
@pytest.mark.parametrize("kind, kw", [
    ("constant", {}), ("identity", {}), ("direct", {"r": 0.1}),
    ("timeshared", {"lam": 0.5, "r_c": 0.1}),
])
def test_to_channel_rejects_bad_out_card(kind, kw, out_card):
    # 2.5 raised TypeError, and 0 fell back to the default cardinality
    from ibreg import TestChannelSpec
    with pytest.raises(ArgumentError, match="cardinality"):
        TestChannelSpec(kind, **kw).to_channel(out_card=out_card)
