"""Gaussian regions: coefficients, closed forms, outer/inner bounds.

Frozen constants computed at 50-digit precision from the defining log
expressions.
"""

import decimal
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ibreg.gaussian
from ibreg.cli import main
from ibreg.optimize import golden_max

from ibreg import (
    ArgumentError,
    DegenerateModelError,
    DomainError,
    GaussianCdibModel,
    GaussianTwcibModel,
    cdib_x1x2y_critical_r1,
    cdib_x1x2y_mu,
    cdib_x1x2y_r2,
    cdib_x1yx2_inner,
    cdib_x1yx2_outer_frontier,
    cdib_x1yx2_outer_point,
    gaussian_mi,
    twcib_coefficients,
    twcib_point_for_variances,
    twcib_rate_for_relevance,
    twcib_relevance_limit,
    twcib_test_channel_variances,
)

LIMIT_YX2_08 = 0.73696559416620617   # 0.5*log2(1/0.36)
MU_11 = 0.58698510675013053          # 0.5*log2(1/0.4432)
CRIT_R1 = 0.64520698760532518        # 0.5*log2(0.4096/(2^-0.4 - 0.5904))
I_YX1X2_0806 = 0.86998404116386479   # 0.5*log2(0.7696/0.2304)


def twcib_model(**kw):
    base = dict(rho_x1x2=0.5, rho_x1y1=0.4, rho_x2y1=0.8,
                rho_x2y2=0.7, rho_x1y2=0.55)
    base.update(kw)
    return GaussianTwcibModel(**base)


def correlations(rho_x1x2, rho_x1y, rho_x2y):
    """Correlation matrix of (X1, X2, Y)."""
    return np.array([[1.0, rho_x1x2, rho_x1y],
                     [rho_x1x2, 1.0, rho_x2y],
                     [rho_x1y, rho_x2y, 1.0]])


# ---------------------------------------------------------------------------
# two-way model
# ---------------------------------------------------------------------------


def test_twcib_model_validation():
    with pytest.raises(DomainError):
        twcib_model(rho_x1x2=1.0)
    with pytest.raises(DomainError):
        GaussianTwcibModel(0.5, 0.4, 0.8, 0.7, 0.55, sigma_x1_sq=-1.0)
    with pytest.raises(DegenerateModelError):
        # beta < 0: strongly inconsistent correlation triple
        GaussianTwcibModel(rho_x1x2=0.9, rho_x1y1=0.9, rho_x2y1=-0.9,
                           rho_x2y2=0.0, rho_x1y2=0.0)
    with pytest.raises(DegenerateModelError, match="delta"):
        GaussianTwcibModel(rho_x1x2=0.9, rho_x1y1=0.0, rho_x2y1=0.0,
                           rho_x2y2=0.9, rho_x1y2=-0.9)


def test_twcib_coefficients_identity_case():
    # Y1 depending only on X2 makes beta factor exactly
    m = GaussianTwcibModel(rho_x1x2=0.5, rho_x1y1=0.4, rho_x2y1=0.8,
                           rho_x2y2=0.1, rho_x1y2=0.05)
    c = twcib_coefficients(m)
    assert c["beta"] == pytest.approx((1 - 0.25) * (1 - 0.64), abs=1e-12)


def test_twcib_coefficients_zero_cross():
    m = GaussianTwcibModel(rho_x1x2=0.5, rho_x1y1=0.0, rho_x2y1=0.0,
                           rho_x2y2=0.0, rho_x1y2=0.0)
    c = twcib_coefficients(m)
    assert c["a12"] == 0.0 and c["a21"] == 0.0
    assert c["beta"] == pytest.approx(0.75, abs=1e-15)
    assert c["delta"] == pytest.approx(0.75, abs=1e-15)


def test_twcib_coefficients_hand_value():
    m = GaussianTwcibModel(rho_x1x2=0.5, rho_x1y1=0.3, rho_x2y1=0.6,
                           rho_x2y2=0.0, rho_x1y2=0.0)
    assert twcib_coefficients(m)["a12"] == pytest.approx(0.6, abs=1e-12)


def test_twcib_limit_is_mutual_information():
    m = twcib_model()
    # which=2 side serves the hidden Y1, which=1 the hidden Y2
    assert twcib_relevance_limit(m, 2) == pytest.approx(gaussian_mi(
        correlations(m.rho_x1x2, m.rho_x1y1, m.rho_x2y1), [2], [0, 1]), abs=1e-9)
    assert twcib_relevance_limit(m, 1) == pytest.approx(gaussian_mi(
        correlations(m.rho_x1x2, m.rho_x1y2, m.rho_x2y2), [2], [0, 1]), abs=1e-9)


def test_twcib_limit_frozen_value():
    m = GaussianTwcibModel(rho_x1x2=0.5, rho_x1y1=0.4, rho_x2y1=0.8,
                           rho_x2y2=0.1, rho_x1y2=0.05)
    assert twcib_relevance_limit(m, 2) == pytest.approx(LIMIT_YX2_08, abs=1e-9)


def test_twcib_rate_zero_relevance():
    # with rho_x1y1 = 0 the rate formula is exactly zero at mu = 0
    m0 = GaussianTwcibModel(rho_x1x2=0.5, rho_x1y1=0.0, rho_x2y1=0.8,
                            rho_x2y2=0.1, rho_x1y2=0.05)
    assert twcib_rate_for_relevance(m0, 2, 0.0) == pytest.approx(0.0, abs=1e-12)
    # otherwise the bound is vacuous below the side-information level: clamped
    assert twcib_rate_for_relevance(twcib_model(), 2, 0.0) == 0.0


def test_twcib_rate_monotone_convex():
    m = twcib_model()
    lim = twcib_relevance_limit(m, 2)
    mus = np.linspace(0.3, lim - 1e-3, 60)
    rates = np.array([twcib_rate_for_relevance(m, 2, v) for v in mus])
    assert np.all(np.diff(rates) > 0.0)
    assert np.all(np.diff(rates, 2) > -1e-9)
    with pytest.raises(DomainError, match="limit"):
        twcib_rate_for_relevance(m, 2, lim)


def test_twcib_variances_limits():
    m = twcib_model()
    lim1 = twcib_relevance_limit(m, 1)
    lim2 = twcib_relevance_limit(m, 2)
    v = twcib_test_channel_variances(m, lim2 - 1e-7, lim1 - 1e-7)
    assert v["sigma_p1_sq"] < 1e-3
    assert v["sigma_p2_sq"] < 1e-3
    # below the side-information-only relevance the description is useless
    v = twcib_test_channel_variances(m, 1e-6, 1e-6)
    assert v["sigma_p1_sq"] == math.inf
    assert v["sigma_p2_sq"] == math.inf
    with pytest.raises(DomainError):
        twcib_test_channel_variances(m, lim2, 0.3)


def test_twcib_round_trip():
    m = twcib_model()
    lim1 = twcib_relevance_limit(m, 1)
    lim2 = twcib_relevance_limit(m, 2)
    iy2x2 = -0.5 * math.log2(1 - m.rho_x2y2 ** 2)
    iy1x1 = -0.5 * math.log2(1 - m.rho_x1y1 ** 2)
    for t in (0.25, 0.5, 0.85):
        mu2 = iy2x2 + t * (lim1 - iy2x2)
        mu1 = iy1x1 + t * (lim2 - iy1x1)
        v = twcib_test_channel_variances(m, mu1, mu2)
        pt = twcib_point_for_variances(m, v["sigma_p1_sq"], v["sigma_p2_sq"])
        assert pt["mu1"] == pytest.approx(mu1, abs=1e-9)
        assert pt["mu2"] == pytest.approx(mu2, abs=1e-9)
        assert pt["R1"] == pytest.approx(twcib_rate_for_relevance(m, 1, mu2), abs=1e-9)
        assert pt["R2"] == pytest.approx(twcib_rate_for_relevance(m, 2, mu1), abs=1e-9)


def _twcib_six(m, s1, s2, rho_y1y2):
    # covariance of (X1, X2, Y1, Y2, V1, V2) for V1 = X1 + P1, V2 = X2 + P2,
    # entry by entry in the library's products, with corr(Y1, Y2) = rho_y1y2
    s = np.sqrt([m.sigma_x1_sq, m.sigma_x2_sq, m.sigma_y1_sq, m.sigma_y2_sq])
    rho = np.eye(4)
    for (i, j), r in zip(((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)),
                         (m.rho_x1x2, m.rho_x1y1, m.rho_x2y1, m.rho_x1y2, m.rho_x2y2, rho_y1y2)):
        rho[i, j] = rho[j, i] = r
    c = np.zeros((6, 6))
    for i, j in zip(*np.triu_indices(4)):
        c[i, j] = c[j, i] = rho[i, j] * s[i] * s[j]
    for v, x, p in ((4, 0, s1), (5, 1, s2)):
        c[v, :4] = c[:4, v] = c[x, :4]
        c[v, v] = c[x, x] + p
    c[4, 5] = c[5, 4] = c[0, 1]
    return c


@pytest.mark.parametrize("joined", ["zero", "independent Y-noises"])
def test_twcib_point_reads_no_y1_y2_covariance(rng, joined):
    # the relevances read the (X1, X2, Y1) and (X1, X2, Y2) blocks only: the
    # point is the determinant oracle's on a covariance whose Y1-Y2 entry
    # is 0, and again on one joining Y1 and Y2 through independent noises
    checked = 0
    while checked < 300:
        rho = rng.uniform(-0.99, 0.99, 5)
        try:
            m = GaussianTwcibModel(*rho, *10.0 ** rng.uniform(-6, 6, 4))
        except DegenerateModelError:
            continue
        s1, s2 = 10.0 ** rng.uniform(-8, 8, 2)
        rx = np.array([[1.0, m.rho_x1x2], [m.rho_x1x2, 1.0]])
        rho_y1y2 = 0.0 if joined == "zero" else float(
            np.array([m.rho_x1y1, m.rho_x2y1]) @ np.linalg.solve(rx, [m.rho_x1y2, m.rho_x2y2]))
        c = _twcib_six(m, s1, s2, rho_y1y2)
        assert twcib_point_for_variances(m, s1, s2) == {
            "R1": gaussian_mi(c, [0], [4, 5], [1]),
            "R2": gaussian_mi(c, [1], [4, 5], [0]),
            "mu1": gaussian_mi(c, [2], [4, 5, 0]),
            "mu2": gaussian_mi(c, [3], [4, 5, 1]),
        }, (rho, s1, s2)
        checked += 1


def test_gaussian_mi_returns_python_floats():
    # it returned np.float64, so the two-way point held numpy scalars
    m = twcib_model()
    assert type(gaussian_mi(correlations(0.5, 0.3, 0.2), [0], [1, 2])) is float
    assert type(gaussian_mi(np.eye(3), [0], [1], [2])) is float
    pt = twcib_point_for_variances(m, 0.5, 2.0)
    assert all(type(v) is float for v in pt.values()), pt


def _twcib_round_trip(m, mu1, mu2):
    v = twcib_test_channel_variances(m, mu1, mu2)
    return twcib_point_for_variances(m, v["sigma_p1_sq"], v["sigma_p2_sq"])


def test_twcib_round_trip_is_scale_free():
    # every relevance and rate depends on the correlations only.  A second,
    # eigenvalue check of the covariance, with an absolute -1e-10 bound,
    # rejected 14% of these models (minimum eigenvalue -2.4e-06 at
    # sigma_x^2 = 1e-10, sigma_y^2 = 1e10) that beta, delta > 0 make valid
    rng = random.Random(7)
    names = ("x1", "x2", "y1", "y2")
    cases = [((0.5, 0.4, 0.8, 0.7, 0.55), (-10, -10, 10, 10))]
    while len(cases) < 400:
        rhos = tuple(rng.uniform(-0.95, 0.95) for _ in range(5))
        try:
            GaussianTwcibModel(*rhos)
        except DegenerateModelError:
            continue
        cases.append((rhos, tuple(rng.uniform(-20.0, 20.0) for _ in names)))
    for rhos, exps in cases:
        unit = GaussianTwcibModel(*rhos)
        m = GaussianTwcibModel(*rhos, **{f"sigma_{n}_sq": 10.0 ** e
                                         for n, e in zip(names, exps)})
        side1 = -0.5 * math.log2(1.0 - unit.rho_x1y1 ** 2)
        side2 = -0.5 * math.log2(1.0 - unit.rho_x2y2 ** 2)
        mu1 = side1 + rng.uniform(0.05, 0.95) * (twcib_relevance_limit(unit, 2) - side1)
        mu2 = side2 + rng.uniform(0.05, 0.95) * (twcib_relevance_limit(unit, 1) - side2)
        want = _twcib_round_trip(unit, mu1, mu2)
        got = _twcib_round_trip(m, mu1, mu2)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-9), (rhos, exps, key)


@pytest.mark.parametrize("call", [
    lambda m: twcib_rate_for_relevance(m, 1, math.nan),
    lambda m: twcib_rate_for_relevance(m, 2, math.nan),
    lambda m: twcib_test_channel_variances(m, math.nan, 0.2),
    lambda m: twcib_test_channel_variances(m, 0.2, math.nan),
    lambda m: twcib_rate_for_relevance(m, 2, math.inf),
    lambda m: twcib_test_channel_variances(m, math.inf, 0.2),
], ids=["rate-1-nan", "rate-2-nan", "variances-mu1-nan", "variances-mu2-nan",
        "rate-inf", "variances-inf"])
def test_twcib_rejects_non_finite_relevance(call):
    # NaN relevance used to give a rate of 0.0 and variances {inf, 0.0}
    with pytest.raises(DomainError):
        call(twcib_model())


# ---------------------------------------------------------------------------
# broadcast chain X1 - X2 - Y
# ---------------------------------------------------------------------------


@pytest.fixture
def chain_a():
    return GaussianCdibModel.chain_x1_x2_y(0.8, 0.8)


def test_cdib_x1x2y_endpoints(chain_a):
    assert cdib_x1x2y_mu(chain_a, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert cdib_x1x2y_mu(chain_a, 40.0, 40.0) == pytest.approx(LIMIT_YX2_08, abs=1e-9)
    # X1 adds nothing about Y once X2 is known
    assert chain_a.i_y_x1x2() == chain_a.i_y_x2() == pytest.approx(LIMIT_YX2_08, abs=1e-15)
    cov = correlations(chain_a.rho_x1x2, chain_a.rho_x1y, chain_a.rho_x2y)
    assert gaussian_mi(cov, [2], [0, 1]) == pytest.approx(LIMIT_YX2_08, abs=1e-12)
    with pytest.raises(DomainError):
        cdib_x1x2y_mu(chain_a, -0.1, 0.2)


def test_cdib_x1x2y_spot_value(chain_a):
    assert cdib_x1x2y_mu(chain_a, 1.0, 1.0) == pytest.approx(MU_11, abs=1e-9)


def test_cdib_x1x2y_monotone_concave(chain_a):
    rs = np.linspace(0.0, 3.0, 40)
    surf = np.array([[cdib_x1x2y_mu(chain_a, a, b) for b in rs] for a in rs])
    assert np.all(np.diff(surf, axis=0) >= -1e-12)
    assert np.all(np.diff(surf, axis=1) >= -1e-12)
    assert np.all(np.diff(surf, 2, axis=0) <= 1e-9)
    assert np.all(np.diff(surf, 2, axis=1) <= 1e-9)
    diag = np.array([cdib_x1x2y_mu(chain_a, a, a) for a in rs])
    assert np.all(np.diff(diag, 2) <= 1e-9)
    assert np.all(surf <= chain_a.i_y_x2())


def test_cdib_x1x2y_r2_round_trip(chain_a):
    for r1 in (0.0, 0.4, 1.3):
        for mu in (0.1, 0.35, 0.6):
            r2 = cdib_x1x2y_r2(chain_a, r1, mu)
            if r2 > 0.0:
                assert cdib_x1x2y_mu(chain_a, r1, r2) == pytest.approx(mu, abs=1e-9)
    # zero target relevance never needs rate
    for r1 in (0.0, 1.0, 5.0):
        assert cdib_x1x2y_r2(chain_a, r1, 0.0) == 0.0
    with pytest.raises(DomainError):
        cdib_x1x2y_r2(chain_a, 0.5, chain_a.i_y_x2())
    # the float below the limit, where 2^(-2 mu) rounds onto 1 - rho_x2y^2:
    # the division raised ZeroDivisionError
    with pytest.raises(DomainError, match=r"I\(Y;X2\)"):
        cdib_x1x2y_r2(GaussianCdibModel.chain_x1_x2_y(0.8, 0.6), 0.3, 0.3219280948873623)


def test_cdib_x1x2y_critical_r1(chain_a):
    r1c = cdib_x1x2y_critical_r1(chain_a, 0.2)
    assert r1c == pytest.approx(CRIT_R1, abs=1e-9)
    # consistency: at the critical first rate, no second rate is needed
    assert cdib_x1x2y_r2(chain_a, r1c, 0.2) == pytest.approx(0.0, abs=1e-9)
    # above I(Y;X1) no finite first rate suffices
    assert cdib_x1x2y_critical_r1(chain_a, chain_a.i_y_x1() + 0.01) is None
    assert cdib_x1x2y_critical_r1(chain_a, chain_a.i_y_x1()) == math.inf


@pytest.mark.parametrize("call", [
    lambda m: cdib_x1x2y_r2(m, math.nan, 0.3),
    lambda m: cdib_x1x2y_r2(m, 1.0, math.nan),
    lambda m: cdib_x1x2y_mu(m, math.nan, 1.0),
    lambda m: cdib_x1x2y_mu(m, 1.0, math.nan),
    lambda m: cdib_x1x2y_critical_r1(m, math.nan),
    lambda m: cdib_x1x2y_r2(m, 1.0, math.inf),
    lambda m: cdib_x1x2y_critical_r1(m, math.inf),
], ids=["r2-rate-nan", "r2-mu-nan", "mu-rate1-nan", "mu-rate2-nan", "critical-nan",
        "r2-mu-inf", "critical-inf"])
def test_cdib_x1x2y_rejects_nan(chain_a, call):
    # NaN used to give R2 = 0.0 and NaN relevances and critical rates
    with pytest.raises(DomainError):
        call(chain_a)


def test_cdib_x1x2y_infinite_rates_saturate(chain_a):
    assert cdib_x1x2y_mu(chain_a, math.inf, math.inf) == pytest.approx(
        chain_a.i_y_x2(), abs=1e-12)
    assert cdib_x1x2y_mu(chain_a, math.inf, 1.0) == cdib_x1x2y_mu(chain_a, 200.0, 1.0)
    assert cdib_x1x2y_r2(chain_a, math.inf, 0.3) == cdib_x1x2y_r2(chain_a, 200.0, 0.3)


def test_wrong_chain_rejected(chain_a):
    with pytest.raises(DomainError):
        cdib_x1yx2_outer_frontier(chain_a, 0.5, 0.5)
    with pytest.raises(DomainError):
        GaussianCdibModel("x2-x1-y", rho_x1x2=0.5, rho_x2y=0.5)


@pytest.mark.parametrize("chain, kw, implied", [
    ("x1-y-x2", {"rho_x1y": 0.8, "rho_x2y": 0.6}, "rho_x1x2"),
    ("x1-x2-y", {"rho_x1x2": 0.8, "rho_x2y": 0.6}, "rho_x1y"),
], ids=["x1-y-x2", "x1-x2-y"])
def test_chain_implied_correlation(chain, kw, implied):
    # a contradicting implied correlation was replaced by the product silently
    product = 0.8 * 0.6
    for given in (0.0, product):
        assert getattr(GaussianCdibModel(chain, **kw, **{implied: given}), implied) == product
    for given in (0.9, -product, math.nan):
        with pytest.raises(DomainError, match=implied):
            GaussianCdibModel(chain, **kw, **{implied: given})


# ---------------------------------------------------------------------------
# broadcast chain X1 - Y - X2
# ---------------------------------------------------------------------------


@pytest.fixture
def chain_b():
    return GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)


def test_markov_consistency(chain_b):
    # X1 and X2 conditionally uncorrelated given Y
    assert chain_b.rho_x1x2 == chain_b.rho_x1y * chain_b.rho_x2y == 0.8 * 0.6


def test_outer_point_limits(chain_b):
    p0 = cdib_x1yx2_outer_point(chain_b, 0.0, 0.0)
    assert p0.mu_max == pytest.approx(0.0, abs=1e-12)
    # the 64-bit rate cap leaves 2^-128 residuals, far below every tolerance
    pinf = cdib_x1yx2_outer_point(chain_b, 64.0, 64.0)
    assert pinf.mu_max == pytest.approx(I_YX1X2_0806, abs=1e-9)
    assert pinf.mu_max == pytest.approx(chain_b.i_y_x1x2(), abs=1e-9)
    with pytest.raises(DomainError):
        cdib_x1yx2_outer_point(chain_b, -0.1, 0.0)


def test_outer_point_vanishing_log_argument_raises_without_warning():
    # rho_x2y one ulp below 1: at (0, 0) the log argument cancels to 0, and
    # DegenerateModelError, not numpy's divide-by-zero RuntimeWarning, comes out
    m = GaussianCdibModel.chain_x1_y_x2(0.8, 0.9999999999999999)
    with pytest.raises(DegenerateModelError, match="log argument vanished"):
        cdib_x1yx2_outer_point(m, 0.0, 0.0)


@pytest.mark.parametrize("rate", [1e-300, 1e-17])
def test_outer_frontier_vanishing_log_argument_without_warning(rate):
    # rho_x2y one ulp below 1: near the origin the r2 search meets log
    # arguments that cancel to 0, and numpy warned "divide by zero" 9 times
    # a call, an error under warnings-as-errors
    m = GaussianCdibModel.chain_x1_y_x2(0.8, 0.9999999999999999)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cdib_x1yx2_outer_frontier(m, rate, rate) == 0.0


def test_outer_point_structure(chain_b):
    for r1, r2 in ((0.1, 0.8), (1.0, 0.3), (2.0, 2.0)):
        pt = cdib_x1yx2_outer_point(chain_b, r1, r2)
        assert pt.sum_min == pytest.approx(r1 + r2 + pt.mu_max, abs=1e-12)
        assert min(pt.R1_min, pt.R2_min, pt.mu_max) >= 0.0
        # the R2 bound term equals mu_max, so R2_min == r2
        assert pt.R2_min == pytest.approx(r2, abs=1e-12)


def test_outer_frontier_basics(chain_b):
    assert cdib_x1yx2_outer_frontier(chain_b, 0.0, 0.0) == 0.0
    rs = np.linspace(0.0, 2.0, 9)
    vals = np.array([[cdib_x1yx2_outer_frontier(chain_b, a, b) for b in rs] for a in rs])
    assert np.all(np.diff(vals, axis=0) >= -1e-9)
    assert np.all(np.diff(vals, axis=1) >= -1e-9)
    assert cdib_x1yx2_outer_frontier(chain_b, 50.0, 50.0) == pytest.approx(
        chain_b.i_y_x1x2(), abs=1e-6)


# The objective of the outer frontier as it stood before it moved to Python
# floats: numpy-scalar arithmetic on every evaluation, nothing hoisted out of
# the inner search.  It is the oracle the rewritten objective must equal
# bit for bit, since the frontier's 12-digit output depends on the exact
# golden-section path.
def _numpy_scalar_outer_mu(e1, e2, r1, r2):
    num = 1.0 - e1 * e2 - e1 * (1.0 - e2) * 2.0 ** (-2.0 * np.asarray(r1)) \
          - e2 * (1.0 - e1) * 2.0 ** (-2.0 * np.asarray(r2))
    return 0.5 * np.log2(num / ((1.0 - e1) * (1.0 - e2)))


def _oracle_outer_frontier(m, rate1, rate2):
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    i_y_x2 = m.i_y_x2()
    span = rate1 + rate2
    if span <= 0.0:
        return 0.0
    box = min(span, 128.0)

    def admissible(r1, r2):
        mu = float(_numpy_scalar_outer_mu(e1, e2, r1, r2))
        return min(mu, rate1 - r1 + i_y_x2, rate2 - r2 + mu, span - r1 - r2)

    def best_over_r2(r1):
        return golden_max(lambda r2: admissible(r1, r2), 0.0, box, 1e-11)[1]

    return max(0.0, golden_max(best_over_r2, 0.0, box, 1e-11)[1])


def _oracle_outer_point(m, r1, r2):
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    mu = float(_numpy_scalar_outer_mu(e1, e2, r1, r2))
    return (max(0.0, r1 - m.i_y_x2() + mu), max(0.0, r2 - mu + mu), r1 + r2 + mu, mu)


# Explicit ids: the cases named "rhos<i>-..." keep the names the suite
# printed for them while each row also held keyword settings of the outer
# bound.

# repr values of the numpy-scalar implementation; (rho_x1y, rho_x2y), rates
FROZEN_FRONTIER = [
    pytest.param((0.8, 0.6), 0.5, 0.5, 0.4433599544966398,
                 id="rhos0-0.5-0.5-kw0-0.4433599544966398"),
    pytest.param((0.8, 0.6), 1.0, 0.25, 0.5398349248133129,
                 id="rhos1-1.0-0.25-kw1-0.5398349248133129"),
    pytest.param((0.8, 0.6), 0.0, 1.5, 0.29780369867576684,
                 id="rhos2-0.0-1.5-kw2-0.29780369867576684"),
    pytest.param((0.8, 0.6), 2.0, 0.0, 0.6609640474409202,
                 id="rhos3-2.0-0.0-kw3-0.6609640474409202"),
    pytest.param((0.8, 0.6), 50.0, 50.0, 0.8699840411638579,
                 id="rhos4-50.0-50.0-kw4-0.8699840411638579"),
    # two of 4,000 points drawn as in _random_x1yx2_case from
    # default_rng(20240917) (the 594th and 770th) whose last digit
    # math.log2 would move
    pytest.param((-0.4863823928533405, 0.539765264369458), 0.9042769129917232, 0.0,
                 0.1335686015124354, id="log2-a"),
    pytest.param((0.7239948085391402, 0.2823167718854438), 0.06023572373493158,
                 1.7828588913292567, 0.08698477822154926, id="log2-b"),
]

# (R1_min, R2_min, sum_min, mu_max)
FROZEN_POINT = [
    pytest.param((0.8, 0.6), 0.0, 0.0, (0.0, 0.0, 0.0, 0.0),
                 id="rhos0-0.0-0.0-kw0-expected0"),
    pytest.param((0.8, 0.6), 0.1, 0.8,
                 (0.12029122234413389, 0.8, 1.2422193172314961, 0.34221931723149623),
                 id="rhos1-0.1-0.8-kw1-expected1"),
    pytest.param((0.8, 0.6), 2.0, 2.0,
                 (2.515756414030861, 2.0, 4.837684508918223, 0.8376845089182231),
                 id="rhos3-2.0-2.0-kw3-expected3"),
    pytest.param((0.8, 0.6), 64.0, 64.0,
                 (64.5480559462765, 64.0, 128.86998404116386, 0.869984041163865),
                 id="rhos5-64.0-64.0-kw5-expected5"),
    # R2_min = max(0, r2 - mu + mu) is not r2 here
    pytest.param((0.8, 0.6), 1.65, 0.08,
                 (2.0327879149266392, 0.07999999999999996, 2.4347160098140015,
                  0.7047160098140015), id="r2-rounds"),
    pytest.param((-0.3, 0.9), 0.6, 0.0, (0.0, 0.0, 0.6392037407315205, 0.039203740731520595),
                 id="clamped"),
]


@pytest.mark.parametrize("rhos, rate1, rate2, expected", FROZEN_FRONTIER)
def test_outer_frontier_frozen(rhos, rate1, rate2, expected):
    m = GaussianCdibModel.chain_x1_y_x2(*rhos)
    assert cdib_x1yx2_outer_frontier(m, rate1, rate2) == expected


@pytest.mark.parametrize("rhos, r1, r2, expected", FROZEN_POINT)
def test_outer_point_frozen(rhos, r1, r2, expected):
    pt = cdib_x1yx2_outer_point(GaussianCdibModel.chain_x1_y_x2(*rhos), r1, r2)
    assert (pt.R1_min, pt.R2_min, pt.sum_min, pt.mu_max) == expected


def _random_x1yx2_case(rng):
    rho_x1y = float(rng.uniform(0.05, 0.97)) * (1.0 if rng.random() < 0.8 else -1.0)
    m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, float(rng.uniform(0.05, 0.97)))
    rate1 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.9 else 0.0
    rate2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.9 else 0.0
    return m, rate1, rate2


def test_outer_frontier_equals_numpy_scalar_oracle():
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        m, rate1, rate2 = _random_x1yx2_case(rng)
        assert cdib_x1yx2_outer_frontier(m, rate1, rate2) == \
            _oracle_outer_frontier(m, rate1, rate2)


correlation = st.floats(0.05, 0.95) | st.floats(-0.95, -0.05)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(correlation, correlation, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_outer_frontier_equals_oracle_on_drawn_chains(rho_x1y, rho_x2y, rate1, rate2):
    m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, rho_x2y)
    got = cdib_x1yx2_outer_frontier(m, rate1, rate2)
    assert got == _oracle_outer_frontier(m, rate1, rate2)


# the written-out inner search, and the outer golden_max over it, against
# golden_max on the objective's reference copy, off the [0, 3] rates the
# oracle tests draw from: the same result and the same log arguments in the
# same order, so each inline evaluation is pinned, not only the comparisons
# that steer the searches
EDGE_RATES = [(20.0, 0.0), (0.0, 20.0), (128.1, 128.1), (5e4, 5e4), (1e300, 1e300),
              (math.inf, 1.0), (1.0, math.inf), (5e-324, 5e-324)]


@pytest.mark.parametrize("rhos", [(0.8, 0.6), (-0.5, 0.5), (0.999999, 0.999999),
                                  (0.8, 0.9999999999999999)])
@pytest.mark.parametrize("rates", EDGE_RATES)
def test_outer_inner_search_equals_golden_max(rhos, rates, monkeypatch):
    m = GaussianCdibModel.chain_x1_y_x2(*rhos)
    rate1, rate2 = rates
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    span = rate1 + rate2
    box = min(span, 128.0)

    # the stand-ins for skipped evaluations, valid where every log argument
    # is positive: min(cap, room - r2) in the r2 search, min(cap, room) in
    # the r1 search
    def certified(r1):
        base, k2, _ = ibreg.gaussian._outer_log_terms(e1, e2, r1)
        return base - k2 > 0.0

    def reference(r1):
        cap, room = rate1 - r1 + m.i_y_x2(), span - r1
        objective = ibreg.gaussian._outer_objective(
            *ibreg.gaussian._outer_log_terms(e1, e2, r1), cap, rate2, room)
        sure = certified(r1)
        return golden_max(objective, 0.0, box, 1e-11,
                          bound=lambda r2: min(cap, room - r2) if sure else math.nan)[1]

    def inline(r1):
        return ibreg.gaussian._outer_best_over_r2(
            e1, e2, r1, rate1 - r1 + m.i_y_x2(), rate2, span - r1, box)

    # the r1 search's claims on each r2 search: the closed-form maximum
    # over r2, where its slope guard lets it claim, less lip tol on the
    # lower side and plus the rounding margin on the upper
    base, k2, _ = ibreg.gaussian._outer_log_terms(e1, e2, 0.0)
    lip = max(1.0, k2 / (base - k2)) if base - k2 > 0.0 else math.inf
    margin = ibreg.gaussian._OUTER_MARGIN

    def enclosure(r1):
        g = ibreg.gaussian._outer_fixed_r1_max(
            e1, e2, r1, rate1 - r1 + m.i_y_x2(), rate2, span - r1, box)
        return g - (lip * 1e-11 + margin), g + margin

    def traced(search, r1):
        seen = []
        monkeypatch.setattr(np, "log2", lambda x: seen.append(x.hex()) or log2(x))
        # a log argument that cancels to 0 (rho_x2y one ulp below 1) gives
        # -inf, as in the frontier
        with np.errstate(divide="ignore", invalid="ignore"):
            value = search(r1)
        monkeypatch.setattr(np, "log2", log2)
        return value.hex(), seen

    log2 = np.log2
    for r1 in (0.0, box / 3.0, 0.5 * box, box):
        assert traced(inline, r1) == traced(reference, r1), r1
    # the frontier against golden_max over the nested reference: every log
    # argument of the whole frontier, in order
    outer_bound = (lambda r1: min(rate1 - r1 + m.i_y_x2(), span - r1)) \
        if certified(0.0) else None
    got = traced(lambda _: cdib_x1yx2_outer_frontier(m, rate1, rate2), None)
    want = traced(lambda _: max(0.0, golden_max(reference, 0.0, box, 1e-11,
                                                bound=outer_bound, enclose=enclosure)[1]), None)
    assert got == want
    # the final r2 search evaluates at least three points; on a box no wider
    # than tol, only its first point and the midpoint
    assert len(got[1]) >= (3 if box > 1e-11 else 2)
    # and the value against the r1 search with no claims on it, so that a
    # wrong claim of the closed form, which the reference above shares,
    # cannot pass on these near-unit correlations and edge rates
    free = traced(lambda _: max(0.0, golden_max(reference, 0.0, box, 1e-11)[1]), None)
    assert got[0] == free[0]


@pytest.mark.parametrize("rates", [(0.7, 0.7), (0.0, 2.0), (5e-324, 0.0)] + EDGE_RATES)
def test_outer_r1_search_calls_gaussian_golden_max(rates, monkeypatch):
    # the r1 search is one call of gaussian.golden_max, the name a tracer
    # rebinds, and the origin calls it not at all
    m = GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)
    want = cdib_x1yx2_outer_frontier(m, *rates)
    calls = []

    def counting(*args, **kw):
        calls.append(args[1:])
        assert callable(kw["bound"])   # every log argument is positive on this model
        assert callable(kw["enclose"])
        return golden_max(*args, **kw)

    monkeypatch.setattr(ibreg.gaussian, "golden_max", counting)
    assert cdib_x1yx2_outer_frontier(m, *rates).hex() == want.hex()
    assert calls == [(0.0, min(sum(rates), 128.0), 1e-11)]
    assert cdib_x1yx2_outer_frontier(m, 0.0, 0.0) == 0.0
    assert len(calls) == 1


def _scanned_r2_max(objective, box):
    # the objective's largest value on [0, box] with no closed form: a
    # 257-point scan, then a golden section on the two cells around its
    # best point, which hold the maximiser of the concave objective
    xs = [box * k / 256.0 for k in range(257)]
    k = max(range(257), key=lambda i: objective(xs[i]))
    lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, 256)]
    return max(objective(xs[k]), golden_max(objective, lo, hi, 1e-14)[1])


def _closed_form_cases(seed, n):
    # (e1, e2, r1, cap, rate2, room, box) as the frontier forms them: seeded
    # chains, from weak to near-unit correlations, rates 0, 1e-300, drawn
    # and unlimited, and r1 across [0, box]
    rng = np.random.default_rng(seed)
    rates = [0.0, 1e-300, math.inf]
    for _ in range(n):
        rhos = [float(rng.uniform(0.05, 0.99)) if rng.random() < 0.5
                else 1.0 - 10.0 ** float(rng.uniform(-7.0, -1.0)) for _ in range(2)]
        m = GaussianCdibModel.chain_x1_y_x2(*rhos)
        rate1, rate2 = (rates[int(rng.integers(3))] if rng.random() < 0.3
                        else float(rng.uniform(0.0, 3.0)) for _ in range(2))
        span = rate1 + rate2
        box = min(span, 128.0)
        for r1 in (0.0, 0.25 * box, 0.5 * box, float(rng.uniform(0.0, box)), 0.95 * box, box):
            yield (m.rho_x1y ** 2, m.rho_x2y ** 2, r1, rate1 - r1 + m.i_y_x2(), rate2,
                   span - r1, box)


def test_outer_closed_form_is_the_r2_maximum():
    # wherever the closed form makes a claim it is the objective's maximum
    # over r2, found here by a scan and a golden section alone: each of its
    # candidates is the maximiser somewhere in this set
    claimed = 0
    for e1, e2, r1, cap, rate2, room, box in _closed_form_cases(20240917, 400):
        g = ibreg.gaussian._outer_fixed_r1_max(e1, e2, r1, cap, rate2, room, box)
        if math.isnan(g):
            continue
        objective = ibreg.gaussian._outer_objective(
            *ibreg.gaussian._outer_log_terms(e1, e2, r1), cap, rate2, room)
        want = _scanned_r2_max(objective, box)
        assert abs(g - want) <= 1e-12, (e1, e2, r1, cap, rate2, room, box, g, want)
        claimed += 1
    assert claimed >= 1000


def test_outer_closed_form_claims_only_inside_the_slope_guard():
    # no claim where mu is flat in r2 (k2 = 0: rho_x2y^2 underflows) or
    # steeper than 20: at r1 = 0 on chain (0.5, 0.999999999999), whose r2
    # search runs 0.020 low at rates (0.01, 1), and one ulp below 1
    for rhos in [(0.8, 1e-200), (0.5, 0.999999999999), (0.8, 0.9999999999999999)]:
        m = GaussianCdibModel.chain_x1_y_x2(*rhos)
        e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
        assert math.isnan(ibreg.gaussian._outer_fixed_r1_max(
            e1, e2, 0.0, 1.0 + m.i_y_x2(), 1.0, 2.0, 2.0))


def test_outer_r2_search_within_the_claims_of_the_closed_form():
    # the r1 search takes (g - lip tol - margin, g + margin) as its claims on
    # each r2 search, g the closed-form maximum and lip = max(1, k2 / (base
    # - k2)) at r1 = 0 the objective's steepest slope in r2.  The search,
    # whose final r2 lies within tol / 2 of a maximiser, is never more than
    # a rounding error above g and at most lip tol / 2 below it, |rho| up to
    # one ulp below 1 and rates up to unlimited.  The lower gap reaches 0.96
    # of lip tol / 2, at chain (0.3, 0.3), rates (0.7, 0.01), r1 = 0.71, and
    # 0.99 of the slope bound at r1 itself, at chain (0.999999, 0.99), rates
    # (2.5, 2.5), r1 = 0.5: a lower claim of g - lip tol / 4 fails this sweep
    margin, tol = ibreg.gaussian._OUTER_MARGIN, ibreg.gaussian._OUTER_TOL
    rhos = [0.3, -0.8, 0.95, 0.99, 0.999, 0.999999, 1.0 - 1e-12, 0.9999999999999999]
    rates = [0.0, 1e-300, 1e-17, 0.01, 0.3, 0.7, 1.6, 2.5, 20.0, 128.1, 1e300, math.inf]
    above, below, claimed = -math.inf, 0.0, 0
    for rho_x1y in rhos:
        for rho_x2y in rhos:
            m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, abs(rho_x2y))
            e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
            base, k2, _ = ibreg.gaussian._outer_log_terms(e1, e2, 0.0)
            lip = max(1.0, k2 / (base - k2)) if base - k2 > 0.0 else math.inf
            for rate1 in rates:
                for rate2 in rates:
                    span = rate1 + rate2
                    box = min(span, 128.0)
                    for r1 in (0.0, 0.1 * box, 0.4 * box, 0.7 * box, box):
                        args = (e1, e2, r1, rate1 - r1 + m.i_y_x2(), rate2, span - r1, box)
                        g = ibreg.gaussian._outer_fixed_r1_max(*args)
                        if not math.isnan(g):
                            gap = ibreg.gaussian._outer_best_over_r2(*args) - g
                            above = max(above, gap)
                            below = max(below, -gap / (lip * tol / 2.0))
                            claimed += 1
    assert above <= margin / 100.0, above
    assert below <= 1.0, below
    assert below > 0.5, below   # the claim's 2x headroom is needed, not slack
    assert claimed >= 25_000


def _zoom_grid_reference(g, k):
    w = (g[-1] - g[0]) / 8.0
    return np.linspace(g[k] - w, g[k] + w, 33)


def test_inner_zoom_grid_equals_linspace_bytes(monkeypatch):
    # seeded grids across [-13, 13] whose half-widths run from 26 / 8 down
    # to 26 / 8 / 4^5, below the last zoom's
    rng = np.random.default_rng(20240917)
    for _ in range(3000):
        width = 26.0 / 4.0 ** rng.uniform(0.0, 5.0)
        lo = rng.uniform(-13.0, 13.0 - width)
        g = np.sort(np.r_[lo, rng.uniform(lo, lo + width, 31), lo + width])
        k = int(rng.integers(0, 33))
        assert ibreg.gaussian._zoom_grid(g, k).tobytes() == \
            _zoom_grid_reference(g, k).tobytes(), (g[0], g[-1], k)
    # and every zoom of the fig-4 inner curve, on the grids it meets
    seen = []
    zoom = ibreg.gaussian._zoom_grid

    def traced(g, k):
        y = zoom(g, k)
        seen.append(y.tobytes() == _zoom_grid_reference(g, k).tobytes())
        return y

    monkeypatch.setattr(ibreg.gaussian, "_zoom_grid", traced)
    m = GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)
    for rate in np.linspace(0.0, 2.5, 51):
        cdib_x1yx2_inner(m, rate, rate)
    assert len(seen) == 51 * 10 and all(seen)


def _bounded_log2(monkeypatch, limit=50_000):
    # np.log2, which each of the frontier's searches looks up when it starts,
    # raising after ``limit`` calls: every step of either search takes one,
    # so a search that would never end fails instead of hanging the test run
    calls = [0]
    log2 = np.log2

    def counted(x):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError("golden section did not stop")
        return log2(x)

    monkeypatch.setattr(np, "log2", counted)
    return calls


# the ids are the names these cases had while the test also ran the
# outer bound's r2-free reading
@pytest.mark.parametrize("rate", [5e4, 1e5, 1e6], ids=lambda rate: f"True-{rate}")
def test_outer_frontier_ends_at_large_rates(chain_b, monkeypatch, rate):
    # from 1e5 up the float spacing near the maximiser exceeded tol = 1e-11
    # while the search box spanned R1 + R2, and the golden sections never
    # ended
    calls = _bounded_log2(monkeypatch)
    got = cdib_x1yx2_outer_frontier(chain_b, rate, rate)
    assert calls[0] > 0   # the bound reached the searches
    assert got == pytest.approx(chain_b.i_y_x1x2(), abs=1e-9)


def test_outer_frontier_log2_calls_on_the_fig4_grid(chain_b, monkeypatch):
    # the searches evaluate only where the cap and room bounds leave the
    # next comparison open: 165,360 np.log2 calls over fig 4's 51 points
    # when every step evaluated, 89,150 with the bounds on each step's new
    # point, 85,549 with them on the first d as well.  The r1 search runs
    # an r2 search only where the closed-form maximum over r2 leaves its
    # comparison open too: 2,034 r2 searches and 85,549 calls before,
    # 734 and 31,227 with it.  No search evaluates its last step's new
    # point, which no comparison reads: 30,714 calls.  The closed form's
    # claims take the r2 search's own tolerance and slope, g - lip tol
    # below and a rounding margin above, instead of g +- 1e-9: 309
    # searches and 13,030 calls
    calls = _bounded_log2(monkeypatch, limit=13_100)
    searches = [0]
    search = ibreg.gaussian._outer_best_over_r2

    def counted(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(ibreg.gaussian, "_outer_best_over_r2", counted)
    for rate in np.linspace(0.0, 2.5, 51):
        cdib_x1yx2_outer_frontier(chain_b, float(rate), float(rate))
    assert calls[0] <= 13_100
    assert searches[0] <= 312


def test_outer_frontier_ladder_beyond_saturation(chain_b):
    # with the search box as wide as R1 + R2, float spacing on the plateau
    # moved the frontier off I(Y;X1,X2): 0.869984041157295 at 5e4,
    # 0.8699836730957031 at 1e10 and 0.0 at 1e300
    rates = [20.0, 40.0, 64.0, 100.0, 128.1, 5e4, 1e10, 1e100, 1e300]
    got = [cdib_x1yx2_outer_frontier(chain_b, r, r) for r in rates]
    assert all(a <= b for a, b in zip(got, got[1:])), got
    for rate, value in zip(rates[1:], got[1:]):
        assert abs(value - chain_b.i_y_x1x2()) <= 1e-12, rate


@pytest.mark.parametrize("rates", [(1e308, 1e308), (1.7e308, 1e308)])
def test_outer_frontier_infinite_rate_sum_saturates(chain_b, rates):
    # the sum overflows to inf, an unlimited rate: the frontier reads
    # I(Y;X1,X2) as at 1e300 (it read 0.0 before the sum was rejected)
    got = cdib_x1yx2_outer_frontier(chain_b, *rates)
    assert got == cdib_x1yx2_outer_frontier(chain_b, 1e300, 1e300)
    assert abs(got - chain_b.i_y_x1x2()) <= 1e-12


def test_cli_outer_frontier_large_grid_ends(tmp_path, monkeypatch, capsys):
    # ``ibreg curve outer_frontier --grid 0:1e6:3`` never returned
    calls = _bounded_log2(monkeypatch)
    path = tmp_path / "m.json"
    path.write_text('{"kind": "gaussian-cdib-x1yx2", "rho": {"x1y": 0.8, "x2y": 0.6}}')
    assert main(["curve", "outer_frontier", "--model", str(path), "--grid", "0:1e6:3"]) == 0
    assert calls[0] > 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == ["0", "0.869984041164", "0.869984041164"]


def test_outer_point_equals_numpy_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(400):
        m, r1, r2 = _random_x1yx2_case(rng)
        pt = cdib_x1yx2_outer_point(m, r1, r2)
        assert (pt.R1_min, pt.R2_min, pt.sum_min, pt.mu_max) == _oracle_outer_point(m, r1, r2)
    # the point reads mu through the frontier's objective with an infinite
    # cap, R2 and room: at r2 = inf its R2 term is inf - inf = NaN, which
    # must not replace mu
    ends = (0.0, math.inf, 1e300)
    for _ in range(400):
        m, r1, r2 = _random_x1yx2_case(rng)
        r1, r2 = (ends[k] if k < 3 else r for k, r in zip(rng.integers(0, 4, 2), (r1, r2)))
        pt = cdib_x1yx2_outer_point(m, r1, r2)
        assert (pt.R1_min, pt.R2_min, pt.sum_min, pt.mu_max) == _oracle_outer_point(m, r1, r2)


def test_inner_limits(chain_b):
    assert cdib_x1yx2_inner(chain_b, 0.0, 0.0) <= 1e-9
    assert cdib_x1yx2_inner(chain_b, 0.0, 40.0) == pytest.approx(
        chain_b.i_y_x2(), abs=1e-4)
    assert cdib_x1yx2_inner(chain_b, 40.0, 40.0) == pytest.approx(
        chain_b.i_y_x1x2(), abs=1e-4)
    with pytest.raises(DomainError):
        cdib_x1yx2_inner(chain_b, -1.0, 0.0)


def test_inner_bound_below_i_y_x1x2_near_unit_correlation():
    # det(V1, V2) formed as (1 + s1)(1 + s2) - c12^2 lost its leading digits
    # to cancellation at c12 near 1 and gave 26.3238 > I(Y;X1 X2) = 26.2925
    m = GaussianCdibModel.chain_x1_y_x2(0.9999999999999999, 0.9999999999999998)
    assert cdib_x1yx2_inner(m, 50.0, 50.0) <= m.i_y_x1x2()


def test_inner_conditional_rate_matches_decimal_near_unit_correlation():
    # var(X2 | V1) formed as 1 - c12^2 / (1 + s1) lost its leading digits to
    # cancellation at c12 near 1: I(X2;V2|V1) read 0.5021111988502722 at
    # s1 = s2 = 1e-13, against 0.50239857765728428 from 60 digits
    c12 = 0.9999999999999999 * 0.9999999999999998
    g = np.array([-13.0, -12.0, -10.0])
    i2 = ibreg.gaussian._inner_quantities(0.64, 0.36, c12, g, g)[1]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c, ln2 = decimal.Decimal(c12), decimal.Decimal(2).ln()
        for j, s1 in enumerate(map(decimal.Decimal, 10.0 ** g)):
            for k, s2 in enumerate(map(decimal.Decimal, 10.0 ** g)):
                want = ((1 - c * c / (1 + s1) + s2) / s2).ln() / (2 * ln2)
                assert i2[j, k] == pytest.approx(float(want), rel=1e-15), (j, k)


def test_inner_quantities_match_determinant_oracle(chain_b):
    # dual route: the reduced closed forms against generic log-det evaluation
    sx1 = sx2 = sy = 1.0
    c12 = chain_b.rho_x1x2
    for s1, s2 in ((0.3, 0.7), (2.0, 0.05), (0.01, 4.0)):
        cov = np.zeros((5, 5))
        cov[:3, :3] = correlations(c12, chain_b.rho_x1y, chain_b.rho_x2y)
        cov[3, :3] = cov[:3, 3] = cov[0, :3]
        cov[3, 3] = sx1 + s1
        cov[4, :3] = cov[:3, 4] = cov[1, :3] + cov[0, :3]
        cov[4, 3] = cov[3, 4] = c12 + sx1 + s1
        cov[4, 4] = sx2 + sx1 + s1 + 2 * c12 + s2
        i1 = gaussian_mi(cov, [0], [3], [1])
        i2 = gaussian_mi(cov, [1], [4], [3])
        isum = gaussian_mi(cov, [0, 1], [3, 4])
        mu = gaussian_mi(cov, [2], [3, 4])
        # closed forms as used inside the optimizer
        i1c = 0.5 * math.log2((sx1 * (1 - c12 ** 2) + s1) / s1)
        i2c = 0.5 * math.log2((sx2 - c12 ** 2 / (sx1 + s1) + s2) / s2)
        det_v = (sx1 + s1) * (sx2 + s2) - c12 ** 2
        isumc = 0.5 * math.log2(det_v / (s1 * s2))
        muc = 0.5 * math.log2(det_v / ((sx1 * (1 - 0.64) + s1) * (sx2 * (1 - 0.36) + s2)))
        assert i1 == pytest.approx(i1c, abs=1e-10)
        assert i2 == pytest.approx(i2c, abs=1e-10)
        assert isum == pytest.approx(isumc, abs=1e-10)
        assert mu == pytest.approx(muc, abs=1e-10)


@pytest.mark.parametrize("fun", [cdib_x1yx2_outer_point, cdib_x1yx2_outer_frontier,
                                 cdib_x1yx2_inner])
@pytest.mark.parametrize("rates", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                   (1.0, math.inf), (-math.inf, 1.0)])
def test_x1yx2_rejects_non_finite_rates(chain_b, fun, rates):
    # NaN and -inf used to give 0.0 (outer frontier, inner with NaN) and now
    # raise.  +inf is an unlimited rate: the bounds give their value at 1e300
    # and the outer point its unlimited rate bounds
    if math.inf not in rates:
        with pytest.raises(DomainError):
            fun(chain_b, *rates)
    elif fun is cdib_x1yx2_outer_point:
        pt = fun(chain_b, *rates)
        assert pt.sum_min == math.inf and math.isfinite(pt.mu_max)
    else:
        assert fun(chain_b, *rates) == fun(chain_b, *(min(r, 1e300) for r in rates))


@pytest.mark.parametrize("fun", [cdib_x1yx2_outer_frontier, cdib_x1yx2_inner])
@pytest.mark.parametrize("rates", [(math.inf, math.inf), (1e308, 1e308), (math.inf, 0.0),
                                   (0.0, math.inf)])
def test_x1yx2_unlimited_rate_equals_1e300(chain_b, fun, rates):
    # an infinite rate, or a rate sum that overflows, is an unlimited rate
    # and gives the same double as 1e300 in each inf's place
    assert fun(chain_b, *rates) == fun(chain_b, *(min(r, 1e300) for r in rates))


def test_inner_first_round_kept_for_one_model():
    # the inner bound keeps the first round's grid values of the last model:
    # calls on models A, B, A equal the same calls with nothing kept, and
    # what is kept holds one model, read-only
    a = GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)
    b = GaussianCdibModel.chain_x1_y_x2(-0.3, 0.9)
    calls = [(a, 0.5, 0.5), (a, 0.0, 1.5), (b, 1.0, 0.2), (a, 2.0, 0.0), (a, 0.5, 0.5)]
    fresh = []
    for call in calls:
        ibreg.gaussian._inner_first_round.cache_clear()
        fresh.append(cdib_x1yx2_inner(*call))
    ibreg.gaussian._inner_first_round.cache_clear()
    assert [cdib_x1yx2_inner(*call) for call in calls] == fresh
    info = ibreg.gaussian._inner_first_round.cache_info()
    assert info.maxsize == 1 and info.currsize == 1 and info.hits == 2
    g, values = ibreg.gaussian._inner_first_round(a.rho_x1y ** 2, a.rho_x2y ** 2, a.rho_x1x2)
    assert not any(v.flags.writeable for v in (g, *values))


def test_outer_dominates_inner_small_grid(chain_b):
    for r1 in np.linspace(0.0, 2.0, 6):
        for r2 in np.linspace(0.0, 2.0, 6):
            outer = cdib_x1yx2_outer_frontier(chain_b, r1, r2)
            inner = cdib_x1yx2_inner(chain_b, r1, r2)
            assert outer >= inner - 1e-9


# ---------------------------------------------------------------------------
# determinant-based mutual information oracle
# ---------------------------------------------------------------------------


def test_gaussian_mi_properties(rng):
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        i_ab = gaussian_mi(cov, [0], [1])
        assert i_ab >= 0.0
        assert i_ab == pytest.approx(gaussian_mi(cov, [1], [0]), abs=1e-12)
        # chain rule
        lhs = gaussian_mi(cov, [0], [1, 2])
        rhs = gaussian_mi(cov, [0], [2]) + gaussian_mi(cov, [0], [1], [2])
        assert lhs == pytest.approx(rhs, abs=1e-9)
    with pytest.raises(DegenerateModelError, match="not positive definite"):
        gaussian_mi(np.ones((3, 3)), [0], [1], [2])
    # an empty or repeated index was blamed on the model ("not positive
    # definite"), and an empty a gave 0.0
    cov = correlations(0.5, 0.3, 0.2)
    for args in (([0], [0]), ([0], [1], [0]), ([0, 0], [1]), ([], [1]), ([0], []),
                 ([0], [1], [2, 2])):
        with pytest.raises(ArgumentError, match="nonempty and a, b, c disjoint"):
            gaussian_mi(cov, *args)
    # a non-symmetric matrix gave 0.0 for this I(X0;X1)
    with pytest.raises(ArgumentError, match="symmetric"):
        gaussian_mi([[1.0, 0.5], [0.0, 1.0]], [0], [1])
