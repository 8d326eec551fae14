"""Gaussian regions: coefficients, closed forms, outer/inner bounds.

Frozen constants computed at 50-digit precision from the defining log
expressions.
"""

import math

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
    cov = m.covariance()
    # which=2 side serves the hidden Y1 (index 2)
    assert twcib_relevance_limit(m, 2) == pytest.approx(
        gaussian_mi(cov, [2], [0, 1]), abs=1e-9)
    assert twcib_relevance_limit(m, 1) == pytest.approx(
        gaussian_mi(cov, [3], [0, 1]), abs=1e-9)


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


# ---------------------------------------------------------------------------
# broadcast chain X1 - Y - X2
# ---------------------------------------------------------------------------


@pytest.fixture
def chain_b():
    return GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)


def test_markov_consistency(chain_b):
    assert chain_b.rho_x1x2 == 0.8 * 0.6
    cov = chain_b.covariance()
    # X1 and X2 conditionally uncorrelated given Y
    assert cov[0, 1] - cov[0, 2] * cov[1, 2] / cov[2, 2] == pytest.approx(0.0, abs=1e-15)


def test_outer_point_limits(chain_b):
    p0 = cdib_x1yx2_outer_point(chain_b, 0.0, 0.0)
    assert p0.mu_max == pytest.approx(0.0, abs=1e-12)
    # the 64-bit rate cap leaves 2^-128 residuals, far below every tolerance
    pinf = cdib_x1yx2_outer_point(chain_b, 64.0, 64.0)
    assert pinf.mu_max == pytest.approx(I_YX1X2_0806, abs=1e-9)
    assert pinf.mu_max == pytest.approx(chain_b.i_y_x1x2(), abs=1e-9)
    with pytest.raises(DomainError):
        cdib_x1yx2_outer_point(chain_b, -0.1, 0.0)


def test_outer_point_structure(chain_b):
    for r1, r2 in ((0.1, 0.8), (1.0, 0.3), (2.0, 2.0)):
        pt = cdib_x1yx2_outer_point(chain_b, r1, r2)
        assert pt.sum_min == pytest.approx(r1 + r2 + pt.mu_max, abs=1e-12)
        assert min(pt.R1_min, pt.R2_min, pt.mu_max) >= 0.0
        # default reading: the R2 bound term equals mu_max, so R2_min == r2
        assert pt.R2_min == pytest.approx(r2, abs=1e-12)
        alt = cdib_x1yx2_outer_point(chain_b, r1, r2, r2_term_decays=False)
        assert alt.R2_min >= pt.R2_min - 1e-12
        assert alt.mu_max == pt.mu_max


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


def _oracle_outer_frontier(m, rate1, rate2, r2_term_decays=True, tol=1e-11):
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    i_y_x2 = m.i_y_x2()
    span = rate1 + rate2
    if span <= 0.0:
        return 0.0

    def admissible(r1, r2):
        mu = float(_numpy_scalar_outer_mu(e1, e2, r1, r2))
        l2 = mu if r2_term_decays else float(_numpy_scalar_outer_mu(e1, e2, r1, 0.0))
        return min(mu, rate1 - r1 + i_y_x2, rate2 - r2 + l2, span - r1 - r2)

    def best_over_r2(r1):
        return golden_max(lambda r2: admissible(r1, r2), 0.0, span, tol)[1]

    return max(0.0, golden_max(best_over_r2, 0.0, span, tol)[1])


def _oracle_outer_point(m, r1, r2, r2_term_decays=True):
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    mu = float(_numpy_scalar_outer_mu(e1, e2, r1, r2))
    l2 = mu if r2_term_decays else float(_numpy_scalar_outer_mu(e1, e2, r1, 0.0))
    return (max(0.0, r1 - m.i_y_x2() + mu), max(0.0, r2 - l2 + mu), r1 + r2 + mu, mu)


# repr values of the numpy-scalar implementation; (rho_x1y, rho_x2y), rates, kwargs
FROZEN_FRONTIER = [
    ((0.8, 0.6), 0.5, 0.5, {}, 0.4433599544966398),
    ((0.8, 0.6), 1.0, 0.25, {}, 0.5398349248133129),
    ((0.8, 0.6), 0.0, 1.5, {}, 0.29780369867576684),
    ((0.8, 0.6), 2.0, 0.0, {}, 0.6609640474409202),
    ((0.8, 0.6), 50.0, 50.0, {}, 0.8699840411638579),
    ((0.8, 0.6), 0.7, 1.3, {"r2_term_decays": False}, 0.5793975018337141),
    ((0.8, 0.6), 1.2, 0.4, {"tol": 1e-6}, 0.6109809469358123),
    ((-0.3, 0.9), 0.3, 2.2, {"r2_term_decays": False, "tol": 1e-8}, 1.0733255420187746),
    # two of 500 seeded random points whose last digit math.log2 would move
    ((0.054549277061133494, 0.3816642787877603), 2.3258483991197174, 0.2534810102255938,
     {"r2_term_decays": False}, 0.0338104507898256),
    ((0.09496491268576385, 0.4035299150084481), 2.250390195892012, 0.7472762173278403,
     {"r2_term_decays": False, "tol": 5.733013874964742e-12}, 0.08569163584266176),
]

# (R1_min, R2_min, sum_min, mu_max)
FROZEN_POINT = [
    ((0.8, 0.6), 0.0, 0.0, {}, (0.0, 0.0, 0.0, 0.0)),
    ((0.8, 0.6), 0.1, 0.8, {},
     (0.12029122234413389, 0.8, 1.2422193172314961, 0.34221931723149623)),
    ((0.8, 0.6), 1.0, 0.3, {"r2_term_decays": False},
     (1.3461340988615944, 0.35686598308073264, 1.9680621937489569, 0.6680621937489568)),
    ((0.8, 0.6), 2.0, 2.0, {},
     (2.515756414030861, 2.0, 4.837684508918223, 0.8376845089182231)),
    ((-0.3, 0.9), 0.6, 0.0, {"r2_term_decays": False},
     (0.0, 0.0, 0.6392037407315205, 0.039203740731520595)),
    ((0.8, 0.6), 64.0, 64.0, {},
     (64.5480559462765, 64.0, 128.86998404116386, 0.869984041163865)),
]


@pytest.mark.parametrize("rhos, rate1, rate2, kw, expected", FROZEN_FRONTIER)
def test_outer_frontier_frozen(rhos, rate1, rate2, kw, expected):
    m = GaussianCdibModel.chain_x1_y_x2(*rhos)
    assert cdib_x1yx2_outer_frontier(m, rate1, rate2, **kw) == expected


@pytest.mark.parametrize("rhos, r1, r2, kw, expected", FROZEN_POINT)
def test_outer_point_frozen(rhos, r1, r2, kw, expected):
    pt = cdib_x1yx2_outer_point(GaussianCdibModel.chain_x1_y_x2(*rhos), r1, r2, **kw)
    assert (pt.R1_min, pt.R2_min, pt.sum_min, pt.mu_max) == expected


def _random_x1yx2_case(rng):
    rho_x1y = float(rng.uniform(0.05, 0.97)) * (1.0 if rng.random() < 0.8 else -1.0)
    m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, float(rng.uniform(0.05, 0.97)))
    rate1 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.9 else 0.0
    rate2 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.9 else 0.0
    return m, rate1, rate2, bool(rng.random() < 0.5)


def test_outer_frontier_equals_numpy_scalar_oracle():
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        m, rate1, rate2, decays = _random_x1yx2_case(rng)
        tol = float(10.0 ** rng.uniform(-11.0, -7.0)) if rng.random() < 0.3 else 1e-11
        got = cdib_x1yx2_outer_frontier(m, rate1, rate2, r2_term_decays=decays, tol=tol)
        assert got == _oracle_outer_frontier(m, rate1, rate2, decays, tol)


correlation = st.floats(0.05, 0.95) | st.floats(-0.95, -0.05)


@pytest.mark.parametrize("decays", [True, False])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(correlation, correlation, st.floats(0.0, 3.0), st.floats(0.0, 3.0),
       st.sampled_from([1e-11, 1e-6]))
def test_outer_frontier_equals_oracle_on_drawn_chains(decays, rho_x1y, rho_x2y,
                                                      rate1, rate2, tol):
    m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, rho_x2y)
    got = cdib_x1yx2_outer_frontier(m, rate1, rate2, r2_term_decays=decays, tol=tol)
    assert got == _oracle_outer_frontier(m, rate1, rate2, decays, tol)


def _bounded_golden(limit=5_000):
    # golden_max whose objective raises after ``limit`` evaluations, so that a
    # search that would never end fails instead of hanging the test run
    def golden(fun, lo, hi, tol):
        calls = [0]

        def counted(x):
            calls[0] += 1
            if calls[0] > limit:
                raise RuntimeError("golden section did not stop")
            return fun(x)

        return golden_max(counted, lo, hi, tol)

    return golden


@pytest.mark.parametrize("rate", [5e4, 1e5, 1e6])
@pytest.mark.parametrize("decays", [True, False])
def test_outer_frontier_ends_at_large_rates(chain_b, monkeypatch, rate, decays):
    # from 1e5 up the float spacing near the maximiser exceeds tol = 1e-11,
    # and the golden sections never ended
    monkeypatch.setattr(ibreg.gaussian, "golden_max", _bounded_golden())
    got = cdib_x1yx2_outer_frontier(chain_b, rate, rate, r2_term_decays=decays)
    assert got == pytest.approx(chain_b.i_y_x1x2(), abs=1e-9)


@pytest.mark.parametrize("rates", [(1e308, 1e308), (1.7e308, 1e308)])
def test_outer_frontier_rejects_infinite_rate_sum(chain_b, rates):
    # the sum overflowed to inf and the frontier read 0.0
    with pytest.raises(DomainError, match="finite sum"):
        cdib_x1yx2_outer_frontier(chain_b, *rates)


def test_cli_outer_frontier_large_grid_ends(tmp_path, monkeypatch, capsys):
    # ``ibreg curve outer_frontier --grid 0:1e6:3`` never returned
    monkeypatch.setattr(ibreg.gaussian, "golden_max", _bounded_golden())
    path = tmp_path / "m.json"
    path.write_text('{"kind": "gaussian-cdib-x1yx2", "rho": {"x1y": 0.8, "x2y": 0.6}}')
    assert main(["curve", "outer_frontier", "--model", str(path), "--grid", "0:1e6:3"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == ["0", "0.869984041164", "0.869984041164"]


def test_outer_point_equals_numpy_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(400):
        m, r1, r2, decays = _random_x1yx2_case(rng)
        pt = cdib_x1yx2_outer_point(m, r1, r2, r2_term_decays=decays)
        assert (pt.R1_min, pt.R2_min, pt.sum_min, pt.mu_max) == \
            _oracle_outer_point(m, r1, r2, decays)


def test_inner_limits(chain_b):
    assert cdib_x1yx2_inner(chain_b, 0.0, 0.0) <= 1e-9
    assert cdib_x1yx2_inner(chain_b, 0.0, 40.0) == pytest.approx(
        chain_b.i_y_x2(), abs=1e-4)
    assert cdib_x1yx2_inner(chain_b, 40.0, 40.0) == pytest.approx(
        chain_b.i_y_x1x2(), abs=1e-4)
    with pytest.raises(DomainError):
        cdib_x1yx2_inner(chain_b, -1.0, 0.0)


def test_inner_is_scale_free(chain_b):
    # mutual information does not see the variances, and neither does the
    # inner bound, whose noise variances are searched relative to those of
    # X1 and X2.  Searched absolutely, all variances at 1e16 gave 0 at
    # R = 2.5 (unit model 0.8386) and at 1e-16 gave 0.8155 at R = 10
    # (unit model 0.86998)
    rates = ((0.0, 0.0), (0.5, 1.5), (2.5, 2.5), (10.0, 10.0), (4.0, 0.25))
    unit = [cdib_x1yx2_inner(chain_b, r1, r2) for r1, r2 in rates]
    assert unit[2] > 0.83
    for k in range(-30, 31):
        for scales in ((k, k, k), (k, -k, (7 * k) % 61 - 30)):
            sigmas = {f"sigma_{n}_sq": 10.0 ** e for n, e in zip(("x1", "x2", "y"), scales)}
            m = GaussianCdibModel.chain_x1_y_x2(0.8, 0.6, **sigmas)
            assert [cdib_x1yx2_inner(m, r1, r2) for r1, r2 in rates] == unit, scales


def test_inner_quantities_match_determinant_oracle(chain_b):
    # dual route: the reduced closed forms against generic log-det evaluation
    sx1 = sx2 = sy = 1.0
    c12 = chain_b.rho_x1x2
    for s1, s2 in ((0.3, 0.7), (2.0, 0.05), (0.01, 4.0)):
        cov = np.zeros((5, 5))
        cov[:3, :3] = chain_b.covariance()
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
    # NaN and infinite rates used to give 0.0 (outer frontier, inner with NaN)
    # or an unbounded point; every one now raises
    with pytest.raises(DomainError):
        fun(chain_b, *rates)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_outer_frontier_rejects_bad_tol(chain_b, tol):
    # tol=nan gave 0.0 instead of 0.6403281992393299 at (1, 1) and tol=0
    # never returned.  At (0, 0) no golden section runs, so only the
    # frontier's own check can raise; it comes first, so that a frontier
    # without that check fails there instead of searching with tol=0
    for rates in ((0.0, 0.0), (1.0, 1.0)):
        with pytest.raises(ArgumentError):
            cdib_x1yx2_outer_frontier(chain_b, *rates, tol=tol)


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
