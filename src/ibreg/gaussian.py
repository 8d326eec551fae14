"""Closed-form Gaussian complexity-relevance regions.

Three source models:

- the two-way model (four jointly Gaussian variables ``X1, X2, Y1, Y2``)
  whose region is exact and one-round achievable with additive-noise test
  channels ``V = X + P``;
- the broadcast model with chain ``X1 - X2 - Y`` (exact region, separable in
  the two rates);
- the broadcast model with chain ``X1 - Y - X2`` (outer bound parametrised
  by auxiliary rates ``r1, r2``, plus the additive inner bound
  ``V1 = X1 + P1``, ``V2 = X2 + V1 + P2``).

Every mutual information here is a log-ratio of covariance determinants.
The generic determinant evaluator :func:`gaussian_mi` is the test oracle;
the region functions use algebraically reduced determinant ratios which stay
accurate for noise variances across many orders of magnitude.

Argument rule: every guard is written ``not lo <= x`` (or ``not lo <= x <
hi``), so NaN raises ``DomainError`` and never reaches the arithmetic.  An
infinite rate saturates in the X1 - X2 - Y closed forms, where ``2^(-inf)``
is the exact limit, and is rejected by the X1 - Y - X2 bounds, whose search
box it would make unbounded.  An infinite relevance is at or above every
validity limit and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log2, sqrt

import numpy as np

from .errors import DegenerateModelError, DomainError
from .optimize import _check_tol, golden_max

__all__ = [
    "GaussianTwcibModel",
    "GaussianCdibModel",
    "OuterBoundPoint",
    "gaussian_mi",
    "twcib_coefficients",
    "twcib_relevance_limit",
    "twcib_rate_for_relevance",
    "twcib_test_channel_variances",
    "twcib_point_for_variances",
    "cdib_x1x2y_mu",
    "cdib_x1x2y_r2",
    "cdib_x1x2y_critical_r1",
    "cdib_x1yx2_outer_point",
    "cdib_x1yx2_outer_frontier",
    "cdib_x1yx2_inner",
]


def _check_var(name: str, v: float) -> float:
    v = float(v)
    if not (isfinite(v) and v > 0.0):
        raise DomainError(f"{name}={v!r} must be a positive finite variance")
    return v


def _check_rho(name: str, v: float, allow_zero: bool = True) -> float:
    v = float(v)
    if not isfinite(v) or abs(v) >= 1.0 or (not allow_zero and v == 0.0):
        lo = "|rho| < 1" if allow_zero else "0 < |rho| < 1"
        raise DomainError(f"{name}={v!r} must satisfy {lo}")
    return v


def gaussian_mi(cov: np.ndarray, a, b, c=()) -> float:
    """I(A;B|C) in bits for jointly Gaussian variables with covariance ``cov``.

    ``a``, ``b``, ``c`` are disjoint index lists into ``cov``.  Computed as
    the log-det ratio  0.5 * log2( |S_AC| |S_BC| / (|S_ABC| |S_C|) ).
    """
    a, b, c = list(a), list(b), list(c)

    def ld(idx):
        if not idx:
            return 0.0
        sub = np.asarray(cov)[np.ix_(idx, idx)]
        sign, val = np.linalg.slogdet(sub)
        if sign <= 0:
            raise DegenerateModelError(f"covariance submatrix {idx} not positive definite")
        return val / np.log(2.0)

    v = 0.5 * (ld(a + c) + ld(b + c) - ld(a + b + c) - ld(c))
    return 0.0 if -1e-10 < v < 0.0 else v


# ---------------------------------------------------------------------------
# two-way model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTwcibModel:
    """Correlation structure of the two-way Gaussian source.

    ``Y1`` couples to the pair through ``rho_x1y1, rho_x2y1`` and ``Y2``
    through ``rho_x2y2, rho_x1y2``.  The derived quantities ``beta`` and
    ``delta`` (the 3x3 correlation determinants of ``(X1, X2, Y1)`` and
    ``(X1, X2, Y2)``) must be strictly positive.
    """

    rho_x1x2: float
    rho_x1y1: float
    rho_x2y1: float
    rho_x2y2: float
    rho_x1y2: float
    sigma_x1_sq: float = 1.0
    sigma_x2_sq: float = 1.0
    sigma_y1_sq: float = 1.0
    sigma_y2_sq: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rho_x1x2", "rho_x1y1", "rho_x2y1", "rho_x2y2", "rho_x1y2"):
            object.__setattr__(self, name, _check_rho(name, getattr(self, name)))
        for name in ("sigma_x1_sq", "sigma_x2_sq", "sigma_y1_sq", "sigma_y2_sq"):
            object.__setattr__(self, name, _check_var(name, getattr(self, name)))
        if self.beta <= 0.0:
            raise DegenerateModelError(f"beta={self.beta!r} must be positive")
        if self.delta <= 0.0:
            raise DegenerateModelError(f"delta={self.delta!r} must be positive")
        evals = np.linalg.eigvalsh(self.covariance())
        if evals.min() < -1e-10:
            raise DegenerateModelError(
                f"implied covariance not PSD (min eigenvalue {evals.min()!r})")

    @property
    def beta(self) -> float:
        a, b, c = self.rho_x1x2, self.rho_x1y1, self.rho_x2y1
        return 1.0 - a * a - b * b - c * c + 2.0 * a * b * c

    @property
    def delta(self) -> float:
        a, b, c = self.rho_x1x2, self.rho_x2y2, self.rho_x1y2
        return 1.0 - a * a - b * b - c * c + 2.0 * a * c * b

    def covariance(self) -> np.ndarray:
        """4x4 covariance of (X1, X2, Y1, Y2); the Y-noises are independent,
        which fixes the one coefficient the model leaves free."""
        sx1, sx2 = sqrt(self.sigma_x1_sq), sqrt(self.sigma_x2_sq)
        sy1, sy2 = sqrt(self.sigma_y1_sq), sqrt(self.sigma_y2_sq)
        r = self.rho_x1x2
        den = 1.0 - r * r
        a11 = (sy1 / sx1) * (self.rho_x1y1 - self.rho_x2y1 * r) / den
        a12 = (sy1 / sx2) * (self.rho_x2y1 - self.rho_x1y1 * r) / den
        a21 = (sy2 / sx1) * (self.rho_x1y2 - self.rho_x2y2 * r) / den
        a22 = (sy2 / sx2) * (self.rho_x2y2 - self.rho_x1y2 * r) / den
        sigx = np.array([[sx1 * sx1, r * sx1 * sx2], [r * sx1 * sx2, sx2 * sx2]])
        cov_y1y2 = float(np.array([a11, a12]) @ sigx @ np.array([a21, a22]))
        c = np.empty((4, 4))
        c[:2, :2] = sigx
        c[0, 2] = c[2, 0] = self.rho_x1y1 * sx1 * sy1
        c[1, 2] = c[2, 1] = self.rho_x2y1 * sx2 * sy1
        c[0, 3] = c[3, 0] = self.rho_x1y2 * sx1 * sy2
        c[1, 3] = c[3, 1] = self.rho_x2y2 * sx2 * sy2
        c[2, 2] = sy1 * sy1
        c[3, 3] = sy2 * sy2
        c[2, 3] = c[3, 2] = cov_y1y2
        return c


def twcib_coefficients(m: GaussianTwcibModel) -> dict:
    """Regression coefficients and noise variances of the two-way model."""
    # the model's __post_init__ guarantees beta, delta > 0
    beta, delta = m.beta, m.delta
    den = 1.0 - m.rho_x1x2 ** 2
    return {
        "a12": sqrt(m.sigma_y1_sq / m.sigma_x2_sq)
               * (m.rho_x2y1 - m.rho_x1y1 * m.rho_x1x2) / den,
        "a21": sqrt(m.sigma_y2_sq / m.sigma_x1_sq)
               * (m.rho_x1y2 - m.rho_x2y2 * m.rho_x1x2) / den,
        "sigma_z1_sq": m.sigma_y1_sq * beta / den,
        "sigma_z2_sq": m.sigma_y2_sq * delta / den,
        "beta": beta,
        "delta": delta,
    }


def _twcib_side(m: GaussianTwcibModel, which: int) -> tuple[float, float, float]:
    """(det3, own_rho, sigma_x_sq_of_described) for a rate side.

    ``which=1`` is the rate R1 as a function of mu2 (encoder 1 describes X1
    for the hidden Y2); ``which=2`` is R2 as a function of mu1.
    """
    if which == 1:
        return m.delta, m.rho_x2y2, m.sigma_x1_sq
    if which == 2:
        return m.beta, m.rho_x1y1, m.sigma_x2_sq
    raise DomainError(f"which must be 1 or 2, got {which!r}")


def _check_mu(mu: float, limit: float, what: str) -> float:
    # relevance in [0, limit); ``what`` names the limit in the message
    mu = float(mu)
    if not 0.0 <= mu:
        raise DomainError(f"mu must be nonnegative, got {mu!r}")
    if mu >= limit:
        raise DomainError(f"mu={mu!r} at or above {what}{limit!r}")
    return mu


def twcib_relevance_limit(m: GaussianTwcibModel, which: int) -> float:
    """Supremum of achievable relevance: (1/2) log2((1 - rho_x1x2^2)/d)."""
    d, _, _ = _twcib_side(m, which)
    return 0.5 * log2((1.0 - m.rho_x1x2 ** 2) / d)


def twcib_rate_for_relevance(m: GaussianTwcibModel, which: int, mu: float) -> float:
    """Minimum rate sustaining relevance ``mu`` at the opposite decoder.

    Monotone increasing in ``mu`` and diverging at
    ``twcib_relevance_limit(m, which)``; raises ``DomainError`` (carrying the
    limit in its message) at or above the limit.
    """
    d, other_rho, _ = _twcib_side(m, which)
    mu = _check_mu(mu, twcib_relevance_limit(m, which), "the validity limit ")
    one_m_r2 = 1.0 - m.rho_x1x2 ** 2
    num = one_m_r2 * (1.0 - other_rho ** 2) - d
    den = 2.0 ** (-2.0 * mu) * one_m_r2 - d
    return max(0.0, 0.5 * log2(num / den))


def twcib_test_channel_variances(m: GaussianTwcibModel, mu1: float, mu2: float) -> dict:
    """Additive-noise variances for V1 = X1 + P1 and V2 = X2 + P2.

    Derived by inverting the relevance constraint (the printed displays carry
    an apparent typo in the denominator, cf. the round-trip tests): with
    ``E = 2^(-2 mu)``,

        k = (E - (1 - rho_other^2)) / (E rho_x1x2^2 - (1 - rho_other^2) + d)
        sigma_p^2 = sigma_x^2 (1 - k) / k

    ``k`` hits 1 exactly at the relevance limit (sigma_p -> 0) and 0 at the
    side-information-only relevance (sigma_p -> inf); below that the
    description is useless and ``inf`` is returned.
    """
    out = {}
    for key, which, mu in (("sigma_p1_sq", 1, mu2), ("sigma_p2_sq", 2, mu1)):
        d, other_rho, sx_sq = _twcib_side(m, which)
        mu = _check_mu(mu, twcib_relevance_limit(m, which), "the validity limit ")
        c2 = other_rho ** 2
        if mu <= -0.5 * log2(1.0 - c2) + 1e-15:
            # side information alone already delivers mu: useless description
            out[key] = inf
            continue
        e = 2.0 ** (-2.0 * mu)
        k = (e - (1.0 - c2)) / (e * m.rho_x1x2 ** 2 - (1.0 - c2) + d)
        out[key] = sx_sq * (1.0 - k) / k if 0.0 < k <= 1.0 else 0.0
    return out


def twcib_point_for_variances(m: GaussianTwcibModel, sigma_p1_sq: float,
                              sigma_p2_sq: float) -> dict:
    """Rates and relevances achieved by V1 = X1 + P1, V2 = X2 + P2.

    Evaluated with the generic determinant oracle on the 6-variable
    covariance; serves as the independent round-trip check of the closed
    forms.
    """
    s1 = _check_var("sigma_p1_sq", sigma_p1_sq)
    s2 = _check_var("sigma_p2_sq", sigma_p2_sq)
    base = m.covariance()
    c = np.zeros((6, 6))
    c[:4, :4] = base
    # v1 = x1 + p1 at index 4, v2 = x2 + p2 at index 5
    c[4, :4] = c[:4, 4] = base[0, :4]
    c[5, :4] = c[:4, 5] = base[1, :4]
    c[4, 4] = base[0, 0] + s1
    c[5, 5] = base[1, 1] + s2
    c[4, 5] = c[5, 4] = base[0, 1]
    x1, x2, y1, y2, v1, v2 = range(6)
    return {
        "R1": gaussian_mi(c, [x1], [v1, v2], [x2]),
        "R2": gaussian_mi(c, [x2], [v1, v2], [x1]),
        "mu1": gaussian_mi(c, [y1], [v1, v2, x1]),
        "mu2": gaussian_mi(c, [y2], [v1, v2, x2]),
    }


# ---------------------------------------------------------------------------
# broadcast models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianCdibModel:
    """Gaussian broadcast source with one of two Markov chains.

    Use :meth:`chain_x1_x2_y` (provide ``rho_x1x2`` and ``rho_x2y``) or
    :meth:`chain_x1_y_x2` (provide ``rho_x1y`` and ``rho_x2y``); the chain
    fixes the remaining pairwise correlation.
    """

    chain: str
    rho_x1x2: float = 0.0
    rho_x2y: float = 0.0
    rho_x1y: float = 0.0
    sigma_x1_sq: float = 1.0
    sigma_x2_sq: float = 1.0
    sigma_y_sq: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sigma_x1_sq", "sigma_x2_sq", "sigma_y_sq"):
            object.__setattr__(self, name, _check_var(name, getattr(self, name)))
        chains = {"x1-x2-y": ("rho_x1x2", "rho_x2y", "rho_x1y"),
                  "x1-y-x2": ("rho_x1y", "rho_x2y", "rho_x1x2")}
        if self.chain not in chains:
            raise DomainError(f"chain must be 'x1-x2-y' or 'x1-y-x2', got {self.chain!r}")
        first, second, implied = chains[self.chain]
        for name in (first, second):
            object.__setattr__(self, name, _check_rho(name, getattr(self, name), allow_zero=False))
        object.__setattr__(self, implied, getattr(self, first) * getattr(self, second))

    @classmethod
    def chain_x1_x2_y(cls, rho_x1x2: float, rho_x2y: float, **sigmas) -> "GaussianCdibModel":
        return cls("x1-x2-y", rho_x1x2=rho_x1x2, rho_x2y=rho_x2y, **sigmas)

    @classmethod
    def chain_x1_y_x2(cls, rho_x1y: float, rho_x2y: float, **sigmas) -> "GaussianCdibModel":
        return cls("x1-y-x2", rho_x1y=rho_x1y, rho_x2y=rho_x2y, **sigmas)

    def covariance(self) -> np.ndarray:
        """3x3 covariance of (X1, X2, Y) with the chain-implied coefficient."""
        sx1, sx2, sy = sqrt(self.sigma_x1_sq), sqrt(self.sigma_x2_sq), sqrt(self.sigma_y_sq)
        return np.array([
            [sx1 * sx1, self.rho_x1x2 * sx1 * sx2, self.rho_x1y * sx1 * sy],
            [self.rho_x1x2 * sx1 * sx2, sx2 * sx2, self.rho_x2y * sx2 * sy],
            [self.rho_x1y * sx1 * sy, self.rho_x2y * sx2 * sy, sy * sy],
        ])

    def i_y_x1(self) -> float:
        return -0.5 * log2(1.0 - self.rho_x1y ** 2)

    def i_y_x2(self) -> float:
        return -0.5 * log2(1.0 - self.rho_x2y ** 2)

    def i_y_x1x2(self) -> float:
        e1, e2 = self.rho_x1y ** 2, self.rho_x2y ** 2
        if self.chain == "x1-x2-y":
            return self.i_y_x2()
        return 0.5 * log2((1.0 - e1 * e2) / ((1.0 - e1) * (1.0 - e2)))


def _require_chain(m: GaussianCdibModel, chain: str) -> None:
    if m.chain != chain:
        raise DomainError(f"operation requires a {chain!r} model, got {m.chain!r}")


def cdib_x1x2y_mu(m: GaussianCdibModel, rate1: float, rate2: float) -> float:
    """Exact relevance surface for the chain X1 - X2 - Y.

    mu = (1/2) log2(1/D) with
    D = 1 - c^2 + c^2 2^(-2 R2) (1 - a^2 + a^2 2^(-2 R1)),
    a = rho_x1x2, c = rho_x2y.  Nondecreasing and jointly concave in the
    rates.
    """
    _require_chain(m, "x1-x2-y")
    r1, r2 = float(rate1), float(rate2)
    if not (0.0 <= r1 and 0.0 <= r2):
        raise DomainError(f"rates must be nonnegative, got ({rate1!r}, {rate2!r})")
    a2, c2 = m.rho_x1x2 ** 2, m.rho_x2y ** 2
    d = 1.0 - c2 + c2 * 2.0 ** (-2.0 * r2) * (1.0 - a2 + a2 * 2.0 ** (-2.0 * r1))
    return 0.5 * log2(1.0 / d)


def cdib_x1x2y_r2(m: GaussianCdibModel, rate1: float, mu: float) -> float:
    """Rate R2 needed for relevance ``mu`` at a given R1 (chain X1 - X2 - Y)."""
    _require_chain(m, "x1-x2-y")
    r1 = float(rate1)
    if not 0.0 <= r1:
        raise DomainError(f"rate1 must be nonnegative, got {rate1!r}")
    mu = _check_mu(mu, m.i_y_x2(), "I(Y;X2)=")
    a2, c2 = m.rho_x1x2 ** 2, m.rho_x2y ** 2
    num = c2 * a2 * 2.0 ** (-2.0 * r1) + c2 * (1.0 - a2)
    den = 2.0 ** (-2.0 * mu) - (1.0 - c2)
    return max(0.0, 0.5 * log2(num / den))


def cdib_x1x2y_critical_r1(m: GaussianCdibModel, mu: float) -> float | None:
    """Smallest R1 for which R2 = 0 suffices, or ``None`` when no finite rate
    does (relevance above I(Y;X1))."""
    _require_chain(m, "x1-x2-y")
    mu = _check_mu(mu, m.i_y_x2(), "I(Y;X2)=")
    e = m.rho_x1x2 ** 2 * m.rho_x2y ** 2
    limit = m.i_y_x1()
    if mu > limit + 1e-12:
        return None
    den = 2.0 ** (-2.0 * mu) - (1.0 - e)
    if den <= 0.0:
        return inf
    return 0.5 * log2(e / den)


# -- chain X1 - Y - X2: outer bound and additive inner bound ----------------


@dataclass(frozen=True)
class OuterBoundPoint:
    """Rate/relevance bounds implied by a pair of auxiliary rates (r1, r2)."""

    r1: float
    r2: float
    R1_min: float
    R2_min: float
    sum_min: float
    mu_max: float


def _check_finite_rates(what: str, r1: float, r2: float) -> tuple[float, float]:
    r1, r2 = float(r1), float(r2)
    if not (0.0 <= r1 < inf and 0.0 <= r2 < inf):
        raise DomainError(f"{what} must be finite and nonnegative, got ({r1!r}, {r2!r})")
    return r1, r2


def _outer_mu_at(e1: float, e2: float, r1: float):
    """The outer-bound relevance at fixed ``r1`` as a function of ``r2``:

        (1/2) log2((1 - e1 e2 - e1 (1 - e2) 2^(-2 r1) - e2 (1 - e1) 2^(-2 r2))
                   / ((1 - e1)(1 - e2))),

    the only copy of this log argument.  Everything free of ``r2`` is
    computed once, when the function is built; Python groups the products
    left to right, so ``e2 * (1 - e1)`` taken out first gives the same
    doubles.  The log is ``np.log2`` on purpose (see
    :func:`cdib_x1yx2_outer_frontier`)."""
    base = 1.0 - e1 * e2 - e1 * (1.0 - e2) * 2.0 ** (-2.0 * r1)
    k2 = e2 * (1.0 - e1)
    den = (1.0 - e1) * (1.0 - e2)
    log2 = np.log2

    def mu(r2: float) -> float:
        return 0.5 * float(log2((base - k2 * 2.0 ** (-2.0 * r2)) / den))

    return mu


def cdib_x1yx2_outer_point(m: GaussianCdibModel, r1: float, r2: float, *,
                           r2_term_decays: bool = True) -> OuterBoundPoint:
    """Evaluate the outer-bound displays at auxiliary rates (r1, r2).

    ``r2_term_decays`` selects the reading of the R2 display: the default
    puts the factor 2^(-2 r2) on its last term (consistent with the mu
    display); ``False`` evaluates the r2-free variant that matches the
    printed converse derivation.  Both are valid outer bounds; the default
    is the weaker (larger) region.
    """
    _require_chain(m, "x1-y-x2")
    r1, r2 = _check_finite_rates("auxiliary rates", r1, r2)
    mu_at = _outer_mu_at(m.rho_x1y ** 2, m.rho_x2y ** 2, r1)
    mu = mu_at(r2)
    if not isfinite(mu):
        raise DegenerateModelError("log argument vanished in the outer bound")
    l2 = mu if r2_term_decays else mu_at(0.0)
    i_y_x2 = m.i_y_x2()
    return OuterBoundPoint(
        r1=r1, r2=r2,
        R1_min=max(0.0, r1 - i_y_x2 + mu),
        R2_min=max(0.0, r2 - l2 + mu),
        sum_min=r1 + r2 + mu,
        mu_max=mu,
    )


def cdib_x1yx2_outer_frontier(m: GaussianCdibModel, rate1: float, rate2: float, *,
                              r2_term_decays: bool = True, tol: float = 1e-11) -> float:
    """Largest relevance the outer bound admits at rates (R1, R2).

    Maximises over (r1, r2) the pointwise minimum of the four bound
    expressions.  Every term is concave in (r1, r2), so the objective is
    jointly concave and nested golden-section search is exact; the sum-rate
    constraint confines the search box to r1 + r2 <= R1 + R2.

    Cost: each golden section takes about 3 + log((R1 + R2) / tol) / 0.48
    evaluations, 57 at the default ``tol`` and R1 + R2 = 1.4, so a call
    evaluates the objective about 57 x 57 = 3,249 times (3,364 at
    R1 + R2 = 2).  Everything free of r2 (the r1 term of the log argument,
    its r2-free factors, the R1 cap, the remaining sum-rate room, the
    r2-free R2 term and the choice of R2 term) is fixed once per inner
    search; an evaluation is then one call of the relevance function, one
    ``np.log2`` and three comparisons.  The comparisons take the four terms
    in ``min``'s order and replace the current value only by a strictly
    smaller term, so ties and NaN resolve as ``min`` resolves them.
    ``np.log2`` stays because ``math.log2`` rounds differently in the last
    bit for about 0.2% of arguments, and the 12-digit frontier depends on
    the exact golden-section path.  ``tol`` must be positive and finite
    (``ArgumentError``): NaN would return 0.0 and 0 would never return.
    Rates whose sum overflows to inf raise ``DomainError``: the search box
    would be unbounded and the frontier read 0.0.
    """
    _require_chain(m, "x1-y-x2")
    rate1, rate2 = _check_finite_rates("rates", rate1, rate2)
    tol = _check_tol(tol)
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    i_y_x2 = m.i_y_x2()
    span = rate1 + rate2
    if not span < inf:
        raise DomainError(f"rates ({rate1!r}, {rate2!r}) must have a finite sum")
    if span <= 0.0:
        return 0.0

    def best_over_r2(r1: float) -> float:
        # everything that does not depend on r2, once per inner search
        mu_at = _outer_mu_at(e1, e2, r1)
        cap = rate1 - r1 + i_y_x2
        room = span - r1
        # min(mu, cap, R2 term, room - r2), written as comparisons in min's order
        if r2_term_decays:
            def admissible(r2: float) -> float:
                mu = mu_at(r2)
                v = cap if cap < mu else mu
                t = rate2 - r2 + mu
                if t < v:
                    v = t
                t = room - r2
                return t if t < v else v
        else:
            l2 = mu_at(0.0)

            def admissible(r2: float) -> float:
                mu = mu_at(r2)
                v = cap if cap < mu else mu
                t = rate2 - r2 + l2
                if t < v:
                    v = t
                t = room - r2
                return t if t < v else v

        _, v = golden_max(admissible, 0.0, span, tol)
        return v

    _, value = golden_max(best_over_r2, 0.0, span, tol)
    return max(0.0, value)


_INNER_GRID_N = 110    # points per log-variance axis in the first round (12,100 in all)
_INNER_SLACK = 1e-12   # rate slack of the feasibility filter


def cdib_x1yx2_inner(m: GaussianCdibModel, rate1: float, rate2: float) -> float:
    """Additive inner bound: max I(Y;V1 V2) over the noise variances of
    V1 = X1 + P1 and V2 = X2 + V1 + P2 subject to the one-round rate
    constraints

        I(X1;V1|X2) <= R1,  I(X2;V2|V1) <= R2,  I(X1 X2;V1 V2) <= R1 + R2.

    All four quantities reduce to cancellation-free determinant ratios, so
    the feasibility filter stays exact for noise variances across 26 orders
    of magnitude.  Noise variances are searched relative to those of X1 and
    X2, so the bound does not depend on the model's variances.  Deterministic
    110 x 110 log-variance grid on [1e-13, 1e13] plus five 33 x 33 zoom
    rounds; the constraints carry a 1e-12 slack.
    """
    _require_chain(m, "x1-y-x2")
    rate1, rate2 = _check_finite_rates("rates", rate1, rate2)
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    c12 = m.rho_x1x2

    def quantities(s1, s2):
        i1 = 0.5 * np.log2((1.0 - c12 ** 2 + s1) / s1)
        var_x2_given_v1 = 1.0 - c12 * c12 / (1.0 + s1)
        i2 = 0.5 * np.log2((var_x2_given_v1 + s2) / s2)
        det_v = (1.0 + s1) * (1.0 + s2) - c12 * c12
        isum = 0.5 * np.log2(det_v / (s1 * s2))
        mu = 0.5 * np.log2(det_v / ((1.0 - e1 + s1) * (1.0 - e2 + s2)))
        return i1, i2, isum, mu

    g1 = np.linspace(-13.0, 13.0, _INNER_GRID_N)
    g2 = g1.copy()
    best = 0.0
    for round_idx in range(6):
        s1 = 10.0 ** g1[:, None]
        s2 = 10.0 ** g2[None, :]
        i1, i2, isum, mu = quantities(s1, s2)
        feasible = ((i1 <= rate1 + _INNER_SLACK) & (i2 <= rate2 + _INNER_SLACK)
                    & (isum <= rate1 + rate2 + _INNER_SLACK))
        mu = np.where(feasible, mu, -np.inf)
        k = np.unravel_index(int(np.argmax(mu)), mu.shape)
        if np.isfinite(mu[k]):
            best = max(best, float(mu[k]))
        w1 = (g1[-1] - g1[0]) / 8.0
        w2 = (g2[-1] - g2[0]) / 8.0
        g1 = np.linspace(g1[k[0]] - w1, g1[k[0]] + w1, 33)
        g2 = np.linspace(g2[k[1]] - w2, g2[k[1]] + w2, 33)
    return best
