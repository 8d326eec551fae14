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

Every mutual information here is a log-ratio of covariance determinants, so
it depends on the correlations only: the broadcast models are unit-variance,
and the two-way model's variances set only the units of its noise variances
and coefficients.  The generic determinant evaluator :func:`gaussian_mi` is
the test oracle; the region functions use algebraically reduced determinant
ratios which stay accurate for noise variances across many orders of magnitude.

Arguments follow the rules of ``guards``.  An infinite rate is an
unlimited one in every function here: ``2^(-inf)`` is the exact limit in the
closed forms, and the X1 - Y - X2 bounds give the same value as at 1e300.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, log2, nan, sqrt

import numpy as np

from . import guards
from .errors import ArgumentError, DegenerateModelError, DomainError
from .optimize import _INVPHI, golden_max

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


def gaussian_mi(cov: np.ndarray, a, b, c=()) -> float:
    """I(A;B|C) in bits for jointly Gaussian variables with covariance ``cov``.

    ``a``, ``b``, ``c`` are disjoint index lists into ``cov``, a finite
    symmetric matrix, with ``a`` and ``b`` nonempty; an empty, repeated or
    shared index raises :class:`ArgumentError`.  Computed as the log-det ratio
    0.5 * log2( |S_AC| |S_BC| / (|S_ABC| |S_C|) ).
    """
    cov = guards.reals("cov", cov)
    n = len(cov) if cov.ndim == 2 and cov.shape == cov.shape[::-1] else 0
    if not (n and np.isfinite(cov).all() and np.allclose(cov, cov.T, rtol=1e-12, atol=0.0)):
        raise ArgumentError(f"cov must be a finite symmetric matrix, got {cov!r}")

    def indices(name, v):
        idx = [guards.count(name, i, 0) for i in guards.reals(name, v).ravel()]
        if any(i >= n for i in idx):
            raise ArgumentError(f"{name}={v!r} indexes past the {n} variables")
        return idx

    a, b, c = indices("a", a), indices("b", b), indices("c", c)
    if not (a and b) or len(set(a + b + c)) < len(a + b + c):
        raise ArgumentError(f"a and b must be nonempty and a, b, c disjoint, got {a}, {b}, {c}")

    def ld(idx):
        if not idx:
            return 0.0
        sub = cov[np.ix_(idx, idx)]
        sign, val = np.linalg.slogdet(sub)
        if sign <= 0:
            raise DegenerateModelError(f"covariance submatrix {idx} not positive definite")
        return float(val / np.log(2.0))

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
    ``(X1, X2, Y2)``) must be strictly positive.  With every |rho| < 1 that
    makes both correlation blocks positive definite.  Each decoder's
    relevance reads only its own block, so the model leaves the dependence
    of ``Y1`` on ``Y2`` free.
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
            object.__setattr__(self, name, guards.correlation(name, getattr(self, name)))
        for name in ("sigma_x1_sq", "sigma_x2_sq", "sigma_y1_sq", "sigma_y2_sq"):
            object.__setattr__(self, name, guards.variance(name, getattr(self, name)))
        if self.beta <= 0.0:
            raise DegenerateModelError(f"beta={self.beta!r} must be positive")
        if self.delta <= 0.0:
            raise DegenerateModelError(f"delta={self.delta!r} must be positive")

    @property
    def beta(self) -> float:
        a, b, c = self.rho_x1x2, self.rho_x1y1, self.rho_x2y1
        return 1.0 - a * a - b * b - c * c + 2.0 * a * b * c

    @property
    def delta(self) -> float:
        a, b, c = self.rho_x1x2, self.rho_x2y2, self.rho_x1y2
        return 1.0 - a * a - b * b - c * c + 2.0 * a * c * b


def twcib_coefficients(m: GaussianTwcibModel) -> dict:
    """Regression coefficients and noise variances of the two-way model."""
    # the model's __post_init__ guarantees beta, delta > 0
    beta, delta = guards.instance("m", m, GaussianTwcibModel).beta, m.delta
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


def _twcib_side(m: GaussianTwcibModel, which: int) -> tuple[float, float, float, float]:
    """(det3, own_rho, sigma_x_sq_of_described, relevance_limit) for a rate side.

    ``which=1`` is the rate R1 as a function of mu2 (encoder 1 describes X1
    for the hidden Y2); ``which=2`` is R2 as a function of mu1.
    """
    guards.instance("m", m, GaussianTwcibModel)
    d, rho, sx_sq = ((m.delta, m.rho_x2y2, m.sigma_x1_sq) if guards.which(which) == 1
                     else (m.beta, m.rho_x1y1, m.sigma_x2_sq))
    return d, rho, sx_sq, 0.5 * log2((1.0 - m.rho_x1x2 ** 2) / d)


def twcib_relevance_limit(m: GaussianTwcibModel, which: int) -> float:
    """Supremum of achievable relevance: (1/2) log2((1 - rho_x1x2^2)/d)."""
    return _twcib_side(m, which)[3]


def twcib_rate_for_relevance(m: GaussianTwcibModel, which: int, mu: float) -> float:
    """Minimum rate sustaining relevance ``mu`` at the opposite decoder.

    Monotone increasing in ``mu`` and diverging at
    ``twcib_relevance_limit(m, which)``; raises ``DomainError`` (carrying the
    limit in its message) at or above the limit.
    """
    d, other_rho, _, limit = _twcib_side(m, which)
    mu = guards.relevance("mu", mu, limit, "the validity limit ")
    one_m_r2 = 1.0 - m.rho_x1x2 ** 2
    num = one_m_r2 * (1.0 - other_rho ** 2) - d
    den = 2.0 ** (-2.0 * mu) * one_m_r2 - d
    return _rate_for(num, den, mu, limit, "the validity limit ")


def _rate_for(num: float, den: float, mu: float, limit: float, what: str) -> float:
    """``max(0, (1/2) log2(num / den))``, ``den`` positive below ``limit``:
    ``den <= 0`` is ``mu`` rounding onto it, ``num <= 0`` a Markov chain."""
    if den <= 0.0:
        raise DomainError(f"mu={mu!r} rounds onto {what}{limit!r}")
    return max(0.0, 0.5 * log2(num / den)) if num > 0.0 else 0.0


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
        d, other_rho, sx_sq, limit = _twcib_side(m, which)
        mu = guards.relevance("mu", mu, limit, "the validity limit ")
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

    Evaluated with the generic determinant oracle on the covariance of
    (X1, X2, Y1, Y2, V1, V2); serves as the independent round-trip check of
    the closed forms.  No quantity reads a block holding both Y1 and Y2, so
    their covariance, which the model leaves free, is set to 0.
    """
    s1 = guards.variance("sigma_p1_sq", sigma_p1_sq)
    s2 = guards.variance("sigma_p2_sq", sigma_p2_sq)
    guards.instance("m", m, GaussianTwcibModel)
    sx1, sx2 = sqrt(m.sigma_x1_sq), sqrt(m.sigma_x2_sq)
    sy1, sy2 = sqrt(m.sigma_y1_sq), sqrt(m.sigma_y2_sq)
    x1, x2, y1, y2, v1, v2 = range(6)
    c = np.zeros((6, 6))
    c[x1, :4] = sx1 * sx1, m.rho_x1x2 * sx1 * sx2, m.rho_x1y1 * sx1 * sy1, m.rho_x1y2 * sx1 * sy2
    c[x2, :4] = m.rho_x1x2 * sx1 * sx2, sx2 * sx2, m.rho_x2y1 * sx2 * sy1, m.rho_x2y2 * sx2 * sy2
    c[y1:y2 + 1, :2] = c[:2, y1:y2 + 1].T
    c[y1, y1], c[y2, y2] = sy1 * sy1, sy2 * sy2
    # the noises are independent: V1, V2 covary as X1, X2 do, save their own variances
    c[v1:, :4] = c[:2, :4]
    c[:, v1:] = c[:, :2]
    c[v1, v1] += s1
    c[v2, v2] += s2
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
    fixes the third correlation, which if passed must be 0 or that product.
    """

    chain: str
    rho_x1x2: float = 0.0
    rho_x2y: float = 0.0
    rho_x1y: float = 0.0

    def __post_init__(self) -> None:
        chains = {"x1-x2-y": ("rho_x1x2", "rho_x2y", "rho_x1y"),
                  "x1-y-x2": ("rho_x1y", "rho_x2y", "rho_x1x2")}
        if not (isinstance(self.chain, str) and self.chain in chains):
            raise DomainError(f"chain must be 'x1-x2-y' or 'x1-y-x2', got {self.chain!r}")
        first, second, implied = chains[self.chain]
        for name in (first, second):
            object.__setattr__(self, name,
                               guards.correlation(name, getattr(self, name), allow_zero=False))
        product = getattr(self, first) * getattr(self, second)
        given = guards.correlation(implied, getattr(self, implied))
        if given != 0.0 and given != product:
            raise DomainError(f"{implied}={given!r} contradicts the {self.chain} chain, "
                              f"which implies {first} * {second} = {product!r}")
        object.__setattr__(self, implied, product)

    @classmethod
    def chain_x1_x2_y(cls, rho_x1x2: float, rho_x2y: float) -> "GaussianCdibModel":
        return cls("x1-x2-y", rho_x1x2=rho_x1x2, rho_x2y=rho_x2y)

    @classmethod
    def chain_x1_y_x2(cls, rho_x1y: float, rho_x2y: float) -> "GaussianCdibModel":
        return cls("x1-y-x2", rho_x1y=rho_x1y, rho_x2y=rho_x2y)

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
    if guards.instance("m", m, GaussianCdibModel).chain != chain:
        raise DomainError(f"operation requires a {chain!r} model, got {m.chain!r}")


def cdib_x1x2y_mu(m: GaussianCdibModel, rate1: float, rate2: float) -> float:
    """Exact relevance surface for the chain X1 - X2 - Y.

    mu = (1/2) log2(1/D) with
    D = 1 - c^2 + c^2 2^(-2 R2) (1 - a^2 + a^2 2^(-2 R1)),
    a = rho_x1x2, c = rho_x2y.  Nondecreasing and jointly concave in the
    rates.
    """
    _require_chain(m, "x1-x2-y")
    r1, r2 = guards.rate("rate1", rate1), guards.rate("rate2", rate2)
    a2, c2 = m.rho_x1x2 ** 2, m.rho_x2y ** 2
    d = 1.0 - c2 + c2 * 2.0 ** (-2.0 * r2) * (1.0 - a2 + a2 * 2.0 ** (-2.0 * r1))
    return 0.5 * log2(1.0 / d)


def cdib_x1x2y_r2(m: GaussianCdibModel, rate1: float, mu: float) -> float:
    """Rate R2 needed for relevance ``mu`` at a given R1 (chain X1 - X2 - Y)."""
    _require_chain(m, "x1-x2-y")
    r1 = guards.rate("rate1", rate1)
    limit = m.i_y_x2()
    mu = guards.relevance("mu", mu, limit, "I(Y;X2)=")
    a2, c2 = m.rho_x1x2 ** 2, m.rho_x2y ** 2
    num = c2 * a2 * 2.0 ** (-2.0 * r1) + c2 * (1.0 - a2)
    den = 2.0 ** (-2.0 * mu) - (1.0 - c2)
    return _rate_for(num, den, mu, limit, "I(Y;X2)=")


def cdib_x1x2y_critical_r1(m: GaussianCdibModel, mu: float) -> float | None:
    """Smallest R1 for which R2 = 0 suffices, or ``None`` when no finite rate
    does (relevance above I(Y;X1))."""
    _require_chain(m, "x1-x2-y")
    mu = guards.relevance("mu", mu, m.i_y_x2(), "I(Y;X2)=")
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


def _outer_log_terms(e1: float, e2: float, r1: float) -> tuple[float, float, float]:
    # the parts of the outer bound's log argument free of r2
    return (1.0 - e1 * e2 - e1 * (1.0 - e2) * 2.0 ** (-2.0 * r1), e2 * (1.0 - e1),
            (1.0 - e1) * (1.0 - e2))


def _outer_objective(base: float, k2: float, den: float, cap: float, rate2: float,
                     room: float):
    """The outer frontier's objective at fixed ``r1`` as a function of r2,
    ``min(mu, cap, rate2 - r2 + mu, room - r2)`` with the relevance

        mu = (1/2) log2((1 - e1 e2 - e1 (1 - e2) 2^(-2 r1) - e2 (1 - e1) 2^(-2 r2))
                        / ((1 - e1)(1 - e2))),

    whose r2-free terms ``(base, k2, den)`` are ``_outer_log_terms(e1, e2, r1)``:
    mu itself when the other three are infinite.  The reference copy of the
    formula; bits: README, "Speed never moves a bit"."""
    log2 = np.log2

    def objective(r2: float) -> float:
        mu = 0.5 * float(log2((base - k2 * 2.0 ** (-2.0 * r2)) / den))
        v = cap if cap < mu else mu
        t = rate2 - r2 + mu
        if t < v:
            v = t
        t = room - r2
        return t if t < v else v

    return objective


def cdib_x1yx2_outer_point(m: GaussianCdibModel, r1: float, r2: float) -> OuterBoundPoint:
    """Evaluate the outer-bound displays at auxiliary rates (r1, r2).

    The R2 display is read with the factor 2^(-2 r2) on its last term, as
    in the mu display: the weaker (larger) of its two readings, so R2_min
    is ``max(0, r2 - mu + mu)``, which in floats is not always r2.  An
    unlimited auxiliary rate gives unlimited rate bounds.
    """
    _require_chain(m, "x1-y-x2")
    r1, r2 = guards.rate("r1", r1), guards.rate("r2", r2)
    # a log argument that cancels to 0 or below gives -inf or NaN, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = _outer_objective(*_outer_log_terms(m.rho_x1y ** 2, m.rho_x2y ** 2, r1),
                              inf, inf, inf)(r2)
    if not isfinite(mu):
        raise DegenerateModelError("log argument vanished in the outer bound")
    i_y_x2 = m.i_y_x2()
    return OuterBoundPoint(
        r1=r1, r2=r2,
        R1_min=max(0.0, r1 - i_y_x2 + mu),
        R2_min=max(0.0, r2 - mu + mu),
        sum_min=r1 + r2 + mu,
        mu_max=mu,
    )


_OUTER_TOL = 1e-11    # golden-section tolerance of both nested searches
_OUTER_BOX = 128.0    # cap on each auxiliary rate searched, in bits
_OUTER_SLOPE = 20.0   # steepest mu in r2 at which the closed form makes a claim
_OUTER_MARGIN = 1e-12  # rounding allowance of the closed form's claims on the r2 search


def _outer_best_over_r2(e1: float, e2: float, r1: float, cap: float, rate2: float,
                        room: float, box: float) -> float:
    """``golden_max(_outer_objective(*_outer_log_terms(e1, e2, r1), cap, rate2,
    room), 0.0, box, _OUTER_TOL, bound)[1]``, its steps written out and the
    objective inline at each of its evaluations, where ``bound(r2)`` is
    ``min(cap, room - r2)`` if ``base - k2 > 0`` and NaN otherwise: a new c
    is skipped when its bound is <= fd, a new d when its bound is < fc, and
    the last step's new point always (README, "Speed never moves a bit")."""
    base, k2, den = _outer_log_terms(e1, e2, r1)
    log2, invphi, tol = np.log2, _INVPHI, _OUTER_TOL
    # with base - k2 > 0 every log argument is positive, so no value is NaN
    # and min(cap, room - x) bounds the value at x; NaN makes no claim
    lid = cap if base - k2 > 0.0 else nan
    # primed: the first c held as d, c = a, fc = -inf.  No stall guard: in
    # [0, box], box <= _OUTER_BOX, floats are at most 2^-45 apart, so each
    # step from v > _OUTER_TOL leaves the next v <= 0.6181 v + 6e-14 < v
    a, b = 0.0, box
    d = b - invphi * (b - a)
    mu = 0.5 * float(log2((base - k2 * 2.0 ** (-2.0 * d)) / den))
    fd = cap if cap < mu else mu
    t = rate2 - d + mu
    if t < fd:
        fd = t
    t = room - d
    if t < fd:
        fd = t
    c, fc = a, -inf
    while True:
        if fc > fd:
            b, d, fd = d, c, fc
            v = b - a
            if not v > tol:
                break
            c = b - invphi * v
            u = room - c
            fc = u if u < lid else lid
            if not fc <= fd:
                mu = 0.5 * float(log2((base - k2 * 2.0 ** (-2.0 * c)) / den))
                fc = cap if cap < mu else mu
                t = rate2 - c + mu
                if t < fc:
                    fc = t
                if u < fc:
                    fc = u
        else:
            a, c, fc = c, d, fd
            v = b - a
            if not v > tol:
                break
            d = a + invphi * v
            u = room - d
            fd = u if u < lid else lid
            if not fc > fd:
                mu = 0.5 * float(log2((base - k2 * 2.0 ** (-2.0 * d)) / den))
                fd = cap if cap < mu else mu
                t = rate2 - d + mu
                if t < fd:
                    fd = t
                if u < fd:
                    fd = u
    x = 0.5 * (a + b)
    mu = 0.5 * float(log2((base - k2 * 2.0 ** (-2.0 * x)) / den))
    v = cap if cap < mu else mu
    t = rate2 - x + mu
    if t < v:
        v = t
    t = room - x
    return t if t < v else v


def _outer_fixed_r1_max(e1: float, e2: float, r1: float, cap: float, rate2: float,
                        room: float, box: float) -> float:
    """The maximum over r2 in [0, box] of ``_outer_objective(*_outer_log_terms(
    e1, e2, r1), cap, rate2, room)``, in closed form, or NaN (no claim)
    unless k2 > 0, den > 0 and k2 <= 20 (base - k2).

    With t = 2^(-2 r2) the objective is min(cap, G), G = min(A, C, D): A =
    mu = (1/2) log2((base - k2 t) / den) rises, C = rate2 - r2 + A has one
    stationary point, t = base / (2 k2), and D = room - r2 falls.  As cap
    is constant, the maximum is min(cap, max G).  G is concave, so it peaks
    at an end (r2 = 0 or box), at an interior point where its one active
    term is stationary (only C can be), or where two active terms meet:
    A = C at r2 = rate2, A = D at t = base / (k2 + den 4^room), C = D
    where A = room - rate2.  G is taken at each of these six that lies in
    [0, box].  An exponent above 511, where ``4.0 ** x`` overflows, is read
    as 511: the candidate then lies outside [0, box], as the exact one
    does.  The guard keeps mu's slope in r2, k2 t / (base - k2 t), at most
    20, where the log argument keeps its leading digits: the r2 search was
    measured at most 5.3e-15 above this maximum, inside ``_OUTER_MARGIN``
    = 1e-12, and 3.5e-11 above it with a guard of 1e6 (README, "Speed
    never moves a bit")."""
    base, k2, den = _outer_log_terms(e1, e2, r1)
    if not (k2 > 0.0 and den > 0.0 and k2 <= _OUTER_SLOPE * (base - k2)):
        return nan
    lo = 4.0 ** -box
    best = -inf
    for t in (1.0, lo, 4.0 ** -rate2, 0.5 * base / k2,
              base / (k2 + den * 4.0 ** (511.0 if 511.0 < room else room)),
              (base - den * 4.0 ** (511.0 if 511.0 < room - rate2 else room - rate2)) / k2):
        if lo <= t <= 1.0:
            r2 = -0.5 * log2(t)
            v = 0.5 * log2((base - k2 * t) / den)
            u = rate2 - r2 + v
            if u < v:
                v = u
            u = room - r2
            if u < v:
                v = u
            if v > best:
                best = v
    return best if best < cap else cap


def cdib_x1yx2_outer_frontier(m: GaussianCdibModel, rate1: float, rate2: float) -> float:
    """Largest relevance the outer bound admits at rates (R1, R2).

    Maximises over (r1, r2) the minimum of the four bound expressions, each
    concave in (r1, r2), so nested golden-section search is exact.  Each
    auxiliary rate is searched on [0, min(R1 + R2, 128)] (the sum-rate bound
    keeps r1 + r2 <= R1 + R2): beyond r = 64, 2^(-2 r) is below the float
    spacing of the log argument, so more auxiliary rate only lowers the R1
    cap and the sum-rate room (which keep the true rates), while a wider
    box's float spacing would swamp the plateau.  An unlimited rate, or a
    sum that overflows to inf, leaves the box at 128 and the cap and room
    infinite, where 1e300 leaves them beyond every relevance: the same double.
    The r1 search is ``golden_max``; each of its evaluations is the r2
    search ``_outer_best_over_r2``, whose steps are written out.  Both skip
    each evaluation that the cap and room bound already decides: a new c
    when its bound is <= fd, a new d when its bound is < fc.  The r1
    search also encloses each r2 search, where the slope guard of the
    closed-form maximum over r2, g = ``_outer_fixed_r1_max``, lets it
    claim, in (g - lip _OUTER_TOL - _OUTER_MARGIN, g + _OUTER_MARGIN),
    lip the objective's steepest slope in r2 and ``_OUTER_MARGIN`` = 1e-12
    a rounding allowance, and runs an r2 search only where two points'
    claims overlap.

    Cost: at most 57 x 57 objective evaluations.  At R1 = R2 = 0.7 it takes
    5 r2 searches and 199 ``np.log2`` calls (16 and 627 with claims of
    g +- 1e-9, 39 and 1,557 with the cap and room bounds alone, 3,249 calls
    without either).  It took 0.17-0.19 ms in 5 of 6 best-of-15 timeit
    runs (0.30 in one), against 0.39-0.43 ms with claims of g +- 1e-9 in
    all 6, alternating on a shared 2-vCPU x86-64 host (Python 3.11, numpy
    2.4).  Bits: README, "Speed never moves a bit".
    """
    _require_chain(m, "x1-y-x2")
    rate1, rate2 = guards.rate("rate1", rate1), guards.rate("rate2", rate2)
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    i_y_x2 = m.i_y_x2()
    span = rate1 + rate2
    if span <= 0.0:
        return 0.0
    box = min(span, _OUTER_BOX)
    # base(r1) >= base(0) and k2 2^(-2 r2) <= k2, so base(0) - k2 > 0 keeps
    # every log argument positive: then no value is NaN, and the r2 search
    # at r1, whose final r2 is >= 0, is at most min(cap, room)
    base, k2, _ = _outer_log_terms(e1, e2, 0.0)
    bound = (lambda r1: min(rate1 - r1 + i_y_x2, span - r1)) if base - k2 > 0.0 else None
    # lip bounds the objective's slope in r2 at every r1: mu's,
    # k2 t / (base - k2 t), is largest at t = 1 and r1 = 0, C's is mu's - 1
    # and D's is -1.  So the r2 search, whose final r2 lies within
    # _OUTER_TOL / 2 of a maximiser, is at most lip _OUTER_TOL / 2 below the
    # maximum g and, but for rounding, never above it
    lip = max(1.0, k2 / (base - k2)) if base - k2 > 0.0 else inf
    slack = lip * _OUTER_TOL + _OUTER_MARGIN

    def enclose(r1):
        g = _outer_fixed_r1_max(e1, e2, r1, rate1 - r1 + i_y_x2, rate2, span - r1, box)
        return g - slack, g + _OUTER_MARGIN

    # a log argument that cancels to 0 or below gives -inf or NaN, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        _, value = golden_max(lambda r1: _outer_best_over_r2(
            e1, e2, r1, rate1 - r1 + i_y_x2, rate2, span - r1, box), 0.0, box, _OUTER_TOL,
            bound=bound, enclose=enclose)
    return max(0.0, value)


_INNER_GRID_N = 110    # points per log-variance axis in the first round (12,100 in all)
_INNER_SLACK = 1e-12   # rate slack of the feasibility filter


def _inner_quantities(e1: float, e2: float, c12: float, g1: np.ndarray, g2: np.ndarray):
    """I(X1;V1|X2), I(X2;V2|V1), I(X1 X2;V1 V2) and I(Y;V1 V2) on the grid of
    relative noise variances 10^g1 (rows) x 10^g2 (columns)."""
    s1 = 10.0 ** g1[:, None]
    s2 = 10.0 ** g2[None, :]
    s12 = s1 * s2
    i1 = (1.0 - c12 ** 2 + s1) / s1
    var_x2_given_v1 = ((1.0 - c12 * c12) + s1) / (1.0 + s1)
    i2 = var_x2_given_v1 + s2
    i2 /= s2
    det_v = (1.0 - c12 * c12) + s1 + s2 + s12
    isum = det_v / s12
    mu = np.divide(det_v, (1.0 - e1 + s1) * (1.0 - e2 + s2), out=det_v)
    for a in (i1, i2, isum, mu):
        np.log2(a, out=a)
        a *= 0.5
    return i1, i2, isum, mu


_STEPS33 = np.arange(33.0)


def _zoom_grid(g: np.ndarray, k: int) -> np.ndarray:
    # np.linspace(g[k] - w, g[k] + w, 33) with w = (g[-1] - g[0]) / 8, in
    # linspace's own arithmetic for a nonzero step: the half-widths of the
    # five zooms fall from 26 / 8 to 26 / 8 / 4^4, so the step is never 0
    # (README, "Speed never moves a bit")
    w = float(g[-1] - g[0]) / 8.0
    lo, hi = float(g[k]) - w, float(g[k]) + w
    y = _STEPS33 * ((hi - lo) / 32)
    y += lo
    y[-1] = hi
    return y


@lru_cache(maxsize=1)
def _inner_first_round(e1: float, e2: float, c12: float):
    # the first round depends on the model alone, not on the rates: kept for
    # the last model called (about 0.4 MB), read-only as every call shares it
    g = np.linspace(-13.0, 13.0, _INNER_GRID_N)
    values = _inner_quantities(e1, e2, c12, g, g)
    for a in (g, *values):
        a.flags.writeable = False
    return g, values


def cdib_x1yx2_inner(m: GaussianCdibModel, rate1: float, rate2: float) -> float:
    """Additive inner bound: max I(Y;V1 V2) over the noise variances of
    V1 = X1 + P1 and V2 = X2 + V1 + P2 subject to the one-round rate
    constraints

        I(X1;V1|X2) <= R1,  I(X2;V2|V1) <= R2,  I(X1 X2;V1 V2) <= R1 + R2.

    All four quantities reduce to determinant ratios; det(V1, V2) is summed
    as (1 - c12^2) + s1 + s2 + s1 s2 and var(X2 | V1) formed as
    ((1 - c12^2) + s1) / (1 + s1), free of cancellation at |c12| near 1
    for noise variances across 26 orders of magnitude, relative to the unit
    variances of X1 and X2.  Deterministic 110 x 110 log-variance grid on
    [1e-13, 1e13] plus five 33 x 33 zoom rounds; the constraints carry a
    1e-12 slack, and an unlimited rate leaves its constraint slack.  The
    first round is kept for the last model called.
    """
    _require_chain(m, "x1-y-x2")
    rate1, rate2 = guards.rate("rate1", rate1), guards.rate("rate2", rate2)
    e1, e2 = m.rho_x1y ** 2, m.rho_x2y ** 2
    c12 = m.rho_x1x2

    g1, values = _inner_first_round(e1, e2, c12)
    g2 = g1
    best = 0.0
    for round_idx in range(6):
        if round_idx:
            g1, g2 = _zoom_grid(g1, k[0]), _zoom_grid(g2, k[1])
            values = _inner_quantities(e1, e2, c12, g1, g2)
        i1, i2, isum, mu = values
        feasible = ((i1 <= rate1 + _INNER_SLACK) & (i2 <= rate2 + _INNER_SLACK)
                    & (isum <= rate1 + rate2 + _INNER_SLACK))
        mu = np.where(feasible, mu, -np.inf)
        k = np.unravel_index(int(np.argmax(mu)), mu.shape)
        if np.isfinite(mu[k]):
            best = max(best, float(mu[k]))
    return best
