"""Analytic relevance-rate curves for the doubly symmetric binary source.

The source is ``X2 ~ Bern(1/2)``, ``X1 = X2 xor Z`` with ``Z ~ Bern(q)``, and
a hidden ``Y = X1 xor W`` with ``W ~ Bern(p)``; ``p, q`` strictly inside
``(0, 1/2)``.  One encoder observes ``X1``, the decoder observes ``X2`` and
wants information about ``Y``.

Two crossover-parametrised curves drive everything, both strictly convex on
``[0, 1]`` and symmetric about ``r = 1/2``:

    g(r) = h2(r * q) - h2(r)                 (rate of a BSC(r) test channel)
    f(r) = relevance gain of the same channel,  0 <= f(r) <= g(r)

The rate-limited relevance curve ``mu_d`` is the upper concave envelope of
the parametric curve ``(g(r), f(r))`` shifted by ``1 - h2(p*q)``.  It is
linear with slope ``alpha* = f(r_c)/g(r_c)`` up to a critical rate
``R_c = g(r_c)`` (a time-sharing segment) and follows ``f(g^{-1}(R))``
beyond.  For some ``(p, q)`` the tangency degenerates (``R_c -> 0``) and the
curve is the plain ``f(g^{-1}(R))`` branch everywhere; ``critical_point``
raises ``SolverError`` in that regime and ``mu_d`` falls back accordingly.

Two independent oracles are provided for cross-checking ``mu_d``: a dual
min-max formulation (``mu_d_dual``) and a brute-force two-point time-sharing
search (``mu_d_timeshare_oracle``).

Kernel rule: one scalar kernel and one array kernel per formula.  The
scalar kernels (``_g``, ``_first_form``, ``_g_prime``, ``_f_prime``, on
``bentropy._h2``/``_star`` and ``math.log2``) and the array kernels (``_g_vec``,
``_f_vec``, ``_g_prime_vec``, ``_f_prime_vec``, on ``bentropy.h2_arr`` and
``np.log2``) assume in-domain floats and check nothing; ``_second_form``
alone holds the second form's constants.  The twins stay apart on purpose:
folding them moves last bits, and the second-form array kernels keep both
oracles independent of the primal kernels.  Each public function checks its
arguments once, at entry, and from then on calls kernels, never the checking
``h2``, ``star``, ``f`` or ``g``.  ``_first_form(p, q)`` is the one scalar
copy of ``f``'s first form, ``r -> (f(r), g(r))``; ``_g`` keeps ``g`` alone
for ``g_inverse``'s bisection, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log2

import numpy as np

from .bentropy import _check_range, _h2, _star, h2_arr, h2_inv
from .errors import ArgumentError, DomainError, SolverError
from .optimize import bisect_decreasing_inverse, bisect_root, golden_max, golden_min
from .pmf import Axis, Channel, JointPmf

__all__ = [
    "BinaryModel",
    "CriticalPoint",
    "TestChannelSpec",
    "g",
    "f",
    "f_alt",
    "g_prime",
    "f_prime",
    "g_inverse",
    "critical_point",
    "mu_ed",
    "mu_d",
    "mu_d_dual",
    "mu_d_timeshare_oracle",
    "optimal_channel",
]


def _check_open_half(name: str, v: float) -> float:
    v = float(v)
    if not 0.0 < v < 0.5:
        raise DomainError(f"{name}={v!r} must lie strictly inside (0, 1/2)")
    return v


def _check_pq(p: float, q: float) -> tuple[float, float]:
    return _check_open_half("p", p), _check_open_half("q", q)


def _check_rate(rate: float) -> float:
    rate = float(rate)
    if not rate >= 0.0:
        raise DomainError(f"rate must be nonnegative, got {rate!r}")
    return rate


def _check_rate_upto_hq(rate: float, q: float) -> tuple[float, float]:
    # rate in [0, h2(q)] up to 1e-12, not clamped; returns (rate, h2(q)); q checked
    rate = float(rate)
    hq = _h2(q)
    if not -1e-12 <= rate <= hq + 1e-12:
        raise DomainError(f"rate {rate!r} outside [0, h2(q)={hq!r}]")
    return rate, hq


@dataclass(frozen=True)
class BinaryModel:
    """Doubly symmetric binary source parameters.

    ``q`` is the crossover between the observed pair (X1 = X2 xor Bern(q));
    ``p`` is the crossover of the hidden link (Y = X xor Bern(p)).
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_open_half("p", self.p))
        object.__setattr__(self, "q", _check_open_half("q", self.q))

    def half_round_source(self) -> JointPmf:
        """Joint pmf over axes (x1, x2, y) with Y = X1 xor Bern(p)."""
        q_m = np.array([[1 - self.q, self.q], [self.q, 1 - self.q]])
        p_m = np.array([[1 - self.p, self.p], [self.p, 1 - self.p]])
        t = 0.5 * np.einsum("ba,ac->abc", q_m, p_m)  # a=x1, b=x2, c=y
        return JointPmf((Axis("x1", 2), Axis("x2", 2), Axis("y", 2)), t)

    def twcib_source(self) -> JointPmf:
        """Joint pmf over (x1, x2, y1, y2): Y1 = X2 xor Bern(p), Y2 = X1 xor Bern(p)."""
        q_m = np.array([[1 - self.q, self.q], [self.q, 1 - self.q]])
        p_m = np.array([[1 - self.p, self.p], [self.p, 1 - self.p]])
        t = 0.5 * np.einsum("ba,bc,ad->abcd", q_m, p_m, p_m)  # a=x1 b=x2 c=y1 d=y2
        return JointPmf(
            (Axis("x1", 2), Axis("x2", 2), Axis("y1", 2), Axis("y2", 2)), t)


# ---------------------------------------------------------------------------
# the two convex crossover curves and their calculus
# ---------------------------------------------------------------------------


def _g(r: float, q: float) -> float:
    return _h2(r * (1.0 - q) + q * (1.0 - r)) - _h2(r)


def g(r: float, q: float) -> float:
    """Rate curve h2(r * q) - h2(r); decreasing from h2(q) to 0 on [0, 1/2]."""
    return _g(_check_range("crossover r", float(r), 0.0, 1.0), _check_open_half("q", q))


def _first_form(p: float, q: float):
    # r -> (f(r), g(r)), f in its first algebraic form.  The binary
    # convolutions a*b = a(1-b) + b(1-a) and the entropies are written out,
    # operands in _star's and _h2's order, so that the values match them bit
    # for bit; what depends on (p, q) alone is computed once, here
    omq = 1.0 - q
    omp = 1.0 - p
    hpq = _h2(p * omq + q * omp)

    def first(r: float) -> tuple[float, float]:
        w = q * (1.0 - r) + r * omq   # star(q, r) == star(r, q)
        a = q * r / (1.0 - w)
        # near r = 1 rounding can put a an ulp above 1; on [0, 1/2] it stays
        # below 1/2 and the clamp is a no-op
        if a > 1.0:
            a = 1.0
        b = omq * r / w
        # h2 of star(p, a), star(p, b), w and r, each as in _h2
        x = p * (1.0 - a) + a * omp
        ha = 0.0
        if x > 0.0:
            ha -= x * log2(x)
        x = 1.0 - x
        if x > 0.0:
            ha -= x * log2(x)
        x = p * (1.0 - b) + b * omp
        hb = 0.0
        if x > 0.0:
            hb -= x * log2(x)
        x = 1.0 - x
        if x > 0.0:
            hb -= x * log2(x)
        hw = 0.0
        if w > 0.0:
            hw -= w * log2(w)
        x = 1.0 - w
        if x > 0.0:
            hw -= x * log2(x)
        hr = 0.0
        if r > 0.0:
            hr -= r * log2(r)
        x = 1.0 - r
        if x > 0.0:
            hr -= x * log2(x)
        return hpq - (1.0 - w) * ha - w * hb, hw - hr

    return first


def _f(r: float, p: float, q: float) -> float:
    return _first_form(p, q)(r)[0]


def f(r: float, p: float, q: float) -> float:
    """Relevance curve; first displayed algebraic form."""
    p, q = _check_pq(p, q)
    return _f(_check_range("crossover r", float(r), 0.0, 1.0), p, q)


def _second_form(p: float, q: float) -> tuple[float, float, float]:
    # (w, gam, dlt) of f's second algebraic form: w = p*q and the crossovers
    # gam, dlt of the hidden link given each test-channel output
    w = _star(p, q)
    return w, p * q / (1.0 - w), p * (1.0 - q) / w


def f_alt(r: float, p: float, q: float) -> float:
    """Relevance curve; second displayed algebraic form (cross-check of ``f``)."""
    r = _check_range("crossover r", float(r), 0.0, 1.0)
    p, q = _check_pq(p, q)
    w, gam, dlt = _second_form(p, q)
    return (_h2(_star(r, q))
            - (1.0 - w) * _h2(_star(r, gam))
            - w * _h2(_star(r, dlt)))


def _h2p(x: float) -> float:
    return log2((1.0 - x) / x)


def _g_prime(r: float, q: float) -> float:
    return (1.0 - 2.0 * q) * _h2p(_star(r, q)) - _h2p(r)


def g_prime(r: float, q: float) -> float:
    """Analytic derivative of ``g``; valid for r strictly inside (0, 1)."""
    q = _check_open_half("q", q)
    r = float(r)
    if not 0.0 < r < 1.0:
        raise DomainError(f"g_prime needs r in (0, 1), got {r!r}")
    return _g_prime(r, q)


def _f_prime(r: float, p: float, q: float) -> float:
    w, gam, dlt = _second_form(p, q)
    return ((1.0 - 2.0 * q) * _h2p(_star(r, q))
            - (1.0 - w) * (1.0 - 2.0 * gam) * _h2p(_star(r, gam))
            - w * (1.0 - 2.0 * dlt) * _h2p(_star(r, dlt)))


def f_prime(r: float, p: float, q: float) -> float:
    """Analytic derivative of ``f`` (via the second algebraic form)."""
    p, q = _check_pq(p, q)
    return _f_prime(_check_range("crossover r", float(r), 0.0, 1.0), p, q)


def _g_vec(r: np.ndarray, q: float) -> np.ndarray:
    return h2_arr(r * (1 - 2 * q) + q) - h2_arr(r)


def _f_vec(r: np.ndarray, p: float, q: float) -> np.ndarray:
    w, gam, dlt = _second_form(p, q)
    return (h2_arr(r * (1 - 2 * q) + q)
            - (1.0 - w) * h2_arr(r * (1 - 2 * gam) + gam)
            - w * h2_arr(r * (1 - 2 * dlt) + dlt))


def _h2p_vec(x: np.ndarray) -> np.ndarray:
    return np.log2((1.0 - x) / x)


def _g_prime_vec(r: np.ndarray, q: float) -> np.ndarray:
    return (1 - 2 * q) * _h2p_vec(r * (1 - 2 * q) + q) - _h2p_vec(r)


def _f_prime_vec(r: np.ndarray, p: float, q: float) -> np.ndarray:
    w, gam, dlt = _second_form(p, q)
    return ((1 - 2 * q) * _h2p_vec(r * (1 - 2 * q) + q)
            - (1 - w) * (1 - 2 * gam) * _h2p_vec(r * (1 - 2 * gam) + gam)
            - w * (1 - 2 * dlt) * _h2p_vec(r * (1 - 2 * dlt) + dlt))


def g_inverse(rate: float, q: float) -> float:
    """Unique r in [0, 1/2] with g(r) = rate; bisection on the decreasing branch."""
    q = _check_open_half("q", q)
    rate, hq = _check_rate_upto_hq(rate, q)
    rate = min(max(rate, 0.0), hq)
    if rate == 0.0:
        # g is quadratically flat at 1/2; bisection stalls on the float plateau
        return 0.5
    return bisect_decreasing_inverse(lambda r: _g(r, q), rate, 0.0, 0.5)


# ---------------------------------------------------------------------------
# critical point of the concave envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPoint:
    """Tangency point where the time-sharing segment meets the curved branch."""

    crossover: float    # r_c
    rate: float         # R_c = g(r_c)
    alpha_star: float   # envelope slope f(r_c) / R_c

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_star < 1.0:
            raise DomainError(f"alpha_star={self.alpha_star!r} outside (0, 1)")


_SCAN_N = 2048            # critical_point's sign-change scan
_DUAL_GRID_N = 4096       # mu_d_dual's inner r-grid
_DUAL_ALPHA_TOL = 1e-8    # mu_d_dual's golden-section tolerance on alpha
_TIMESHARE_GRID_N = 512   # mu_d_timeshare_oracle's r-grid


def critical_point(p: float, q: float) -> CriticalPoint:
    """Solve f'(r) g(r) = f(r) g'(r) for the interior tangency crossover r_c.

    Scans 2048 points of r in (0, 1/2) for a sign change of
    ``f' g - f g'`` and bisects the bracket.  When the map r -> f(r)/g(r) is
    monotone the tangency degenerates to the boundary (no time-sharing
    segment, R_c -> 0); that raises ``SolverError`` with the scan summary.
    """
    p, q = _check_pq(p, q)
    rs = np.linspace(1e-6, 0.5 - 1e-6, _SCAN_N)
    phi = _f_prime_vec(rs, p, q) * _g_vec(rs, q) - _f_vec(rs, p, q) * _g_prime_vec(rs, q)

    hits = np.nonzero((phi[:-1] > 0.0) & (phi[1:] <= 0.0))[0]
    if len(hits) == 0:
        raise SolverError(
            "no tangency sign change on (0, 1/2): "
            f"scan of {_SCAN_N} points has phi in [{phi.min():.3e}, {phi.max():.3e}]; "
            "the relevance-rate curve has no time-sharing segment (R_c -> 0)")
    lo, hi = float(rs[hits[0]]), float(rs[hits[0] + 1])

    first = _first_form(p, q)

    def phi_scalar(r: float) -> float:
        f_r, g_r = first(r)
        return _f_prime(r, p, q) * g_r - f_r * _g_prime(r, q)

    r_c = bisect_root(phi_scalar, lo, hi)
    if r_c > 0.5 - 1e-3:
        raise SolverError(
            f"tangency found only at the boundary (r_c={r_c!r}); "
            "treating the time-sharing segment as empty (R_c -> 0)")
    f_c, rate = first(r_c)
    return CriticalPoint(r_c, rate, f_c / rate)


@lru_cache(maxsize=256)
def _critical_or_none(p: float, q: float) -> CriticalPoint | None:
    try:
        return critical_point(p, q)
    except SolverError:
        return None


# ---------------------------------------------------------------------------
# relevance-rate functions
# ---------------------------------------------------------------------------


def mu_ed(rate: float, p: float, q: float) -> float:
    """Relevance-rate function with side information at encoder and decoder.

    Equals ``1 - h2(h2_inv([h2(q) - R]^+) * p)``; constant ``1 - h2(p)`` for
    R >= h2(q).
    """
    p, q = _check_pq(p, q)
    rate = _check_rate(rate)
    residual = max(_h2(q) - rate, 0.0)
    # exact inverse: the residual entropy is reached at crossover s
    return 1.0 - _h2(_star(h2_inv(residual), p))


def mu_d(rate: float, p: float, q: float) -> float:
    """Relevance-rate function with side information only at the decoder.

    Piecewise: linear with slope ``alpha*`` on [0, R_c], then
    ``1 - h2(p*q) + f(g^{-1}(R))`` up to h2(q), constant ``1 - h2(p)`` beyond.
    """
    p, q = _check_pq(p, q)
    rate = _check_rate(rate)
    if rate >= _h2(q):
        return 1.0 - _h2(p)
    base = 1.0 - _h2(_star(p, q))
    cp = _critical_or_none(p, q)
    if cp is not None and rate <= cp.rate:
        return base + cp.alpha_star * rate
    return base + _f(g_inverse(rate, q), p, q)


def mu_d_dual(rate: float, p: float, q: float) -> float:
    """Independent dual oracle for ``mu_d``:

        1 - h2(p*q) + min_{alpha in [0,1]} max_{r in [0,1/2]} f(r) + alpha (R - g(r))

    Outer golden section on alpha (tol 1e-8; the inner max is convex in
    alpha); inner maximisation by a dense 4096-point grid plus golden
    refinement (tol 1e-10) of the two highest interior local maxima and of
    the left edge.

    Cost: about 40 outer steps, each refining two or three grid brackets with
    about 34 objective evaluations apiece, so roughly 2,800 objective
    evaluations per call (2,788 at p = q = 0.1, R = 0.2; about 1,500 at
    R = 0 and R = h2(q)).  Most of them repeat an r that the same call has
    already evaluated, because the searches for nearby alphas retrace the
    same bracket points.  923 of the 2,788 are distinct; on random interior
    rates 27-42% are, and at R = 0 and R = h2(q) 2-15% (34-224 distinct r).
    So the objective is split into its alpha-free parts (F, G) = (f(r),
    g(r)), read from ``_first_form`` (one Python call for both) and memoised
    by r in a dict that lives for this one call; an evaluation returns
    F - alpha * G, the double f(r) - alpha * g(r) gives.  Nothing outlives
    the call but the r-grid and its f and g values, which are cached per
    ``(p, q)``.  A call takes about 2 ms on a 2-vCPU x86-64 host (median
    item of the ``binary-oracles`` benchmark), 3 ms without the memo.  The
    oracle shares that kernel with ``mu_d`` but neither its algorithm (min-max
    dual, not tangency plus inverse bisection) nor its grid (second form).
    """
    p, q = _check_pq(p, q)
    rate, _ = _check_rate_upto_hq(rate, q)
    rgrid, fg, gg = _curve_grids(p, q, _DUAL_GRID_N)
    hpq = _h2(_star(p, q))
    first = _first_form(p, q)
    # r -> (F, G), the alpha-free parts of the objective F - alpha * G; it
    # lives for this call only
    terms: dict[float, tuple[float, float]] = {}

    def inner_max(alpha: float) -> float:
        def objective(r: float) -> float:
            t = terms.get(r) or terms.setdefault(r, first(r))
            return t[0] - alpha * t[1]

        vals = fg - alpha * gg
        best = max(float(vals[0]), float(vals[-1]))
        interior = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
        if len(interior):
            order = interior[np.argsort(vals[interior])[::-1][:2]]
        else:
            order = []
        brackets = [(rgrid[i - 1], rgrid[i + 1]) for i in order]
        # the left edge hides a narrow spike for small alpha: always refine it
        brackets.append((float(rgrid[0]), float(rgrid[2])))
        for lo, hi in brackets:
            _, v = golden_max(objective, lo, hi, tol=1e-10)
            best = max(best, v)
        return best

    _, value = golden_min(lambda a: inner_max(a) + a * rate, 0.0, 1.0, tol=_DUAL_ALPHA_TOL)
    return 1.0 - hpq + value


@lru_cache(maxsize=64)
def _curve_grids(p: float, q: float, grid_n: int):
    # the r-grid on [0, 1/2] and f, g on it, shared by both oracles
    rgrid = np.linspace(0.0, 0.5, grid_n)
    return rgrid, _f_vec(rgrid, p, q), _g_vec(rgrid, q)


def mu_d_timeshare_oracle(rate: float, p: float, q: float) -> float:
    """Second oracle: brute-force two-point time sharing on a 512-point r-grid.

    Maximises ``1 - h2(p*q) + lam f(r1) + (1-lam) f(r2)`` subject to
    ``lam g(r1) + (1-lam) g(r2) = rate`` with lam solved from the constraint.
    Lower-bounds ``mu_d`` by construction; accuracy is limited by the grid.
    A rate within the 1e-12 slack outside [0, h2(q)] that ``mu_d_dual``
    accepts is clamped to the nearer end.  The grid and f, g on it are
    cached per (p, q), as for the dual oracle.

    Only two blocks of the grid's pairs are evaluated: r1 with
    g(r1) >= rate - 1e-12 against r2 with g(r2) <= rate + 1e-12, and the
    mirror block.  This is exact, not an approximation.  lam =
    (rate - g(r2)) / (g(r1) - g(r2)) lies in [0, 1] only if rate lies
    between g(r1) and g(r2), and the relative rounding of the differences
    and the quotient (a few 1e-16) is far below the 1e-12 margin, so the
    blocks hold every pair the full 512 x 512 grid would accept.  Each kept
    pair does the same float operations as on the full grid, and the max
    over a superset of the valid pairs is the same number.  The blocks have
    k (512 - k) pairs each, k the grid points with g(r) >= rate, which is
    small for most rates since g falls steeply near r = 0.
    """
    p, q = _check_pq(p, q)
    rate, hq = _check_rate_upto_hq(rate, q)
    rate = min(max(rate, 0.0), hq)
    _, fv, gv = _curve_grids(p, q, _TIMESHARE_GRID_N)

    def best_pair(rows: np.ndarray, cols: np.ndarray) -> float:
        g1, g2 = gv[rows][:, None], gv[cols][None, :]
        f1, f2 = fv[rows][:, None], fv[cols][None, :]
        den = g1 - g2
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(den != 0.0, (rate - g2) / den, np.nan)
        valid = np.isfinite(lam) & (lam >= 0.0) & (lam <= 1.0)
        obj = np.where(valid, lam * f1 + (1.0 - lam) * f2, -np.inf)
        # neither block is empty: the clamped rate lies in [0, h2(q)], and
        # the grid's g(0) and g(1/2) are within a few ulp of h2(q) and 0
        return float(obj.max())

    # the two blocks that can hold a valid pair (see the docstring)
    above = gv >= rate - 1e-12
    below = gv <= rate + 1e-12
    best = max(best_pair(above, below), best_pair(below, above))
    # degenerate single-point solutions g(r) == rate are covered in the limit;
    # include them explicitly for exactness at the endpoints
    exact = np.isclose(gv, rate, rtol=0.0, atol=1e-15)
    if exact.any():
        best = max(best, float(fv[exact].max()))
    return 1.0 - _h2(_star(p, q)) + best


# ---------------------------------------------------------------------------
# optimal test channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestChannelSpec:
    """Description of a relevance-optimal test channel on X1.

    ``kind`` is one of ``constant``, ``identity``, ``direct`` (a BSC with
    crossover ``r``) or ``timeshared`` (mix of a BSC(r_c) with weight ``lam``
    and an off symbol with weight ``1 - lam``).
    """

    kind: str
    r: float | None = None
    lam: float | None = None
    r_c: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "identity", "direct", "timeshared"):
            raise ArgumentError(f"unknown channel kind {self.kind!r}")
        if self.kind == "direct" and self.r is None:
            raise ArgumentError("a direct channel needs its crossover r")
        if self.kind == "timeshared" and (self.lam is None or self.r_c is None):
            raise ArgumentError("a timeshared channel needs both lam and r_c")
        if self.r is not None and not 0.0 <= self.r <= 0.5:
            raise DomainError(f"crossover r={self.r!r} outside [0, 1/2]")
        if self.r_c is not None and not 0.0 <= self.r_c <= 0.5:
            raise DomainError(f"crossover r_c={self.r_c!r} outside [0, 1/2]")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lam={self.lam!r} outside [0, 1]")

    def to_channel(self, input_axis: str = "x1", output_name: str = "u",
                   out_card: int | None = None) -> Channel:
        """Materialise as a :class:`Channel` (optionally padded with unused
        output symbols up to ``out_card``)."""
        if self.kind == "constant":
            return Channel.constant(((input_axis, 2),), output_name, out_card or 1)
        if self.kind == "identity":
            return Channel.bsc(input_axis, output_name, 0.0, out_card or 2)
        if self.kind == "direct":
            return Channel.bsc(input_axis, output_name, float(self.r), out_card or 2)
        card = out_card or 3
        if card < 3:
            raise ArgumentError("timeshared channel needs at least 3 output symbols")
        t = np.zeros((2, card))
        lam, rc = float(self.lam), float(self.r_c)
        t[0, 0] = t[1, 1] = lam * (1.0 - rc)
        t[0, 1] = t[1, 0] = lam * rc
        t[:, 2] = 1.0 - lam
        return Channel((input_axis,), Axis(output_name, card), t)


def optimal_channel(rate: float, p: float, q: float) -> TestChannelSpec:
    """Test channel achieving ``mu_d`` at the given rate.

    Identity beyond h2(q), a direct BSC(g^{-1}(R)) on the curved branch, and
    a time-shared BSC(r_c) with weight R/R_c on the linear segment.
    """
    p, q = _check_pq(p, q)
    rate = _check_rate(rate)
    if rate == 0.0:
        return TestChannelSpec("constant")
    if rate > _h2(q):
        return TestChannelSpec("identity")
    cp = _critical_or_none(p, q)
    if cp is None or rate > cp.rate:
        return TestChannelSpec("direct", r=g_inverse(rate, q))
    return TestChannelSpec("timeshared", lam=rate / cp.rate, r_c=cp.crossover)
