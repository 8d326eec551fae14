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
``_f_vec``, ``_g_prime_vec``, ``_f_prime_vec``, on ``bentropy._h2_arr`` and
``np.log2``) check nothing; ``_second_form`` alone holds the second form's
constants.  The twins stay apart on purpose: folding them moves last bits,
and the second-form array kernels keep both oracles independent of the
primal kernels.  Public functions check their arguments by ``guards``, once.
``_first_form(p, q)`` is the one scalar copy of ``f``'s first form,
``r -> (f(r), g(r))``; ``_g`` keeps ``g`` alone for the bisection of
``g_inverse``, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log2

import numpy as np

from . import guards
from .bentropy import _h2, _h2_arr, _star, h2_inv
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


@dataclass(frozen=True)
class BinaryModel:
    """Doubly symmetric binary source parameters.

    ``q`` is the crossover between the observed pair (X1 = X2 xor Bern(q));
    ``p`` is the crossover of the hidden link (Y = X xor Bern(p)).
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", guards.crossover("p", self.p))
        object.__setattr__(self, "q", guards.crossover("q", self.q))

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
    return _g(guards.prob("crossover r", r), guards.crossover("q", q))


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
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    return _f(guards.prob("crossover r", r), p, q)


def _second_form(p: float, q: float) -> tuple[float, float, float]:
    # (w, gam, dlt) of f's second algebraic form: w = p*q and the crossovers
    # gam, dlt of the hidden link given each test-channel output
    w = _star(p, q)
    return w, p * q / (1.0 - w), p * (1.0 - q) / w


def f_alt(r: float, p: float, q: float) -> float:
    """Relevance curve; second displayed algebraic form (cross-check of ``f``)."""
    r = guards.prob("crossover r", r)
    p, q = guards.crossover("p", p), guards.crossover("q", q)
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
    q = guards.crossover("q", q)
    r = guards.real("r", r)
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
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    return _f_prime(guards.prob("crossover r", r), p, q)


def _g_vec(r: np.ndarray, q: float) -> np.ndarray:
    return _h2_arr(r * (1 - 2 * q) + q) - _h2_arr(r)


def _f_vec(r: np.ndarray, p: float, q: float) -> np.ndarray:
    w, gam, dlt = _second_form(p, q)
    return (_h2_arr(r * (1 - 2 * q) + q)
            - (1.0 - w) * _h2_arr(r * (1 - 2 * gam) + gam)
            - w * _h2_arr(r * (1 - 2 * dlt) + dlt))


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
    """Unique r in [0, 1/2] with g(r) = rate, for a rate in [0, h2(q)], the
    range of g; bisection on the decreasing branch, to adjacent floats."""
    q = guards.crossover("q", q)
    return _g_inverse(guards.prob("rate", rate, _h2(q)), q)


def _g_inverse(rate: float, q: float) -> float:
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
    alpha_star: float   # envelope slope f(r_c) / R_c, in (0, 1)


_SCAN_N = 2048            # critical_point's sign-change scan
_DUAL_GRID_N = 4096       # mu_d_dual's inner r-grid
_DUAL_ALPHA_TOL = 1e-8    # mu_d_dual's golden-section tolerance on alpha
_DUAL_MEMO_CAP = 2 ** 15  # entries in each of mu_d_dual's two memo dicts
_TIMESHARE_GRID_N = 512   # mu_d_timeshare_oracle's r-grid


def critical_point(p: float, q: float) -> CriticalPoint:
    """Solve f'(r) g(r) = f(r) g'(r) for the interior tangency crossover r_c.

    Scans 2048 points of r in (0, 1/2) for a sign change of
    ``f' g - f g'`` and bisects the bracket.  When the map r -> f(r)/g(r) is
    monotone the tangency degenerates to the boundary (no time-sharing
    segment, R_c -> 0); that raises ``SolverError`` with the scan summary.
    So does a tangency past r = 1/2 - 1e-3, and one whose slope f(r_c)/R_c
    is not in (0, 1), which rounding gives for q near 1e-10.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
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
    slope = f_c / rate
    if not 0.0 < slope < 1.0:
        # q near 1e-10: f(r_c) is rounding noise and can come out negative
        raise SolverError(
            f"degenerate tangency at r_c={r_c!r}: slope f/g = {slope!r} is not in (0, 1); "
            "treating the time-sharing segment as empty (R_c -> 0)")
    return CriticalPoint(r_c, rate, slope)


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
    R >= h2(q), an unlimited rate included.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = guards.rate("rate", rate)
    residual = max(_h2(q) - rate, 0.0)
    # exact inverse: the residual entropy is reached at crossover s
    return 1.0 - _h2(_star(h2_inv(residual), p))


def mu_d(rate: float, p: float, q: float) -> float:
    """Relevance-rate function with side information only at the decoder.

    Piecewise: linear with slope ``alpha*`` on [0, R_c], then
    ``1 - h2(p*q) + f(g^{-1}(R))`` up to h2(q), constant ``1 - h2(p)`` beyond,
    an unlimited rate included.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = guards.rate("rate", rate)
    if rate >= _h2(q):
        return 1.0 - _h2(p)
    base = 1.0 - _h2(_star(p, q))
    cp = _critical_or_none(p, q)
    if cp is not None and rate <= cp.rate:
        return base + cp.alpha_star * rate
    return base + _f(_g_inverse(rate, q), p, q)


def mu_d_dual(rate: float, p: float, q: float) -> float:
    """Independent dual oracle for ``mu_d``:

        1 - h2(p*q) + min_{alpha in [0,1]} max_{r in [0,1/2]} f(r) + alpha (R - g(r))

    Outer golden section on alpha (tol 1e-8; the inner max is convex in
    alpha); inner maximisation by a dense 4096-point grid plus golden
    refinement (tol 1e-10) of the two highest interior local maxima and of
    the left edge.

    Cost: roughly 2,800 objective evaluations per call, most of them at an
    r the call has already tried (923 of 2,788 distinct at p = q = 0.1,
    R = 0.2), and calls on one model at other rates try many of the same r
    and alpha.  So the alpha-free parts (F, G) = (f(r), g(r)), read from
    ``_first_form``, are memoised by r, and an evaluation returns
    F - alpha * G, the double f(r) - alpha * g(r) gives.  The inner max is
    memoised by alpha: it does not depend on the rate, and every rate's
    golden section on alpha starts from the same two points.  Each entry is
    a pure function of ``(p, q)`` and its key, so the memos move no bit.
    They outlive the call but hold the last ``(p, q)`` only, and each is
    cleared when it reaches ``_DUAL_MEMO_CAP`` = 32,768 entries: on CPython
    3.11 at most 5.5 MB of (F, G) and 2.9 MB of inner maxima.  The r-grid
    and its f and g values are cached per ``(p, q)``.  The oracle shares
    that kernel with ``mu_d`` but neither its algorithm (min-max dual, not
    tangency plus inverse bisection) nor its grid (second form).  A rate
    above h2(q), an unlimited one included, reads as h2(q), where ``mu_d``
    saturates.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = min(guards.rate("rate", rate), _h2(q))
    rgrid, fg, gg = _curve_grids(p, q, _DUAL_GRID_N)
    hpq = _h2(_star(p, q))
    first = _first_form(p, q)
    terms, peaks = _dual_memo(p, q)

    def inner_max(alpha: float) -> float:
        best = peaks.get(alpha)
        if best is not None:
            return best

        def objective(r: float) -> float:
            t = terms.get(r)
            if t is None:
                if len(terms) >= _DUAL_MEMO_CAP:
                    terms.clear()
                t = terms[r] = first(r)
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
        if len(peaks) >= _DUAL_MEMO_CAP:
            peaks.clear()
        peaks[alpha] = best
        return best

    _, value = golden_min(lambda a: inner_max(a) + a * rate, 0.0, 1.0, tol=_DUAL_ALPHA_TOL)
    return 1.0 - hpq + value


@lru_cache(maxsize=1)
def _dual_memo(p: float, q: float) -> tuple[dict, dict]:
    # mu_d_dual's memos of the last model called: r -> (F, G), alpha -> inner max
    return {}, {}


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
    A rate above h2(q) is read as h2(q), as in ``mu_d_dual``.  The grid and
    f, g on it are cached per (p, q), as for the dual oracle.

    Only two blocks of the grid's pairs are evaluated, exactly: r1 with
    g(r1) >= rate - 1e-12 against r2 with g(r2) <= rate + 1e-12, and the
    mirror block.  lam lies in [0, 1] only if rate lies between g(r1) and
    g(r2), and its rounding (a few 1e-16) is far below the 1e-12 margin, so
    the blocks hold every pair the full 512 x 512 grid would accept, each
    computed with the same float operations.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = min(guards.rate("rate", rate), _h2(q))
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
        if not (isinstance(self.kind, str)
                and self.kind in ("constant", "identity", "direct", "timeshared")):
            raise ArgumentError(f"unknown channel kind {self.kind!r}")
        if self.kind == "direct" and self.r is None:
            raise ArgumentError("a direct channel needs its crossover r")
        if self.kind == "timeshared" and (self.lam is None or self.r_c is None):
            raise ArgumentError("a timeshared channel needs both lam and r_c")
        for name, v, hi in (("r", self.r, 0.5), ("r_c", self.r_c, 0.5), ("lam", self.lam, 1.0)):
            if v is not None and guards.prob(name, v, hi) != v:   # clamped from the slack
                object.__setattr__(self, name, guards.prob(name, v, hi))

    def to_channel(self, output_name: str = "u", out_card: int | None = None) -> Channel:
        """Materialise as a :class:`Channel` on ``x1`` (optionally padded with
        unused output symbols up to ``out_card``)."""
        if out_card is None:
            out_card = {"constant": 1, "timeshared": 3}.get(self.kind, 2)
        if self.kind == "constant":
            return Channel.constant((("x1", 2),), output_name, out_card)
        if self.kind == "identity":
            return Channel.bsc("x1", output_name, 0.0, out_card)
        if self.kind == "direct":
            return Channel.bsc("x1", output_name, float(self.r), out_card)
        output = Axis(output_name, out_card)
        if output.card < 3:
            raise ArgumentError("timeshared channel needs at least 3 output symbols")
        t = np.zeros((2, output.card))
        lam, rc = float(self.lam), float(self.r_c)
        t[0, 0] = t[1, 1] = lam * (1.0 - rc)
        t[0, 1] = t[1, 0] = lam * rc
        t[:, 2] = 1.0 - lam
        return Channel(("x1",), output, t)


def optimal_channel(rate: float, p: float, q: float) -> TestChannelSpec:
    """Test channel achieving ``mu_d`` at the given rate.

    Identity beyond h2(q), a direct BSC(g^{-1}(R)) on the curved branch, and
    a time-shared BSC(r_c) with weight R/R_c on the linear segment.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = guards.rate("rate", rate)
    if rate == 0.0:
        return TestChannelSpec("constant")
    if rate > _h2(q):
        return TestChannelSpec("identity")
    cp = _critical_or_none(p, q)
    if cp is None or rate > cp.rate:
        return TestChannelSpec("direct", r=_g_inverse(rate, q))
    return TestChannelSpec("timeshared", lam=rate / cp.rate, r_c=cp.crossover)
