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
``bentropy._h2``/``_star`` and ``math.log2``) and the array kernels
(``_fg_vec`` for f and g, and f', g' in ``_tangency_scan``, which share its
star arrays; on ``bentropy._h2_arr`` and ``np.log2``) check nothing;
``_second_form`` alone holds the second form's constants.  The twins stay
apart on purpose: folding them moves last bits, and the second-form array
kernels keep both oracles independent of the primal kernels.  Public
functions check their arguments by ``guards``, once.
``_first_form(p, q)`` is the one scalar copy of ``f``'s first form,
``r -> (f(r), g(r))`` on [0, 1/2], where ``f`` maps every r, and keeps only
the guards that can fail there; ``_g`` is ``g``'s kernel.  ``_g_inverse``'s
loop carries ``_g``'s arithmetic written out, and a test pins it to
``bisect_decreasing_inverse`` on ``_g``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, log2

import numpy as np

from . import guards
from .bentropy import _gerber, _h2, _h2_arr, _star
from .errors import ArgumentError, DomainError, SolverError
from .optimize import _BISECT_ITERATIONS, _INVPHI, bisect_root, golden_min
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
    # r -> (f(r), g(r)) on [0, 1/2], f in its first algebraic form, with _star
    # and _h2 written out (README, "Speed never moves a bit"); (p, q) parts once
    omq = 1.0 - q
    omp = 1.0 - p
    hpq = _h2(p * omq + q * omp)

    def first(r: float) -> tuple[float, float]:
        w = q * (1.0 - r) + r * omq   # star(q, r) == star(r, q)
        a = q * r / (1.0 - w)
        b = omq * r / w
        # h2 of star(p, a), star(p, b), w and r, each as in _h2, with only
        # the two of its positivity guards that can fail on [0, 1/2]
        x = p * (1.0 - a) + a * omp
        y = 1.0 - x
        ha = -(x * log2(x)) - y * log2(y)
        x = p * (1.0 - b) + b * omp
        y = 1.0 - x
        hb = -(x * log2(x))
        if y > 0.0:   # 0 at r = 1/2 for p and q below about 1e-16
            hb -= y * log2(y)
        y = 1.0 - w
        hw = -(w * log2(w)) - y * log2(y)
        y = 1.0 - r
        hr = -(r * log2(r)) - y * log2(y) if r > 0.0 else 0.0   # f(0), f(1)
        return hpq - (1.0 - w) * ha - w * hb, hw - hr

    return first


def f(r: float, p: float, q: float) -> float:
    """Relevance curve; first displayed algebraic form, at 1 - r for r > 1/2
    (f is symmetric about 1/2, 1 - r is exact there, and the form cancels).
    That map puts every r in [0, 1/2], the domain of the kernel."""
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    r = guards.prob("crossover r", r)
    return _first_form(p, q)(r if r <= 0.5 else 1.0 - r)[0]


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
    # log2((1 - x)/x), whose ratio can overflow where x is subnormal and 1 - x is 1
    if x < 2.0 ** -1022:
        return -log2(x)
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


def _f_prime(r: float, q: float, w: float, gam: float, dlt: float) -> float:
    # f'(r) on the second form's constants (w, gam, dlt) = _second_form(p, q)
    return ((1.0 - 2.0 * q) * _h2p(_star(r, q))
            - (1.0 - w) * (1.0 - 2.0 * gam) * _h2p(_star(r, gam))
            - w * (1.0 - 2.0 * dlt) * _h2p(_star(r, dlt)))


def f_prime(r: float, p: float, q: float) -> float:
    """Analytic derivative of ``f`` (via the second algebraic form); ``DomainError``
    where a crossover r*x of the form rounds to 0 or 1 and has no log-ratio."""
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    r = guards.prob("crossover r", r)
    try:
        return _f_prime(r, q, *_second_form(p, q))
    except ValueError:
        raise DomainError(f"f_prime(r={r!r}, p={p!r}, q={q!r}): a crossover of the "
                          "second form rounds to 0 or 1") from None


def _fg_vec(r: np.ndarray, p: float, q: float):
    # (f, g) on an array of r, f in its second form, and the star arrays
    # (r*q, r*gam, r*dlt) they are built on, for critical_point's scan
    w, gam, dlt = _second_form(p, q)
    stars = r * (1 - 2 * q) + q, r * (1 - 2 * gam) + gam, r * (1 - 2 * dlt) + dlt
    h_q = _h2_arr(stars[0])
    return (h_q - (1.0 - w) * _h2_arr(stars[1]) - w * _h2_arr(stars[2]),
            h_q - _h2_arr(r), stars)


def g_inverse(rate: float, q: float) -> float:
    """Unique r in [0, 1/2] with g(r) = rate, for a rate in [0, h2(q)], the
    range of g; bisection on the decreasing branch, to adjacent floats.

    The loop is ``bisect_decreasing_inverse``'s steps on [0, 1/2], with g
    evaluated inline in ``_g``'s products and order, without ``_h2``'s
    positivity guards, which all hold: mid lies in [2**-101, 1/2] and q in
    (0, 1/2), so x = mid (1 - q) + q (1 - mid) lies in (0, 1/2]; nor does it
    test for a zero mid or check the 2**-101-wide bracket 100 halvings leave.
    So the result has the same bits (README, "Speed never moves a bit").
    """
    q = guards.crossover("q", q)
    return _g_inverse(guards.prob("rate", rate, _h2(q)), q)


def _g_inverse(rate: float, q: float) -> float:
    if rate == 0.0:
        # g is quadratically flat at 1/2; bisection stalls on the float plateau
        return 0.5
    omq = 1.0 - q
    lo, hi = 0.0, 0.5
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        # _g(mid, q): h2 of star(mid, q) less h2(mid), each as in _h2 with
        # -a for _h2's 0.0 - a; they differ only in the sign of a zero
        x = mid * omq + q * (1.0 - mid)
        y = 1.0 - x
        v = 1.0 - mid
        if (-(x * log2(x)) - y * log2(y)) - (-(mid * log2(mid)) - v * log2(v)) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
_EDGE_R = 0.5 - 1e-3      # a tangency past this r counts as the boundary
_DUAL_GRID_N = 4096       # mu_d_dual's inner r-grid
_DUAL_ALPHA_TOL = 1e-8    # mu_d_dual's golden-section tolerance on alpha
_DUAL_MEMO_CAP = 2 ** 15  # mu_d_dual clears a memo this full at a call's start
_DUAL_SKIP_MARGIN = 1e-9  # mu_d_dual's bracket bound's allowance for kernel rounding
_TIMESHARE_GRID_N = 512   # mu_d_timeshare_oracle's r-grid


def critical_point(p: float, q: float) -> CriticalPoint:
    """Solve f'(r) g(r) = f(r) g'(r) for the interior tangency crossover r_c.

    Scans 2048 points of r in (0, 1/2) for a sign change of
    ``f' g - f g'`` and bisects the bracket.  When the map r -> f(r)/g(r) is
    monotone the tangency degenerates to the boundary (no time-sharing
    segment, R_c -> 0); that raises ``SolverError`` with the scan summary.
    So does a tangency past r = 1/2 - 1e-3 (a bracket past it is not
    bisected), a bracket where the scalar phi has no sign change (the
    scan's was rounding noise), and one with R_c <= 0 or a slope
    f(r_c)/R_c not in (0, 1), which rounding gives for q near 1e-19 or 1e-10.

    Cost: about 0.16 ms a call at p = q = 0.1 (2-vCPU x86-64), 0.09 ms of
    it the scan, which forms each star array, entropy and log-ratio once.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    found, lo, hi = _tangency_scan(p, q)
    if not found:
        raise SolverError(
            "no tangency sign change on (0, 1/2): "
            f"scan of {_SCAN_N} points has phi in [{lo:.3e}, {hi:.3e}]; "
            "the relevance-rate curve has no time-sharing segment (R_c -> 0)")
    if lo > _EDGE_R:
        raise SolverError(
            f"tangency found only at the boundary (scan bracket [{lo!r}, {hi!r}]); "
            "treating the time-sharing segment as empty (R_c -> 0)")

    first = _first_form(p, q)
    w, gam, dlt = _second_form(p, q)

    def phi_scalar(r: float) -> float:
        f_r, g_r = first(r)
        return _f_prime(r, q, w, gam, dlt) * g_r - f_r * _g_prime(r, q)

    try:
        r_c = bisect_root(phi_scalar, lo, hi)
    except SolverError as exc:
        raise SolverError(
            f"no tangency in the scan bracket [{lo!r}, {hi!r}]: the scalar phi has no "
            "sign change there; the relevance-rate curve has no time-sharing segment "
            "(R_c -> 0)") from exc
    if r_c > _EDGE_R:
        raise SolverError(
            f"tangency found only at the boundary (r_c={r_c!r}); "
            "treating the time-sharing segment as empty (R_c -> 0)")
    f_c, rate = first(r_c)
    if not (rate > 0.0 and 0.0 < f_c / rate < 1.0):
        # q near 1e-10: f(r_c) is rounding noise; near 1e-19, R_c rounds to 0
        raise SolverError(
            f"degenerate tangency at r_c={r_c!r}: slope f/g = {f_c!r}/{rate!r} is not in "
            "(0, 1); treating the time-sharing segment as empty (R_c -> 0)")
    return CriticalPoint(r_c, rate, f_c / rate)


def _tangency_scan(p: float, q: float) -> tuple[bool, float, float]:
    # critical_point's scan, in a frame of its own so that a raised
    # SolverError keeps no scan array alive in its traceback: (True, lo, hi)
    # around the first step of phi from > 0 to <= 0, else (False, min, max)
    rs = np.linspace(1e-6, 0.5 - 1e-6, _SCAN_N)
    f_v, g_v, (s_q, s_gam, s_dlt) = _fg_vec(rs, p, q)
    w, gam, dlt = _second_form(p, q)
    # f' and g', the array twins of _f_prime and _g_prime, on f's star arrays
    d_q = (1 - 2 * q) * np.log2((1.0 - s_q) / s_q)
    fp_v = (d_q - (1 - w) * (1 - 2 * gam) * np.log2((1.0 - s_gam) / s_gam)
            - w * (1 - 2 * dlt) * np.log2((1.0 - s_dlt) / s_dlt))
    phi = fp_v * g_v - f_v * (d_q - np.log2((1.0 - rs) / rs))
    hits = np.nonzero((phi[:-1] > 0.0) & (phi[1:] <= 0.0))[0]
    if len(hits) == 0:
        return False, float(phi.min()), float(phi.max())
    return True, float(rs[hits[0]]), float(rs[hits[0] + 1])


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

    Equals ``1 - gerber_bound([h2(q) - R]^+, p)``, that is
    ``1 - h2(h2_inv([h2(q) - R]^+) * p)``; constant ``1 - h2(p)`` for
    R >= h2(q), an unlimited rate included.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = guards.rate("rate", rate)
    return 1.0 - _gerber(max(_h2(q) - rate, 0.0), p)


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
    return base + _first_form(p, q)(_g_inverse(rate, q))[0]


def mu_d_dual(rate: float, p: float, q: float) -> float:
    """Independent dual oracle for ``mu_d``:

        1 - h2(p*q) + min_{alpha in [0,1]} max_{r in [0,1/2]} f(r) + alpha (R - g(r))

    Outer golden section on alpha (tol 1e-8; the inner max is convex in
    alpha); inner maximisation by a dense 4096-point grid plus golden
    refinement (tol 1e-10) of the two highest interior local maxima and of
    the left edge.  Both searches skip the work a bound already decides: a
    refinement whose bracket cannot beat the best value so far, and an
    alpha whose floor, the grid's end values, settles the next comparison.

    Cost: about 850-1,550 objective evaluations per call (2,800 without the
    bounds), many at an r or alpha that this or an earlier call on the model
    has tried.  So the grid is cached per ``(p, q)``, and for the last
    ``(p, q)`` the ``_first_form`` kernel, (f(r), g(r)) by r and the inner
    max by alpha.  A call clears each memo it finds at ``_DUAL_MEMO_CAP`` =
    32,768 entries or more, and adds at most 4,059 r and 41 alphas; the
    written-out scan and inner search, the bounds, and why no bit moves:
    README, "Speed never moves a bit".
    The oracle shares that kernel with ``mu_d`` but neither its algorithm
    (min-max dual, not tangency plus inverse bisection) nor its grid (second
    form).  A rate above h2(q), an unlimited one included, reads as h2(q),
    where ``mu_d`` saturates.
    """
    p, q = guards.crossover("p", p), guards.crossover("q", q)
    rate = min(guards.rate("rate", rate), _h2(q))
    rgrid, fg, gg = _curve_grids(p, q, _DUAL_GRID_N)
    vals, (peak, down) = np.empty_like(fg), np.empty((2, fg.size - 2), bool)
    r, f_at, g_at = rgrid.item, fg.item, gg.item
    f0, g0, f1, g1 = f_at(0), g_at(0), f_at(-1), g_at(-1)
    first, terms, peaks = _dual_memo(p, q)
    # golden_min tries at most 41 alphas, each refines at most 3 brackets of
    # at most 33 points: so a memo bounded here stays under cap + 4,059
    for memo in (terms, peaks):
        if len(memo) >= _DUAL_MEMO_CAP:
            memo.clear()

    def inner_max(alpha: float) -> float:
        if (best := peaks.get(alpha)) is not None:
            return best
        best, ks = _dual_grid_scan(alpha, fg, gg, vals, peak, down)
        # the left edge (k = 0) hides a narrow spike for small alpha: refine
        # it and each peak's bracket [r_k, r_k+2] unless the bracket cannot
        # beat best, where max(best, .) keeps best: f and g fall on [0, 1/2]
        # and alpha >= 0, so no value there tops F(r_k) - alpha G(r_k+2),
        # up to the grid's and the first form's rounding, far below the margin
        for k in (*ks, 0):
            if f_at(k) - alpha * g_at(k + 2) + _DUAL_SKIP_MARGIN >= best:
                best = max(best, _dual_bracket_max(terms, first, alpha, r(k), r(k + 2)))
        peaks[alpha] = best
        return best

    def floor(a: float) -> float:
        # inner_max(a) starts from this max, formed with the grid scan's
        # operations, and only grows; float addition is monotone, so the
        # objective is at least this, exactly
        return max(f0 - a * g0, f1 - a * g1) + a * rate

    _, value = golden_min(lambda a: inner_max(a) + a * rate, 0.0, 1.0, tol=_DUAL_ALPHA_TOL,
                          bound=floor)
    return 1.0 - _h2(_star(p, q)) + value


def _dual_grid_scan(alpha: float, fg: np.ndarray, gg: np.ndarray,
                    vals: np.ndarray, peak: np.ndarray, down: np.ndarray):
    """max(v[0], v[-1]) for v = ``fg - alpha * gg``, formed in the caller's buffers, and the
    indices k = i - 1 of v's two highest interior local maxima i, highest first: the
    brackets (r[k], r[k+2])."""
    np.multiply(gg, alpha, out=vals)
    np.subtract(fg, vals, out=vals)
    mid = vals[1:-1]
    np.greater_equal(mid, vals[:-2], out=peak)
    np.greater_equal(mid, vals[2:], out=down)
    peak &= down
    j = peak.nonzero()[0]   # interior maxima i = j + 1
    if len(j) > 1:
        j = j[np.argsort(mid[j])[::-1][:2]]
    return max(vals.item(0), vals.item(-1)), j.tolist()


def _dual_bracket_max(terms: dict, first, alpha: float, lo: float, hi: float) -> float:
    """``golden_max(lambda r: F - alpha G, lo, hi, 1e-10)[1]`` written out, with (F, G) =
    ``terms[r]``, or ``first(r)`` stored there on a miss, inline at each evaluation:
    none at the last step's new point (README, "Speed never moves a bit")."""
    get, put = terms.get, terms.setdefault
    invphi = _INVPHI
    # primed: the first c held as d, c = a, fc = -inf.  No stall guard:
    # floats in [0, 1/2] are at most 2^-54 apart, so each step from
    # v > 1e-10 leaves the next v <= 0.6181 v + 1.2e-16 < v
    a, b = lo, hi
    d = b - invphi * (b - a)
    t = get(d) or put(d, first(d))
    fd = t[0] - alpha * t[1]
    c, fc = a, -inf
    while True:
        if fc > fd:
            b, d, fd = d, c, fc
            v = b - a
            if not v > 1e-10:
                break
            c = b - invphi * v
            t = get(c) or put(c, first(c))
            fc = t[0] - alpha * t[1]
        else:
            a, c, fc = c, d, fd
            v = b - a
            if not v > 1e-10:
                break
            d = a + invphi * v
            t = get(d) or put(d, first(d))
            fd = t[0] - alpha * t[1]
    x = 0.5 * (a + b)
    t = get(x) or put(x, first(x))
    return t[0] - alpha * t[1]


@lru_cache(maxsize=1)
def _dual_memo(p: float, q: float):
    # mu_d_dual's kernel and memos of the last model called: the first form,
    # r -> (F, G) and alpha -> inner max
    return _first_form(p, q), {}, {}


@lru_cache(maxsize=64)
def _curve_grids(p: float, q: float, grid_n: int):
    # the r-grid on [0, 1/2] and f, g on it, shared by both oracles: read-only
    rgrid = np.linspace(0.0, 0.5, grid_n)
    grids = rgrid, *_fg_vec(rgrid, p, q)[:2]
    for a in grids:
        a.flags.writeable = False
    return grids


def mu_d_timeshare_oracle(rate: float, p: float, q: float) -> float:
    """Second oracle: brute-force two-point time sharing on a 512-point r-grid.

    Maximises ``1 - h2(p*q) + lam f(r1) + (1-lam) f(r2)`` subject to
    ``lam g(r1) + (1-lam) g(r2) = rate`` with lam solved from the constraint.
    Lower-bounds ``mu_d`` by construction; accuracy is limited by the grid.
    A rate above h2(q) is read as h2(q), as in ``mu_d_dual``.  The grid and
    f, g on it are cached per (p, q), as for the dual oracle.  Only the two
    blocks of pairs that can meet the constraint are evaluated (README,
    "Speed never moves a bit").
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
            if v is not None:   # a spill past an end is clamped onto it
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
