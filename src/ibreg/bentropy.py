"""Binary-entropy scalar utilities.

All quantities are in bits (logarithms base 2).  ``star`` is the binary
convolution ``a*b = a(1-b) + b(1-a)``, i.e. the crossover probability of two
cascaded binary symmetric channels.

Validation rule: each public function checks and clamps its arguments by
the probability rule of ``guards`` (``h2_arr`` entry by entry), then calls a
private kernel with a leading underscore (``_h2``, ``_star``, ``_h2_arr``,
``_gerber``).  The kernel holds the formula, assumes in-domain floats and
checks nothing; besides its public twin, only other kernels and functions
that validated their inputs at entry call it (the curve solvers and
``mu_ed`` in ``binary``).  Three hot paths carry ``_h2``'s arithmetic
written out, each pinned by a test to the same steps on ``_h2``:
``h2_inv`` here and ``binary``'s ``_first_form`` and ``_g_inverse``.
``_xlog2x`` (m log2 m) underlies ``_h2_arr``, ``pmf``'s entropies and
``search``.
"""

from __future__ import annotations

from math import log2

import numpy as np

from .guards import prob, probs

__all__ = ["h2", "h2_inv", "star", "gerber_bound", "h2_arr"]


def _h2(x: float) -> float:
    # math.log2, not np.log2: the two differ in the last digit for about
    # 0.2% of arguments, and every frozen value was computed with this one
    out = 0.0
    if x > 0.0:
        out -= x * log2(x)
    v = 1.0 - x
    if v > 0.0:
        out -= v * log2(v)
    return out


def h2(x: float) -> float:
    """Binary entropy -x*log2(x) - (1-x)*log2(1-x), with 0*log(0) = 0."""
    return _h2(prob("x", x))


def _xlog2x(m: np.ndarray) -> np.ndarray:
    # elementwise m log2 m with 0 log 0 = 0; NaN stays NaN.  An entry that is
    # not positive (zero, negative or NaN) is multiplied by log2(1) = 0, as
    # by the 0 a masked log2 would leave there, so -0.0, negatives and NaN
    # keep their bytes too.  Without such an entry the plain product gives
    # the same bytes and skips the where.  An empty array has no min and
    # takes the where path
    if m.size and m.min() > 0.0:
        return m * np.log2(m)
    return m * np.log2(np.where(m > 0.0, m, 1.0))


def _h2_arr(x: np.ndarray) -> np.ndarray:
    # asarray keeps a 0-d input a 0-d array, not a numpy scalar
    return np.asarray(0.0 - _xlog2x(x) - _xlog2x(1.0 - x))


def h2_arr(x) -> np.ndarray:
    """Vectorised binary entropy of probabilities, 0*log(0) = 0."""
    return _h2_arr(probs("x", x))


def h2_inv(y: float) -> float:
    """Unique x in [0, 1/2] with h2(x) = y.

    Plain bisection, 60 iterations: monotone, derivative-free and
    unconditionally convergent; leaves |h2(x) - y| <= 1e-12.  Each step
    evaluates h2 inline with ``_h2``'s products in ``_h2``'s order, without
    its guards, which hold for a midpoint in [2**-61, 1/2); so the result
    has the bits of the same loop on ``_h2``.  It runs all 60 steps, with no
    stop at adjacent floats (README, "Speed never moves a bit").
    """
    y = prob("y", y)
    if y == 1.0:
        # h2 is flat at 1/2; bisection would stall on the float plateau
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        # _h2(mid), written out; -a and _h2's 0.0 - a differ only in the
        # sign of a zero, which < does not see
        v = 1.0 - mid
        if -(mid * log2(mid)) - v * log2(v) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _star(a: float, b: float) -> float:
    return a * (1.0 - b) + b * (1.0 - a)


def star(a: float, b: float) -> float:
    """Binary convolution a(1-b) + b(1-a) of crossover probabilities."""
    return _star(prob("a", a), prob("b", b))


def _gerber(h: float, p: float) -> float:
    return _h2(_star(h2_inv(h), p))


def gerber_bound(entropy_bits: float, p: float) -> float:
    """Mrs. Gerber lower bound h2(h2_inv(H) * p) on the output conditional entropy.

    ``entropy_bits`` is the conditional input entropy H in [0, 1]; ``p`` is the
    crossover of the binary symmetric channel, in [0, 1/2].
    """
    return _gerber(prob("entropy_bits", entropy_bits), prob("p", p, 0.5))
