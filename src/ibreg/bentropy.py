"""Binary-entropy scalar utilities.

All quantities are in bits (logarithms base 2).  ``star`` is the binary
convolution ``a*b = a(1-b) + b(1-a)``, i.e. the crossover probability of two
cascaded binary symmetric channels.

Validation rule: each public function checks and clamps its arguments by
the probability rule of ``guards`` (``h2_arr`` entry by entry), then calls a
private kernel of the same name with a leading underscore (``_h2``,
``_star``, ``_h2_arr``).  The kernel holds the only copy of the formula,
assumes in-domain floats and checks nothing; besides its public twin, only
functions that validated their inputs at entry call it (``h2_inv`` and
``gerber_bound`` here, the curve solvers in ``binary``).  ``_xlog2x``
(m log2 m) underlies ``_h2_arr``, ``pmf``'s entropies and ``search``.
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
    # elementwise m log2 m with 0 log 0 = 0; NaN stays NaN.  Without a zero
    # (or a NaN, which fails the test) the mask selects every entry, so the
    # plain product gives the same bytes and skips the mask.  An empty array
    # has no min and takes the masked path
    if m.size and m.min() > 0.0:
        return m * np.log2(m)
    out = np.zeros_like(m)
    np.log2(m, out=out, where=m > 0.0)
    return m * out


def _h2_arr(x: np.ndarray) -> np.ndarray:
    # asarray keeps a 0-d input a 0-d array, not a numpy scalar
    return np.asarray(0.0 - _xlog2x(x) - _xlog2x(1.0 - x))


def h2_arr(x) -> np.ndarray:
    """Vectorised binary entropy of probabilities, 0*log(0) = 0."""
    return _h2_arr(probs("x", x))


def h2_inv(y: float) -> float:
    """Unique x in [0, 1/2] with h2(x) = y.

    Plain bisection, 60 iterations: monotone, derivative-free and
    unconditionally convergent; leaves |h2(x) - y| <= 1e-12.
    """
    y = prob("y", y)
    if y == 1.0:
        # h2 is flat at 1/2; bisection would stall on the float plateau
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _h2(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _star(a: float, b: float) -> float:
    return a * (1.0 - b) + b * (1.0 - a)


def star(a: float, b: float) -> float:
    """Binary convolution a(1-b) + b(1-a) of crossover probabilities."""
    return _star(prob("a", a), prob("b", b))


def gerber_bound(entropy_bits: float, p: float) -> float:
    """Mrs. Gerber lower bound h2(h2_inv(H) * p) on the output conditional entropy.

    ``entropy_bits`` is the conditional input entropy H in [0, 1]; ``p`` is the
    crossover of the binary symmetric channel, in [0, 1/2].
    """
    h = prob("entropy_bits", entropy_bits)
    p = prob("p", p, 0.5)
    return _h2(_star(h2_inv(h), p))
