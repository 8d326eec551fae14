"""Binary-entropy scalar utilities.

All quantities are in bits (logarithms base 2).  ``star`` is the binary
convolution ``a*b = a(1-b) + b(1-a)``, i.e. the crossover probability of two
cascaded binary symmetric channels.

Validation rule: each public function checks and clamps its arguments, then
calls a private kernel of the same name with a leading underscore (``_h2``,
``_star``).  The kernel holds the only copy of the formula, assumes in-domain
floats and checks nothing; besides its public twin, only functions that
validated their own inputs at entry call it (``h2_inv`` and ``gerber_bound``
here, the curve solvers in ``binary``).  The one array kernel is
``_xlog2x``: ``h2_arr`` and the search kernel in ``search`` build on it.
"""

from __future__ import annotations

from math import log2

import numpy as np

from .errors import DomainError

__all__ = ["h2", "h2_inv", "star", "gerber_bound", "h2_arr"]

_EPS = 1e-12


def _check_range(name: str, x: float, lo: float, hi: float) -> float:
    # tolerate floating spill just outside the interval, reject real violations
    # (written so that NaN fails the comparison too)
    if not lo - _EPS <= x <= hi + _EPS:
        raise DomainError(f"{name}={x!r} outside [{lo}, {hi}]")
    return min(max(x, lo), hi)


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
    return _h2(_check_range("x", float(x), 0.0, 1.0))


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


def h2_arr(x) -> np.ndarray:
    """Vectorised binary entropy (no domain check; 0*log(0) = 0, NaN gives NaN)."""
    x = np.asarray(x, dtype=float)
    # asarray keeps a 0-d input a 0-d array, not a numpy scalar
    return np.asarray(0.0 - _xlog2x(x) - _xlog2x(1.0 - x))


def h2_inv(y: float) -> float:
    """Unique x in [0, 1/2] with h2(x) = y.

    Plain bisection, 60 iterations: monotone, derivative-free and
    unconditionally convergent; leaves |h2(x) - y| <= 1e-12.
    """
    y = _check_range("y", float(y), 0.0, 1.0)
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
    return _star(_check_range("a", float(a), 0.0, 1.0), _check_range("b", float(b), 0.0, 1.0))


def gerber_bound(entropy_bits: float, p: float) -> float:
    """Mrs. Gerber lower bound h2(h2_inv(H) * p) on the output conditional entropy.

    ``entropy_bits`` is the conditional input entropy H in [0, 1]; ``p`` is the
    crossover of the binary symmetric channel, in [0, 1/2].
    """
    h = _check_range("entropy_bits", float(entropy_bits), 0.0, 1.0)
    p = _check_range("p", float(p), 0.0, 0.5)
    return _h2(_star(h2_inv(h), p))
