"""Deterministic scalar solvers: golden-section search and bisection.

Only what the region computations need; no stochastic restarts.  Golden
section assumes a (weakly) unimodal objective on the bracket, which every
caller in this package guarantees by convexity/concavity arguments.  Its
``tol`` must be positive and finite: the loop runs while the bracket is wider
than ``tol``, so 0 or less could never end it and NaN or inf would end it at
once.  A positive ``tol`` below the float spacing near the maximiser (1e-11
near 1e5, where the spacing is 1.5e-11) may not be reachable either; the
loop then stops once the bracket can no longer shrink.  Every solver's
bracket [lo, hi] must be finite with lo <= hi, else ``ArgumentError``: a
reversed bracket gave a point no search had tried (the midpoint, or an end)
and an infinite end gave NaN.
"""

from __future__ import annotations

from math import inf, sqrt
from typing import Callable

from .errors import ArgumentError, SolverError

_INVPHI = (sqrt(5.0) - 1.0) / 2.0
_BISECT_ITERATIONS = 100   # fixed halvings: the bracket shrinks by 2^-100

__all__ = ["golden_max", "golden_min", "bisect_root", "bisect_decreasing_inverse"]


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol < inf:
        raise ArgumentError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _check_bracket(lo: float, hi: float) -> None:
    # NaN fails the chained comparison too
    if not -inf < lo <= hi < inf:
        raise ArgumentError(f"bracket needs finite lo <= hi, got [{lo!r}, {hi!r}]")


def golden_max(fun: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Maximise a unimodal function on [lo, hi]; returns (x, fun(x)).

    The loop ends when the bracket is at most ``tol`` wide, or when float
    spacing keeps it wider for good: a step is a function of the state
    (a, b, c, d), so a state that comes back after a step that did not
    narrow the bracket would come back forever.  Only such a loop, which
    would never end, stops early; ``fun`` must be deterministic.
    """
    tol = _check_tol(tol)
    a, b = float(lo), float(hi)
    _check_bracket(a, b)
    w = b - a
    c = b - _INVPHI * w
    d = a + _INVPHI * w
    fc, fd = fun(c), fun(d)
    stalled = set()   # states after steps that left the bracket as wide
    while w > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            v = b - a
            c = b - _INVPHI * v
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            v = b - a
            d = a + _INVPHI * v
            fd = fun(d)
        if not v < w:
            state = (a, b, c, d)
            if state in stalled:
                break
            stalled.add(state)
        w = v
    x = 0.5 * (a + b)
    return x, fun(x)


def golden_min(fun: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Minimise a unimodal function on [lo, hi]; returns (x, fun(x))."""
    x, v = golden_max(lambda t: -fun(t), lo, hi, tol)
    return x, -v


def bisect_root(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``fun`` on [lo, hi] given fun(lo) and fun(hi) of opposite sign."""
    _check_bracket(lo, hi)
    flo, fhi = fun(lo), fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise SolverError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_decreasing_inverse(fun: Callable[[float], float], target: float,
                              lo: float, hi: float) -> float:
    """Solve fun(x) = target for a strictly decreasing ``fun`` on [lo, hi]."""
    _check_bracket(lo, hi)
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
