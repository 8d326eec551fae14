"""Deterministic scalar solvers: golden-section search and bisection.

Only what the region computations need; no stochastic restarts.  Golden
section assumes a (weakly) unimodal objective on the bracket, which every
caller in this package guarantees by convexity/concavity arguments.  Its
``tol`` must be positive and finite, and every bracket [lo, hi] finite with
lo <= hi and twice each end finite, so that no midpoint overflows; anything
else raises ``ArgumentError``, as does a ``bound`` or ``enclose`` that is
neither None nor callable.  These settings are the only arguments checked
here rather than by ``guards``: no other module reads them.  The claims
``golden_max`` takes on its objective, ``bound`` (an upper one) and
``enclose`` (a lower and an upper one), and ``golden_min``'s mirror lower
``bound``, save the evaluations they decide and move no bit: a comparison
is settled by the claims where they do not overlap, and by fun, at the
older point first, where they do.

The bisections halve at most ``_BISECT_ITERATIONS`` times and stop as soon
as the bracket is two adjacent floats (or one), that is when its midpoint
rounds to an end: running on to the cap would return the same midpoint.  A
zero midpoint is the exception, since later steps can still flip its sign.
When the cap ends the halvings with the bracket still wider than
``2**-52 * max(1, |lo|, |hi|)``, the midpoint need not be near a root, and
``SolverError`` names the bracket instead.
"""

from __future__ import annotations

from math import inf, nan, sqrt
from typing import Callable

from .errors import ArgumentError, SolverError

_INVPHI = (sqrt(5.0) - 1.0) / 2.0
_BISECT_ITERATIONS = 100   # cap on halvings; they stop early at adjacent floats

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
    # a midpoint sums two points of the bracket, so it lies between 2 lo and
    # 2 hi: lo + hi alone would pass [0, 1.7e308], whose bisection reaches inf
    if not (-inf < 2.0 * lo and 2.0 * hi < inf):
        raise ArgumentError(
            f"bracket [{lo!r}, {hi!r}] overflows: twice each end must be finite")


def _capped_midpoint(lo: float, hi: float) -> float:
    # the bracket the cap left; twice each end is finite, so hi - lo is too
    if hi - lo > 2.0 ** -52 * max(1.0, abs(lo), abs(hi)):
        raise SolverError(
            f"bisection unconverged after {_BISECT_ITERATIONS} halvings: "
            f"bracket [{lo!r}, {hi!r}] is wider than 2**-52 * max(1, |lo|, |hi|)")
    return 0.5 * (lo + hi)


def golden_max(fun: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10,
               bound: Callable[[float], float] | None = None,
               enclose: Callable[[float], tuple[float, float]] | None = None,
               ) -> tuple[float, float]:
    """Maximise a unimodal function on [lo, hi]; returns (x, fun(x)).

    The loop ends when the bracket is at most ``tol`` wide, or when float
    spacing keeps it wider for good: a step is a function of the state
    (a, b, c, d), so a state that comes back after a step that did not
    narrow the bracket would come back forever.  Only such a loop, which
    would never end, stops early; ``fun`` must be deterministic.

    Each step adds one point, c or d, and settles the comparison fc > fd
    that steers the next step.  ``bound`` and ``enclose``, if given, make
    claims on ``fun`` that settle it without evaluating: ``bound(x)`` an
    upper one, ``enclose(x)`` a (lower, upper) pair.  Each claim is NaN
    (none) or holds, lower <= ``fun(x)`` <= upper with ``fun(x)`` not NaN.
    The new point's bound is taken first; while the comparison is still
    open, its enclosure (at most once a point, the first point's at the
    start); then fun at the older point; then at the new one.  A point
    whose claims settle a comparison carries them, unevaluated, into the
    next.  So every comparison has its claim-free outcome: the path and
    the result are the claim-free call's, and fun runs at a subsequence of
    its points.  With ``bound`` alone fun runs wherever the bound leaves a
    step's comparison open, the last step's included (a new c is skipped
    when its bound is <= fd, a new d when its bound is < fc); with
    ``enclose``, the last step's comparison, which nothing reads, is left
    open.  The final midpoint is always evaluated.
    """
    tol = _check_tol(tol)
    for name, claim in (("bound", bound), ("enclose", enclose)):
        if claim is not None and not callable(claim):
            raise ArgumentError(f"{name} must be callable or None, got {claim!r}")
    a, b = float(lo), float(hi)
    _check_bracket(a, b)
    if enclose is not None:
        a, b = _enclosed_steps(fun, a, b, tol, bound, enclose)
    else:
        # without an enclosure the older point is always evaluated, and this
        # loop skips the claims' bookkeeping, which took a 42-step call from
        # 8.4 to 12.8 us.  Primed one d step before the first comparison:
        # the first c held as d, c = a, fc = -inf, w = inf, so the first
        # pass takes the d branch
        d = b - _INVPHI * (b - a)
        fd = fun(d)
        c, fc, w = a, -inf, inf
        stalled = set()   # states after steps that left the bracket as wide
        while w > tol:
            if fc > fd:
                b, d, fd = d, c, fc
                v = b - a
                c = b - _INVPHI * v
                # a new c at most fd is discarded by the next step
                fc = nan if bound is None else bound(c)
                if not fc <= fd:
                    fc = fun(c)
            else:
                a, c, fc = c, d, fd
                v = b - a
                d = a + _INVPHI * v
                # a new d below fc is discarded by the next step
                fd = nan if bound is None else bound(d)
                if not fc > fd:
                    fd = fun(d)
            if not v < w:
                state = (a, b, c, d)
                if state in stalled:
                    break
                stalled.add(state)
            w = v
    x = 0.5 * (a + b)
    return x, fun(x)


def _enclosed_steps(fun, a: float, b: float, tol: float, bound, enclose) -> tuple[float, float]:
    """``golden_max``'s steps on [a, b] with an enclosure; returns the final
    bracket.  Each point's value is held as claims [lower, upper], NaN for
    none, both the value itself once fun has run there (flag k): the first
    point's claims are its enclosure, a new one's its bound, then, while
    the comparison is open, its enclosure, then fun at the older point,
    then at the new one.  The last step's comparison is left open."""
    d = b - _INVPHI * (b - a)
    (dl, du), dk = enclose(d), False
    c, up, w = a, False, inf   # up: fc > fd, as settled
    stalled = set()
    while w > tol:
        if up:
            b, d, dl, du, dk = d, c, cl, cu, ck
            v = b - a
            c = b - _INVPHI * v
            cl, cu, ck = nan, (nan if bound is None else bound(c)), False
            # a new c whose bound is at most d's lower claim loses to d
            if v > tol and not cu <= dl:
                cl, u = enclose(c)
                if cu != cu or u < cu:
                    cu = u
                if not (dk or cl > du or cu <= dl):
                    dl = du = fun(d)
                    dk = True
                if not (cl > du or cu <= dl):
                    cl = cu = fun(c)
                    ck = True
        else:
            a, c, cl, cu, ck = c, d, dl, du, dk
            v = b - a
            d = a + _INVPHI * v
            dl, du, dk = nan, (nan if bound is None else bound(d)), False
            # a new d whose bound is below c's lower claim loses to c
            if v > tol and not cl > du:
                dl, u = enclose(d)
                if du != du or u < du:
                    du = u
                if not (ck or cl > du or cu <= dl):
                    cl = cu = fun(c)
                    ck = True
                if not (cl > du or cu <= dl):
                    dl = du = fun(d)
                    dk = True
        # settled by the claims, or both values known
        up = cl > du
        if not v < w:
            state = (a, b, c, d)
            if state in stalled:
                break
            stalled.add(state)
        w = v
    return a, b


def golden_min(fun: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10,
               bound: Callable[[float], float] | None = None) -> tuple[float, float]:
    """Minimise a unimodal function on [lo, hi]; returns (x, fun(x)).

    ``golden_max`` on ``-fun``.  ``bound``, if given, is a lower bound on
    ``fun``, the mirror of ``golden_max``'s: at every x it returns NaN (no
    claim) or a value that is <= ``fun(x)``, with ``fun(x)`` not NaN; it
    saves the evaluations it decides and moves no bit.
    """
    # None, or a bound golden_max refuses, goes on as it is
    neg = (lambda t: -bound(t)) if callable(bound) else bound
    x, v = golden_max(lambda t: -fun(t), lo, hi, tol, bound=neg)
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
        if (mid == lo or mid == hi) and mid != 0.0:
            return mid
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return _capped_midpoint(lo, hi)


def bisect_decreasing_inverse(fun: Callable[[float], float], target: float,
                              lo: float, hi: float) -> float:
    """Solve fun(x) = target for a strictly decreasing ``fun`` on [lo, hi]."""
    _check_bracket(lo, hi)
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if (mid == lo or mid == hi) and mid != 0.0:
            return mid
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return _capped_midpoint(lo, hi)
