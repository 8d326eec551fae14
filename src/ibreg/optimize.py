"""Deterministic scalar solvers: golden-section search and bisection.

Only what the region computations need; no stochastic restarts.  Golden
section assumes a (weakly) unimodal objective on the bracket, which every
caller in this package guarantees by convexity/concavity arguments.  Its
``tol`` must be positive and finite, every bracket [lo, hi] finite with
lo <= hi and twice each end finite, so that no midpoint overflows, and a
bisection's ``target`` not NaN, each a real number by ``guards.real`` (an
int beyond float range is a ``DomainError``); anything else raises
``ArgumentError``, as does a ``bound`` or ``enclose`` that is neither None
nor callable.  No other module reads these settings.
No golden section, here or written out elsewhere, evaluates its last
step's new point: no comparison reads it.  The claims ``golden_max`` takes
on its objective, ``bound`` (upper) and ``enclose`` (lower and upper), and
``golden_min``'s mirror ones, a lower ``bound`` and an ``enclose`` on its
own objective, save the evaluations they decide and move no bit.

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

from . import guards
from .errors import ArgumentError, SolverError

_INVPHI = (sqrt(5.0) - 1.0) / 2.0
_BISECT_ITERATIONS = 100   # cap on halvings; they stop early at adjacent floats

__all__ = ["golden_max", "golden_min", "bisect_root", "bisect_decreasing_inverse"]


def _check_tol(tol: float) -> float:
    tol = guards.real("tol", tol)
    if not 0.0 < tol < inf:
        raise ArgumentError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _check_bracket(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = guards.real("bracket end lo", lo), guards.real("bracket end hi", hi)
    # NaN fails the chained comparison too
    if not -inf < lo <= hi < inf:
        raise ArgumentError(f"bracket needs finite lo <= hi, got [{lo!r}, {hi!r}]")
    # a midpoint sums two points of the bracket, so it lies between 2 lo and
    # 2 hi: lo + hi alone would pass [0, 1.7e308], whose bisection reaches inf
    if not (-inf < 2.0 * lo and 2.0 * hi < inf):
        raise ArgumentError(
            f"bracket [{lo!r}, {hi!r}] overflows: twice each end must be finite")
    return lo, hi


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
    that steers the next; the last step's, which nothing reads, is left
    open.  ``bound(x)`` (upper) and ``enclose(x)`` (lower, upper), if
    given, are claims on ``fun``: each NaN (none) or true, with ``fun(x)``
    not NaN.  A new point's bound is taken first; while the comparison is
    open, its enclosure; then fun at the older point; then at the new one.
    Claims that settle a comparison are carried, unevaluated, into the
    next.  So every comparison has its claim-free outcome: the path and the
    result are the claim-free call's, and fun runs at a subsequence of its
    points, the final midpoint always.  The first point is evaluated at the
    start, or only enclosed if ``enclose`` is given.
    """
    tol = _check_tol(tol)
    for name, claim in (("bound", bound), ("enclose", enclose)):
        if claim is not None and not callable(claim):
            raise ArgumentError(f"{name} must be callable or None, got {claim!r}")
    a, b = _check_bracket(lo, hi)
    # each point's value is held as claims [lower, upper], NaN for none,
    # both the value once fun has run there (flag k).  Primed one d step
    # before the first comparison: the first c held as d, c = a
    d = b - _INVPHI * (b - a)
    dk = enclose is None
    dl, du = (fun(d),) * 2 if dk else enclose(d)
    c, up, w = a, False, inf   # up: fc > fd, as settled
    stalled = set()   # states after steps that left the bracket as wide
    while True:
        if up:
            b, d, dl, du, dk = d, c, cl, cu, ck
            c = b - _INVPHI * (b - a)
        else:
            a, c, cl, cu, ck = c, d, dl, du, dk
            d = a + _INVPHI * (b - a)
        v = b - a
        if not v > tol:
            break
        if not v < w:
            if (a, b, c, d) in stalled:
                break
            stalled.add((a, b, c, d))
        w = v
        if up:
            # a new c whose bound is at most d's lower claim loses to d
            cl, cu, ck = nan, (nan if bound is None else bound(c)), False
            if not cu <= dl:
                if enclose is not None:
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
            # a new d whose bound is below c's lower claim loses to c
            dl, du, dk = nan, (nan if bound is None else bound(d)), False
            if not cl > du:
                if enclose is not None:
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
    x = 0.5 * (a + b)
    return x, fun(x)


def golden_min(fun: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10,
               bound: Callable[[float], float] | None = None,
               enclose: Callable[[float], tuple[float, float]] | None = None,
               ) -> tuple[float, float]:
    """Minimise a unimodal function on [lo, hi]; returns (x, fun(x)).

    ``golden_max`` on ``-fun``.  ``bound``, if given, is a lower bound on
    ``fun``, the mirror of ``golden_max``'s: at every x it returns NaN (no
    claim) or a value that is <= ``fun(x)``, with ``fun(x)`` not NaN.
    ``enclose(x)``, if given, returns (lower, upper) claims on ``fun`` itself,
    each NaN (none) or true, as ``golden_max``'s does.  Both save the
    evaluations they decide and move no bit.
    """
    # None, or a claim golden_max refuses, goes on as it is
    def flip(t):
        lower, upper = enclose(t)
        return -upper, -lower

    neg = (lambda t: -bound(t)) if callable(bound) else bound
    x, v = golden_max(lambda t: -fun(t), lo, hi, tol, bound=neg,
                      enclose=flip if callable(enclose) else enclose)
    return x, -v


def bisect_root(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``fun`` on [lo, hi] given fun(lo) and fun(hi) of opposite sign."""
    lo, hi = _check_bracket(lo, hi)
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
    target = guards.real("target", target)
    if target != target:
        raise ArgumentError("target must not be NaN")
    lo, hi = _check_bracket(lo, hi)
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if (mid == lo or mid == hi) and mid != 0.0:
            return mid
        if fun(mid) > target:
            lo = mid
        else:
            hi = mid
    return _capped_midpoint(lo, hi)
