"""Argument rules, one function per kind of argument (README "Numerical
conventions" states them).

Every public entry point passes each argument through one of these once, at
entry; kernels and internal calls check nothing.  Each takes the argument's
name, for the message, and its value, and returns the value as the caller
computes with it.  Every range test is written so that NaN fails it.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .errors import ArgumentError, DomainError

_NUMBER = (int, float, np.integer, np.floating)
_SLACK = 1e-12   # rounding spill tolerated past the end of a range


def real(name: str, v) -> float:
    """An int, float or numpy real scalar as a float; NaN and +-inf pass.
    The hot rules below test ``type(v) is float`` first and skip this call."""
    if type(v) is float:
        return v
    if isinstance(v, bool) or not isinstance(v, _NUMBER):
        raise ArgumentError(f"{name} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise DomainError(f"{name}={v!r} is beyond float range") from None


def finite(name: str, v, error: type = DomainError) -> float:
    """A finite number.  A tolerance, like every solver setting, raises
    ``ArgumentError`` instead."""
    v = real(name, v)
    if not -inf < v < inf:
        raise error(f"{name} must be finite, got {v!r}")
    return v


def prob(name: str, v, hi: float = 1.0) -> float:
    """A value in [0, hi], a probability by default; a spill of up to 1e-12
    past either end is rounding and is clamped onto it."""
    if type(v) is not float:
        v = real(name, v)
    if 0.0 <= v <= hi:
        return v
    if not -_SLACK <= v <= hi + _SLACK:
        raise DomainError(f"{name}={v!r} outside [0, {hi!r}]")
    return 0.0 if v < 0.0 else hi


def probs(name: str, v) -> np.ndarray:
    """``reals`` whose every entry is a probability by the rule of ``prob``."""
    a = reals(name, v)
    if not np.all((-_SLACK <= a) & (a <= 1.0 + _SLACK)):
        raise DomainError(f"{name} has an entry outside [0, 1]: {v!r}")
    return np.asarray(a.clip(0.0, 1.0))


def crossover(name: str, v) -> float:
    """A model crossover, strictly inside (0, 1/2)."""
    if type(v) is not float:
        v = real(name, v)
    if not 0.0 < v < 0.5:
        raise DomainError(f"{name}={v!r} must lie strictly inside (0, 1/2)")
    return v


def rate(name: str, v) -> float:
    """A rate in bits, ``>= 0``; ``+inf`` is an unlimited rate.  A spill of
    up to 1e-12 below 0 is rounding and reads as 0."""
    if type(v) is not float:
        v = real(name, v)
    if v >= 0.0:
        return v
    if not -_SLACK <= v:
        raise DomainError(f"{name} must be nonnegative, got {v!r}")
    return 0.0


def relevance(name: str, v, limit: float, what: str) -> float:
    """A relevance in [0, limit); ``what`` names the limit in the message."""
    v = real(name, v)
    if not 0.0 <= v:
        raise DomainError(f"{name} must be nonnegative, got {v!r}")
    if v >= limit:
        raise DomainError(f"{name}={v!r} at or above {what}{limit!r}")
    return v


def variance(name: str, v) -> float:
    v = real(name, v)
    if not 0.0 < v < inf:
        raise DomainError(f"{name}={v!r} must be a positive finite variance")
    return v


def correlation(name: str, v, allow_zero: bool = True) -> float:
    v = real(name, v)
    if not (-1.0 < v < 1.0 and (allow_zero or v != 0.0)):
        raise DomainError(f"{name}={v!r} must satisfy {'' if allow_zero else '0 < '}|rho| < 1")
    return v


def count(name: str, v, lo: int) -> int:
    """An integral, non-bool number ``>= lo`` as an int: 2.0 is 2, and 2.5,
    NaN and +-inf raise ``ArgumentError`` with every other bad value."""
    if isinstance(v, bool) or not isinstance(v, _NUMBER) or not (lo <= v < inf and v % 1 == 0):
        raise ArgumentError(f"{name} must be an integer >= {lo}, got {v!r}")
    return int(v)


def which(v) -> int:
    """The rate side of the two-way model, 1 or 2."""
    v = count("which", v, 1)
    if v > 2:
        raise DomainError(f"which must be 1 or 2, got {v!r}")
    return v


def reals(name: str, v, allow_nan: bool = False) -> np.ndarray:
    """A number or an array of them (numpy dtype int or float) as a float
    array; NaN raises unless allowed."""
    try:
        a = np.asarray(v)
    except ValueError:   # a ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise ArgumentError(f"{name} must be an array of numbers, got {v!r}")
    a = a.astype(float, copy=False)
    if not allow_nan and np.isnan(a).any():
        raise DomainError(f"{name} must not contain NaN")
    return a


def sequence(name: str, v, cls) -> tuple:
    """An iterable of ``cls`` instances, possibly empty, as a tuple."""
    try:
        items = tuple(v)
    except TypeError:
        items = (None,)
    if not all(isinstance(x, cls) for x in items):
        raise ArgumentError(f"{name} must be a sequence of {cls.__name__}, got {v!r}")
    return items


def pairs(name: str, v, rule=real) -> list[tuple[float, float]]:
    """An iterable of (x, y) pairs, each number read by ``rule``."""
    try:
        return [(rule(name, x), rule(name, y)) for x, y in v]
    except (TypeError, ValueError):   # not iterable, or an entry that is no pair
        raise ArgumentError(f"{name} must be (x, y) pairs, got {v!r}") from None


def instance(name: str, v, cls):
    if not isinstance(v, cls):
        raise ArgumentError(f"{name} must be a {cls.__name__}, got {v!r}")
    return v
