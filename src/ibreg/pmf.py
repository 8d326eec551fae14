"""Exact finite-alphabet probability algebra.

Dense joint probability tables over named axes, conditional channels, and the
information functionals (entropy, mutual information, conditional mutual
information) that every region computation in this package is built on.

Conventions
-----------
- All information quantities are in bits (log base 2); ``0 * log 0 = 0``.
- Mutual informations are clamped to ``0`` when they land in ``(-1e-10, 0)``:
  the quantities are provably nonnegative, so anything in that band is
  floating-point noise.
- ``JointPmf`` and ``Channel`` share one table check: entries finite and
  nonnegative, unit mass within 1e-9 over the table (pmf) or over each
  last-axis slice (channel), renormalised above a 1e-15 deviation.
- Values are immutable after construction (tables are frozen read-only
  arrays); every operation is a pure function, safe to share across threads.
- Alphabets here are small (cardinalities up to ~10 per axis), so dense
  row-major storage is both the simplest and the exact choice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import guards
from .bentropy import _xlog2x
from .errors import (
    ArgumentError,
    AxisError,
    DegenerateEventError,
    DomainError,
)

__all__ = [
    "Axis",
    "JointPmf",
    "Channel",
    "entropy",
    "mutual_information",
    "conditional_mutual_information",
    "compose_markov",
    "marginalize",
    "condition",
]

_SUM_TOL = 1e-9        # constructors renormalise below this deviation, reject above
_EVENT_TOL = 1e-15     # conditioning events below this probability are degenerate
_MI_CLAMP = 1e-10      # MI/CMI values in (-clamp, 0) are treated as exact zeros


@dataclass(frozen=True)
class Axis:
    """A named finite alphabet."""

    name: str
    card: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise AxisError(f"axis name must be a nonempty string, got {self.name!r}")
        object.__setattr__(self, "card",
                           guards.count(f"axis {self.name!r} cardinality", self.card, 1))


def _as_axes(axes: Iterable) -> tuple[Axis, ...]:
    try:
        out = tuple(a if isinstance(a, Axis) else Axis(*a) for a in axes)
    except TypeError:   # not iterable, or an entry that is no (name, card) pair
        raise ArgumentError(f"axes must be Axis objects or (name, card) pairs, "
                            f"got {axes!r}") from None
    names = [a.name for a in out]
    if len(set(names)) != len(names):
        raise AxisError(f"duplicate axis names in {names}")
    return out


def _checked_table(table: np.ndarray, axis: int | None) -> np.ndarray:
    """A frozen, contiguous copy of ``table``, after the module's table
    check with sums along ``axis`` (every entry for None).  Ulp-level sums
    are left untouched, so rebuilding from an existing table is bit-stable;
    the caller's array is never frozen or shared."""
    if table.size == 0:
        # only a channel input axis can be empty: ``Axis`` rejects card 0
        raise DomainError(f"table of shape {table.shape} has a zero-length axis")
    if not np.all(np.isfinite(table)):
        raise DomainError("table contains non-finite entries")
    if np.any(table < 0.0):
        raise DomainError(f"negative probability entry (min {table.min()!r})")
    sums = table.sum(axis=axis, keepdims=True)
    worst = float(np.abs(sums - 1.0).max())
    if worst > _SUM_TOL:
        raise DomainError(f"table sums deviate from 1 by {worst!r}, more than {_SUM_TOL}")
    if worst > 1e-15:
        table = np.ascontiguousarray(table / sums)
    else:
        table = np.array(table, order="C")
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class JointPmf:
    """Dense probability table over named finite axes.

    Invariants: entries nonnegative; entries sum to one (constructors
    renormalise deviations below 1e-9 and reject anything larger); axis
    names unique.
    """

    axes: tuple[Axis, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        axes = _as_axes(self.axes)
        table = guards.reals("table", self.table, allow_nan=True)
        shape = tuple(a.card for a in axes)
        if table.shape != shape:
            raise ArgumentError(f"table shape {table.shape} does not match axes {shape}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", _checked_table(table, None))
        # not a field: equality, repr and to_dict see the axes alone
        object.__setattr__(self, "_axis_names", tuple(a.name for a in axes))

    # -- axis bookkeeping -------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        return self._axis_names

    def axis_index(self, name: str) -> int:
        if isinstance(name, str) and name in self.axis_names:
            return self.axis_names.index(name)
        raise AxisError(f"unknown axis {name!r}; have {self.axis_names}")

    def card(self, name: str) -> int:
        return self.axes[self.axis_index(name)].card

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "axes": [{"name": a.name, "card": a.card} for a in self.axes],
            "table": [float(v) for v in self.table.reshape(-1)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JointPmf":
        """The pmf :meth:`to_dict` wrote; a malformed document raises
        :class:`ArgumentError` naming the field."""
        axes = _as_axes(guards.records(d, "axes", "name", "card"))
        shape = tuple(a.card for a in axes)
        table = guards.reals("table", guards.field(d, "table"), allow_nan=True)
        if table.size != math.prod(shape):
            raise ArgumentError(f"table has {table.size} entries, axes {shape} need "
                                f"{math.prod(shape)}")
        return cls(axes, table.reshape(shape))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "JointPmf":
        return cls.from_dict(guards.document("the pmf document", s))


@dataclass(frozen=True)
class Channel:
    """Conditional pmf p(output | input axes).

    ``table`` has shape ``(*input_cards, output_card)``; every conditional
    slice (the last dimension) sums to one.
    """

    input_axes: tuple[str, ...]
    output: Axis
    table: np.ndarray

    def __post_init__(self) -> None:
        inputs = guards.sequence("input_axes", self.input_axes, str)
        if len(set(inputs)) != len(inputs):
            raise AxisError(f"duplicate channel input axes {inputs}")
        output, = _as_axes((self.output,))
        if output.name in inputs:
            raise AxisError(f"channel output {output.name!r} collides with its inputs")
        table = guards.reals("table", self.table, allow_nan=True)
        if table.ndim != len(inputs) + 1:
            raise ArgumentError(
                f"channel table has {table.ndim} dims for {len(inputs)} inputs + output")
        if table.shape[-1] != output.card:
            raise ArgumentError(
                f"last table dim {table.shape[-1]} != output cardinality {output.card}")
        object.__setattr__(self, "input_axes", inputs)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "table", _checked_table(table, -1))

    @property
    def input_cards(self) -> tuple[int, ...]:
        return self.table.shape[:-1]

    # -- common constructions ---------------------------------------------

    @classmethod
    def bsc(cls, input_axis: str, output_name: str, crossover: float,
            out_card: int = 2) -> "Channel":
        """Binary symmetric channel on a binary input axis, optionally padded
        with never-used output symbols up to ``out_card``."""
        r = guards.prob("crossover", crossover)
        output = Axis(output_name, out_card)
        if output.card < 2:
            raise DomainError("bsc needs at least two output symbols")
        t = np.zeros((2, output.card))
        t[0, 0] = t[1, 1] = 1.0 - r
        t[0, 1] = t[1, 0] = r
        return cls((input_axis,), output, t)

    @classmethod
    def constant(cls, inputs: Sequence[tuple[str, int]], output_name: str,
                 out_card: int = 1) -> "Channel":
        """Channel whose output is the fixed symbol 0 whatever the inputs."""
        axes = _as_axes(inputs)
        output = Axis(output_name, out_card)
        t = np.zeros(tuple(a.card for a in axes) + (output.card,))
        t[..., 0] = 1.0
        return cls(tuple(a.name for a in axes), output, t)


# ---------------------------------------------------------------------------
# information functionals
# ---------------------------------------------------------------------------


def _resolve(p: JointPmf, names: Iterable[str]) -> tuple[str, ...]:
    guards.instance("p", p, JointPmf)
    names = guards.sequence("axes", names, str)
    for n in names:
        p.axis_index(n)
    if len(set(names)) != len(names):
        raise ArgumentError(f"repeated axis in {names}")
    return names


def _marginal_table(p: JointPmf, keep: Sequence[str]) -> np.ndarray:
    drop = tuple(i for i, a in enumerate(p.axes) if a.name not in keep)
    return p.table.sum(axis=drop) if drop else p.table


def _table_entropy(t: np.ndarray) -> float:
    flat = t.reshape(-1)
    h = float(-_xlog2x(flat[flat > 0.0]).sum())
    return 0.0 if -1e-12 < h < 0.0 else h


def entropy(p: JointPmf, axes: Iterable[str]) -> float:
    """Entropy in bits of the marginal of ``p`` on ``axes``."""
    names = _resolve(p, axes)
    if not names:
        raise ArgumentError("entropy needs a nonempty axis subset")
    return _table_entropy(_marginal_table(p, names))


def mutual_information(p: JointPmf, axes_a: Iterable[str], axes_b: Iterable[str]) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), in bits."""
    return conditional_mutual_information(p, axes_a, axes_b)


def conditional_mutual_information(p: JointPmf, axes_a: Iterable[str],
                                   axes_b: Iterable[str],
                                   axes_c: Iterable[str] = ()) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), in bits; C may be empty."""
    a = _resolve(p, axes_a)
    b = _resolve(p, axes_b)
    c = _resolve(p, axes_c)
    for x, y in ((a, b), (a, c), (b, c)):
        if set(x) & set(y):
            raise ArgumentError(f"axis sets overlap: {set(x) & set(y)}")
    if not a or not b:
        raise ArgumentError("conditional_mutual_information needs nonempty A and B")
    h = [_table_entropy(_marginal_table(p, x)) for x in (a + c, b + c, a + b + c)]
    # H(C) = 0 for empty C, and x - 0.0 == x
    v = h[0] + h[1] - h[2] - (_table_entropy(_marginal_table(p, c)) if c else 0.0)
    return 0.0 if -_MI_CLAMP < v < 0.0 else v


# ---------------------------------------------------------------------------
# composition, marginalisation, conditioning
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def compose_markov(p: JointPmf, ch: Channel) -> JointPmf:
    """Extend ``p`` with the channel output: q(all, v) = p(all) * ch(v | inputs).

    By construction the output is conditionally independent of every
    non-input axis given the inputs, and the marginal of the result on
    ``p``'s axes equals ``p`` up to float-summation error (<= a few ulp).
    """
    guards.instance("p", p, JointPmf)
    for n in guards.instance("ch", ch, Channel).input_axes:
        p.axis_index(n)
    if ch.output.name in p.axis_names:
        raise AxisError(f"output axis {ch.output.name!r} already present in the pmf")
    for n, c in zip(ch.input_axes, ch.input_cards):
        if p.card(n) != c:
            raise ArgumentError(
                f"channel expects |{n}| = {c}, pmf has |{n}| = {p.card(n)}")
    if len(p.axes) + 1 > len(_LETTERS):
        raise ArgumentError("too many axes to compose")
    let = {a.name: _LETTERS[i] for i, a in enumerate(p.axes)}
    out_letter = _LETTERS[len(p.axes)]
    lhs_p = "".join(let[a.name] for a in p.axes)
    lhs_c = "".join(let[n] for n in ch.input_axes) + out_letter
    table = np.einsum(f"{lhs_p},{lhs_c}->{lhs_p}{out_letter}", p.table, ch.table)
    return JointPmf(p.axes + (ch.output,), table)


def marginalize(p: JointPmf, keep: Iterable[str]) -> JointPmf:
    """Marginal of ``p`` on ``keep`` (original axis order preserved)."""
    names = _resolve(p, keep)
    if not names:
        raise ArgumentError("marginalize needs a nonempty axis subset")
    kept = tuple(a for a in p.axes if a.name in names)
    return JointPmf(kept, _marginal_table(p, names))


def condition(p: JointPmf, axis: str, value: int) -> JointPmf:
    """Renormalised conditional of ``p`` given ``axis == value``."""
    i = guards.instance("p", p, JointPmf).axis_index(axis)
    value = guards.real("value", value)
    if not (value % 1 == 0 and 0 <= value < p.axes[i].card):
        raise DomainError(f"value {value!r} outside alphabet of axis {axis!r}")
    slab = np.take(p.table, int(value), axis=i)
    mass = float(slab.sum())
    if mass <= _EVENT_TOL:
        raise DegenerateEventError(
            f"event {axis}={value} has probability {mass!r}")
    rest = tuple(a for j, a in enumerate(p.axes) if j != i)
    return JointPmf(rest, slab / mass)
