"""Sampled (rate, relevance) curves with canonical serialization.

A :class:`RegionCurve` is the unit the CLI emits: points on a frontier plus
the metadata needed to reproduce them (model parameters, method name, seed).
Serialization is canonical -- floats are rounded to 12 significant digits and
keys sorted -- so identical requests produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import guards
from .errors import ArgumentError

__all__ = ["RegionCurve", "sig12", "csv_document"]


def sig12(x: float) -> float:
    """Round a finite number to 12 significant digits (the emission precision
    for bits)."""
    return float(f"{guards.finite('x', x):.12g}")


@dataclass(frozen=True)
class RegionCurve:
    """A sampled frontier: points are finite (rate, relevance) pairs in bits,
    and the seed, if any, a nonnegative integer."""

    model: dict
    method: str
    seed: int | None
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple(guards.pairs("points", self.points, guards.finite))   # JSON has no NaN
        if not pts:
            raise ArgumentError("a RegionCurve needs at least one point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "model", dict(guards.instance("model", self.model, dict)))
        guards.instance("method", self.method, str)
        if self.seed is not None:
            object.__setattr__(self, "seed", guards.count("seed", self.seed, 0))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "method": self.method,
            "seed": self.seed,
            "points": [{"R": sig12(r), "mu": sig12(mu)} for r, mu in self.points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "RegionCurve":
        """The curve :meth:`to_dict` wrote; a malformed document raises
        :class:`ArgumentError` naming the field."""
        points = guards.records(d, "points", "R", "mu")
        return cls(model=guards.field(d, "model"), method=guards.field(d, "method"),
                   seed=d.get("seed"), points=points)

    @classmethod
    def from_json(cls, s: str) -> "RegionCurve":
        return cls.from_dict(guards.document("the curve document", s))


def csv_document(xs, ys, meta_hash: str) -> str:
    """Two-column CSV of the finite numbers ``xs`` and ``ys``, with a
    self-describing metadata-hash header line."""
    xs, ys = guards.reals("xs", xs), guards.reals("ys", ys)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ArgumentError(f"xs and ys must be 1-d of one length, got {xs.shape}, {ys.shape}")
    lines = [f"# json-meta: sha256:{guards.instance('meta_hash', meta_hash, str)}", "x,y"]
    for x, y in zip(xs, ys):
        lines.append(f"{sig12(x):.12g},{sig12(y):.12g}")
    return "\n".join(lines) + "\n"
