"""Sampled (rate, relevance) curves with canonical serialization.

A :class:`RegionCurve` is the unit the CLI emits: points on a frontier plus
the metadata needed to reproduce them (model parameters, method name, seed).
Serialization is canonical -- floats are rounded to 12 significant digits and
keys sorted -- so identical requests produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError

__all__ = ["RegionCurve", "sig12", "csv_document"]


def sig12(x: float) -> float:
    """Round to 12 significant digits (the emission precision for bits)."""
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class RegionCurve:
    """A sampled frontier: points are finite (rate, relevance) pairs in bits."""

    model: dict
    method: str
    seed: int | None
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(r), float(mu)) for r, mu in self.points)
        if not pts:
            raise ArgumentError("a RegionCurve needs at least one point")
        if not np.isfinite(pts).all():  # JSON has no NaN or Infinity
            raise DomainError("RegionCurve points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "model", dict(self.model))
        object.__setattr__(self, "seed", None if self.seed is None else int(self.seed))

    def rates(self) -> np.ndarray:
        return np.array([r for r, _ in self.points])

    def relevances(self) -> np.ndarray:
        return np.array([mu for _, mu in self.points])

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
        return cls(model=d["model"], method=d["method"], seed=d.get("seed"),
                   points=tuple((p["R"], p["mu"]) for p in d["points"]))

    @classmethod
    def from_json(cls, s: str) -> "RegionCurve":
        return cls.from_dict(json.loads(s))


def csv_document(xs, ys, meta_hash: str) -> str:
    """Two-column CSV with a self-describing metadata-hash header line."""
    lines = [f"# json-meta: sha256:{meta_hash}", "x,y"]
    for x, y in zip(xs, ys):
        lines.append(f"{sig12(x):.12g},{sig12(y):.12g}")
    return "\n".join(lines) + "\n"
