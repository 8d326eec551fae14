"""Command-line front end.

Subcommands
-----------
``curve``     evaluate one named curve for a model and write CSV/JSON
``compare``   check curve A lies below curve B (inclusion with tolerance)
``figures``   batch-write the three reference figure data sets
``validate``  validate a model configuration file

Model configuration files are JSON objects with a ``kind`` of ``binary``,
``gaussian-twcib``, ``gaussian-cdib-x1x2y`` or ``gaussian-cdib-x1yx2``.
Every other entry is a float argument of the kind's model class: ``rho.<ab>``
is ``rho_<ab>``, ``sigma.<a>`` is ``sigma_<a>_sq``, any other keeps its name.
Curve requests pair a model with a ``quantity`` (one of ``mu_ed``,
``mu_d``, ``mu_int``, ``twcib_rate``, ``cdib_mu_surface``, ``outer_frontier``,
``inner_bound``), a grid, a nonnegative seed and a budget for the stochastic
``mu_int`` only, and the rate side ``which`` for ``twcib_rate`` only.
``_MODELS`` (kind -> model class) and ``_QUANTITIES`` (quantity -> kind,
evaluator) hold these rules once; ``QUANTITIES`` lists them in table order.

Deterministic quantities produce byte-identical outputs for identical
requests; stochastic ones are keyed by (seed, budget).  Exit codes: 0 ok
(or inclusion holds), 1 inclusion violated, 2 configuration error,
3 numeric/solver error.  ``IBREG_THREADS`` is the worker count of the
``mu_int`` search, read by the rule of integer request fields; unset or
empty, it is 1.  This module is the only one of ``ibreg`` that reads the
environment: the library computes from its arguments alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from math import isfinite

import numpy as np

from . import binary, gaussian, guards, search
from .bentropy import h2
from .curves import RegionCurve, csv_document
from .errors import (
    ArgumentError,
    ComparisonError,
    ConfigError,
    DegenerateEventError,
    IbregError,
    SolverError,
)


_MODELS = {
    "binary": binary.BinaryModel,
    "gaussian-twcib": gaussian.GaussianTwcibModel,
    "gaussian-cdib-x1x2y": partial(gaussian.GaussianCdibModel, "x1-x2-y"),
    "gaussian-cdib-x1yx2": partial(gaussian.GaussianCdibModel, "x1-y-x2"),
}
# quantity -> (model kind, its value at grid point x given the model and the
# request's ``which``); None marks ``mu_int``, the one stochastic quantity,
# which is a single seeded search over the whole grid
_QUANTITIES = {
    "mu_ed": ("binary", lambda m, x, which: binary.mu_ed(x, m.p, m.q)),
    "mu_d": ("binary", lambda m, x, which: binary.mu_d(x, m.p, m.q)),
    "mu_int": ("binary", None),
    "twcib_rate": ("gaussian-twcib",
                   lambda m, x, which: gaussian.twcib_rate_for_relevance(m, which, x)),
    "cdib_mu_surface": ("gaussian-cdib-x1x2y",
                        lambda m, x, which: gaussian.cdib_x1x2y_mu(m, x, x)),
    "outer_frontier": ("gaussian-cdib-x1yx2",
                       lambda m, x, which: gaussian.cdib_x1yx2_outer_frontier(m, x, x)),
    "inner_bound": ("gaussian-cdib-x1yx2",
                    lambda m, x, which: gaussian.cdib_x1yx2_inner(m, x, x)),
}
QUANTITIES = tuple(_QUANTITIES)
_GRID_MAX_N = 1_000_000   # 8 MB of grid; a larger n fails in np.linspace or exhausts memory


@dataclass(frozen=True)
class ModelConfig:
    """Validated model configuration: ``kind`` plus the built model object."""

    kind: str
    raw: dict
    model: object

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError("model config must be an object with a 'kind' field")
        kind = d["kind"]
        rho, sig = _object(d, "rho"), _object(d, "sigma")
        # a non-string kind (a list is not even hashable) is unknown too
        if not (isinstance(kind, str) and kind in _MODELS):
            raise ConfigError(f"unknown model kind {kind!r}")
        try:
            # the class rejects a missing, unknown, doubled or invalid field
            model = _MODELS[kind](**{f"rho_{k}": float(v) for k, v in rho.items()},
                                  **{f"sigma_{k}_sq": float(v) for k, v in sig.items()},
                                  **{k: float(v) for k, v in d.items()
                                     if k not in ("kind", "rho", "sigma")})
        except (TypeError, ValueError, OverflowError, IbregError) as exc:
            raise ConfigError(f"invalid {kind!r} model config: {exc}") from exc
        return cls(kind=kind, raw=dict(d), model=model)


def _object(d: dict, name: str) -> dict:
    """Field ``name`` of ``d`` (default empty), or ``ConfigError`` if it is
    not a JSON object."""
    v = d.get(name, {})
    if not isinstance(v, dict):
        raise ConfigError(f"{name} must be an object, got {v!r}")
    return v


def _as_int(name: str, v, lo: int) -> int:
    """``v``, or the digits of a string, as an int ``>= lo`` by the count
    rule of ``guards``, or ``ConfigError`` naming the field."""
    try:
        return guards.count(name, int(v) if isinstance(v, str) else v, lo)
    except (ValueError, ArgumentError) as exc:
        raise ConfigError(f"{name} must be an integer >= {lo}, got {v!r}") from exc


@dataclass(frozen=True)
class CurveRequest:
    """A model, a named curve, an evaluation grid, and search parameters."""

    model: ModelConfig
    quantity: str
    grid_min: float
    grid_max: float
    grid_n: int
    seed: int | None = None
    budget: int | None = None
    which: int = 2

    @classmethod
    def from_dict(cls, d: dict) -> "CurveRequest":
        if not isinstance(d, dict):
            raise ConfigError(f"a curve request must be an object, got {d!r}")
        model = ModelConfig.from_dict(d.get("model", {}))
        quantity = d.get("quantity")
        if quantity not in QUANTITIES:
            raise ConfigError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
        if _QUANTITIES[quantity][0] != model.kind:
            raise ConfigError(
                f"quantity {quantity!r} does not apply to model kind {model.kind!r}")
        grid = d.get("grid", {})
        try:
            lo, hi, n = float(grid["min"]), float(grid["max"]), grid["n"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"grid must provide min/max/n: {exc}") from exc
        n = _as_int("grid n", n, 2)
        if n > _GRID_MAX_N:
            raise ConfigError(f"grid n must be in [2, {_GRID_MAX_N}], got {n}")
        if not (isfinite(lo) and isfinite(hi)):
            raise ConfigError(f"grid min/max must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ConfigError(f"grid needs min < max, got [{lo}, {hi}]")
        seed, budget = d.get("seed"), d.get("budget")
        if _QUANTITIES[quantity][1] is None:
            if seed is None or budget is None:
                raise ConfigError(f"quantity {quantity!r} requires seed and budget")
            seed, budget = _as_int("seed", seed, 0), _as_int("budget", budget, 1)
        elif seed is not None or budget is not None:
            raise ConfigError(f"quantity {quantity!r} is deterministic; drop seed/budget")
        if quantity != "twcib_rate" and "which" in d:
            raise ConfigError(f"which applies to twcib_rate only, not {quantity!r}")
        return cls(model=model, quantity=quantity, grid_min=lo, grid_max=hi,
                   grid_n=n, seed=seed, budget=budget,
                   which=_as_int("which", d.get("which", 2), 1))

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.grid_n)


def evaluate_request(req: CurveRequest) -> tuple[np.ndarray, np.ndarray, RegionCurve]:
    """Run a request; returns (x samples, y samples, RegionCurve)."""
    xs = req.grid()
    m = req.model.model
    q = req.quantity
    at = _QUANTITIES[q][1]
    if at is None:
        threads = _as_int("IBREG_THREADS", os.environ.get("IBREG_THREADS") or 1, 1)
        ys = np.array([p.y for p in search.search_mu_int(m, xs, req.budget, req.seed,
                                                         threads=threads)])
    else:
        ys = np.array([at(m, x, req.which) for x in xs])
    # twcib_rate's grid is the relevance and its value the rate
    pairs = zip(ys, xs) if q == "twcib_rate" else zip(xs, ys)
    points = tuple((float(r), float(mu)) for r, mu in pairs)
    curve = RegionCurve(model=req.model.raw, method=q, seed=req.seed, points=points)
    return xs, ys, curve


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)


def _write_outputs(xs, ys, curve: RegionCurve, out: str | None, fmt: str) -> None:
    meta = curve.to_json()
    if fmt == "json":
        _emit(meta + "\n", out)
        return
    _emit(csv_document(xs, ys, hashlib.sha256(meta.encode()).hexdigest()), out)
    if out is not None:
        root, ext = os.path.splitext(out)
        sidecar = (root + ".json") if ext.lower() != ".json" else (out + ".meta.json")
        _emit(meta + "\n", sidecar)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_curve(args) -> int:
    d = {
        "model": _load_json(args.model),
        "quantity": args.quantity,
        "grid": _parse_grid(args.grid),
    }
    for key in ("seed", "budget", "which"):
        if getattr(args, key) is not None:
            d[key] = getattr(args, key)
    xs, ys, curve = evaluate_request(CurveRequest.from_dict(d))
    _write_outputs(xs, ys, curve, args.out, args.format)
    return 0


def _cmd_compare(args) -> int:
    req_a = CurveRequest.from_dict(_load_json(args.request_a))
    req_b = CurveRequest.from_dict(_load_json(args.request_b))
    _, _, curve_a = evaluate_request(req_a)
    _, _, curve_b = evaluate_request(req_b)
    verdict = search.check_inclusion(curve_a, curve_b, args.tol)
    _emit(json.dumps(verdict.to_dict(), sort_keys=True, indent=2) + "\n", args.out)
    return 0 if verdict.holds else 1


def _cmd_validate(args) -> int:
    cfg = ModelConfig.from_dict(_load_json(args.model))
    sys.stdout.write(json.dumps({"kind": cfg.kind, "ok": True}, sort_keys=True) + "\n")
    return 0


_FIG3_RELEVANCES = (0.15, 0.30, 0.45, 0.60, 0.70)


def _cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)

    def emit(name, req_dict):
        req = CurveRequest.from_dict(req_dict)
        xs, ys, curve = evaluate_request(req)
        _write_outputs(xs, ys, curve, os.path.join(args.out, name), "csv")

    # rate trade-off family for the broadcast chain X1 - X2 - Y (rho 0.8/0.8)
    model3 = {"kind": "gaussian-cdib-x1x2y", "rho": {"x1x2": 0.8, "x2y": 0.8}}
    cfg3 = ModelConfig.from_dict(model3)
    r1_grid = np.linspace(0.0, 3.0, 121)
    for mu in _FIG3_RELEVANCES:
        ys = np.array([gaussian.cdib_x1x2y_r2(cfg3.model, r1, mu) for r1 in r1_grid])
        curve = RegionCurve(model=model3, method=f"cdib_r2_at_mu={mu:g}",
                            seed=None, points=tuple(zip(map(float, ys),
                                                        [float(mu)] * len(ys))))
        _write_outputs(r1_grid, ys, curve, os.path.join(args.out, f"fig3_mu{mu:.2f}.csv"), "csv")

    # outer/inner comparison for the chain X1 - Y - X2 (rho 0.8/0.6)
    model4 = {"kind": "gaussian-cdib-x1yx2", "rho": {"x1y": 0.8, "x2y": 0.6}}
    emit("fig4_outer.csv", {"model": model4, "quantity": "outer_frontier",
                            "grid": {"min": 0.0, "max": 2.5, "n": 51}})
    emit("fig4_inner.csv", {"model": model4, "quantity": "inner_bound",
                            "grid": {"min": 0.0, "max": 2.5, "n": 51}})

    # binary relevance-rate curves (p = q = 0.1)
    model6 = {"kind": "binary", "p": 0.1, "q": 0.1}
    grid6 = {"min": 0.0, "max": float(h2(0.1)), "n": 64}
    emit("fig6_mu_d.csv", {"model": model6, "quantity": "mu_d", "grid": grid6})
    emit("fig6_mu_ed.csv", {"model": model6, "quantity": "mu_ed", "grid": grid6})
    emit("fig6_mu_int.csv", {"model": model6, "quantity": "mu_int", "grid": grid6,
                             "seed": args.seed, "budget": args.budget})
    return 0


def _parse_grid(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects a:b:n, got {text!r}")
    try:
        return {"min": float(parts[0]), "max": float(parts[1]), "n": int(parts[2])}
    except ValueError as exc:
        raise ConfigError(f"--grid expects numbers a:b:n: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ibreg",
                                 description="complexity-relevance region curves")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="evaluate one named curve")
    c.add_argument("quantity", choices=QUANTITIES)
    c.add_argument("--model", required=True, help="model config JSON path")
    c.add_argument("--grid", required=True, help="a:b:n evaluation grid")
    c.add_argument("--out", default=None, help="output path (default stdout)")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--which", type=int, default=None,
                   help="rate side for twcib_rate (1 or 2, default 2)")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.set_defaults(func=_cmd_curve)

    p = sub.add_parser("compare", help="check curve A lies below curve B")
    p.add_argument("request_a", help="curve request JSON (inner candidate)")
    p.add_argument("request_b", help="curve request JSON (outer candidate)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    f = sub.add_parser("figures", help="write the reference figure data files")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--seed", type=int, default=20240917)
    f.add_argument("--budget", type=int, default=200_000)
    f.set_defaults(func=_cmd_figures)

    v = sub.add_parser("validate", help="validate a model config")
    v.add_argument("--model", required=True)
    v.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, DegenerateEventError, ComparisonError, FloatingPointError) as exc:
        sys.stderr.write(f"ibreg: numeric error: {exc}\n")
        return 3
    except IbregError as exc:
        sys.stderr.write(f"ibreg: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
