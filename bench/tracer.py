"""Per-layer tracing by rebinding ibreg's public functions, traced run only.

The tracer replaces each traced function by a wrapper in every ibreg module
namespace that holds it (``ibreg.binary.h2``, ``ibreg.gaussian.golden_max``,
...), so calls between modules and calls inside a module both pass through
it.  ``ibreg.optimize`` keeps its own names: ``golden_min`` calls
``golden_max`` internally, and that is one golden-section search, not two.

Each wrapper records a span (name, start, end, id, parent id) kept in memory.
The hot scalar primitives (``h2``, ``star``, ``f``, ``g`` and the
derivatives), called up to millions of times per pass, record only a count
and their total time.  Every wrapper adds its duration to its parent's child
time, so a layer's self time is its wrappers' durations minus their
children's.  The solvers' objective functions are wrapped too: their
evaluations are counted, and their time is the caller's layer, not
``optimize``'s.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

from ibreg.curves import RegionCurve

LAYERS = ("bentropy", "binary", "optimize", "gaussian", "pmf", "search", "curves", "cli")

# (layer, function) pairs; True marks a hot primitive kept as count and time only
TRACED = {
    "bentropy": {"h2": True, "star": True, "h2_inv": False, "h2_arr": False,
                 "gerber_bound": False},
    "binary": {"f": True, "g": True, "f_alt": True, "f_prime": True, "g_prime": True,
               "g_inverse": False, "critical_point": False, "mu_d": False,
               "mu_ed": False, "mu_d_dual": False, "mu_d_timeshare_oracle": False,
               "optimal_channel": False},
    "optimize": {"golden_max": False, "golden_min": False, "bisect_root": False,
                 "bisect_decreasing_inverse": False},
    "gaussian": {name: False for name in (
        "gaussian_mi", "twcib_coefficients", "twcib_relevance_limit",
        "twcib_rate_for_relevance", "twcib_test_channel_variances",
        "twcib_point_for_variances", "cdib_x1x2y_mu", "cdib_x1x2y_r2",
        "cdib_x1x2y_critical_r1", "cdib_x1yx2_outer_point",
        "cdib_x1yx2_outer_frontier", "cdib_x1yx2_inner")},
    "pmf": {name: False for name in (
        "entropy", "mutual_information", "conditional_mutual_information",
        "compose_markov", "marginalize", "condition")},
    "search": {name: False for name in (
        "evaluate_twcib", "evaluate_cdib_inner", "corner_points_outer",
        "upper_concave_envelope", "envelope_value", "search_mu_int",
        "search_mu_int_detailed", "check_inclusion")},
    "curves": {"csv_document": False},
    "cli": {"main": False, "evaluate_request": False},
}
METHODS = (("curves", RegionCurve, "to_json"),)
SOLVERS = {"golden_max": "golden", "golden_min": "golden",
           "bisect_root": "bisect", "bisect_decreasing_inverse": "bisect"}
CLOSED_FORMS = ("twcib_coefficients", "twcib_relevance_limit", "twcib_rate_for_relevance",
                "twcib_test_channel_variances", "cdib_x1x2y_mu", "cdib_x1x2y_r2",
                "cdib_x1x2y_critical_r1", "cdib_x1yx2_outer_point")


class Tracer:
    """Spans, call counts, times and self times of one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []        # (name, start, end, id, parent id)
        self.stats: dict[str, list] = {}    # name -> [calls, seconds]
        self.self_s = {layer: [0.0] for layer in LAYERS + ("bench",)}
        self.counts: dict[str, float] = defaultdict(float)  # evaluations, search statistics
        self._stack: list[list] = []        # open frames: [child seconds, span id, layer]
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, aggregate: bool, after=None):
        stat = self.stats.setdefault(f"{layer}.{name}", [0, 0.0])
        self_s = self.self_s[layer]
        stack, spans = self._stack, self.spans
        key = f"{layer}.{name}"

        def traced(*args, **kw):
            parent = stack[-1] if stack else None
            pid = parent[1] if parent else 0
            if aggregate:
                sid = pid
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                if parent is not None:
                    parent[0] += d
                stat[0] += 1
                stat[1] += d
                self_s[0] += d - frame[0]
                if not aggregate:
                    spans.append((key, t0, t1, sid, pid))
            if after is not None:
                after(args, kw, result)
            return result

        return traced

    def _solver(self, name: str, fn):
        """Wrap a solver and, per call, the objective it is handed."""
        evals = f"{SOLVERS[name]}.evals"
        stack, counts = self._stack, self.counts

        def solver(fun, *args, **kw):
            # the top frame is this solver's own; the one below it called it
            caller = stack[-2][2] if len(stack) > 1 else "bench"
            objective = self._wrap(caller, "objective", fun, True)

            def counted(x):
                counts[evals] += 1
                return objective(x)

            return fn(counted, *args, **kw)

        return self._wrap("optimize", name, solver, False)

    def _after(self, name: str):
        if name == "search_mu_int_detailed":
            def after(args, kw, result):
                self.counts["search.samples"] += kw.get("budget", args[2] if len(args) > 2 else 0)
                self.counts["search.buckets_filled"] += len(result[1]) - 1  # minus the anchor
            return after
        if name == "upper_concave_envelope":
            def after(args, kw, result):
                self.counts["search.hull_vertices"] += len(result)
            return after
        return None

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"ibreg.{layer}")
            for name, aggregate in names.items():
                fn = getattr(module, name)
                wrappers[id(fn)] = (self._solver(name, fn) if name in SOLVERS else
                                    self._wrap(layer, name, fn, aggregate, self._after(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "ibreg" and not modname.startswith("ibreg."):
                continue
            if module is sys.modules["ibreg.optimize"]:
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for layer, cls, name in METHODS:
            fn = getattr(cls, name)
            self._saved.append((cls, name, fn))
            setattr(cls, name, self._wrap(layer, name, fn, False))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.stats.get(k, (0, 0.0))[0] for k in keys)

    def seconds(self, *keys: str) -> float:
        return sum(self.stats.get(k, (0, 0.0))[1] for k in keys)

    def mean_ms(self, *keys: str) -> float:
        n = self.calls(*keys)
        return 1e3 * self.seconds(*keys) / n if n else 0.0

    def aggregates(self) -> dict:
        return {k: {"calls": v[0], "seconds": v[1]} for k, v in sorted(self.stats.items())
                if v[0]}


def per_layer(tr: Tracer, passes: int, observed: dict, extra: dict, scale: float) -> dict:
    """Per-layer metrics per pass: name -> (value, unit).

    ``.calls``/``.evals`` are counts per pass, ``.ms`` the mean inclusive time
    of one call, ``.s`` the inclusive seconds per pass, ``self_s`` the layer's
    self time per pass.  ``scale`` rescales the traced times to the reference
    CPU speed; ``extra`` holds values measured elsewhere, already final.
    """
    n = passes

    def per_pass(v):
        return v / n

    gm = [f"gaussian.{name}" for name in CLOSED_FORMS]
    search_s = tr.seconds("search.search_mu_int_detailed")
    out = {
        "bentropy.h2.calls": (per_pass(tr.calls("bentropy.h2")), "count"),
        "bentropy.star.calls": (per_pass(tr.calls("bentropy.star")), "count"),
        "bentropy.h2_inv.calls": (per_pass(tr.calls("bentropy.h2_inv")), "count"),
        "bentropy.self_s": (per_pass(tr.self_s["bentropy"][0]), "s"),
        "binary.g_inverse.calls": (per_pass(tr.calls("binary.g_inverse")), "count"),
        "binary.g_inverse.ms": (tr.mean_ms("binary.g_inverse"), "ms"),
        "binary.mu_d.ms": (tr.mean_ms("binary.mu_d"), "ms"),
        "binary.mu_ed.ms": (tr.mean_ms("binary.mu_ed"), "ms"),
        "binary.optimal_channel.ms": (tr.mean_ms("binary.optimal_channel"), "ms"),
        "binary.critical_point.calls": (per_pass(tr.calls("binary.critical_point")), "count"),
        "binary.critical_point.ms": (tr.mean_ms("binary.critical_point"), "ms"),
        "binary.mu_d_dual.ms": (tr.mean_ms("binary.mu_d_dual"), "ms"),
        "binary.mu_d_timeshare.ms": (tr.mean_ms("binary.mu_d_timeshare_oracle"), "ms"),
        "binary.dual_gap.max": (observed.get("binary.dual_gap.max", 0.0), "bits"),
        "binary.self_s": (per_pass(tr.self_s["binary"][0]), "s"),
        "optimize.golden.calls": (per_pass(tr.calls("optimize.golden_max",
                                                    "optimize.golden_min")), "count"),
        "optimize.golden.evals": (per_pass(tr.counts.get("golden.evals", 0)), "count"),
        "optimize.bisect.calls": (per_pass(tr.calls("optimize.bisect_root",
                                                    "optimize.bisect_decreasing_inverse")),
                                  "count"),
        "optimize.bisect.evals": (per_pass(tr.counts.get("bisect.evals", 0)), "count"),
        "optimize.self_s": (per_pass(tr.self_s["optimize"][0]), "s"),
        "gaussian.outer_frontier.ms": (tr.mean_ms("gaussian.cdib_x1yx2_outer_frontier"), "ms"),
        "gaussian.inner.ms": (tr.mean_ms("gaussian.cdib_x1yx2_inner"), "ms"),
        "gaussian.closed_form.ms": (tr.mean_ms(*gm), "ms"),
        "gaussian.gaussian_mi.calls": (per_pass(tr.calls("gaussian.gaussian_mi")), "count"),
        "gaussian.gaussian_mi.ms": (tr.mean_ms("gaussian.gaussian_mi"), "ms"),
        "gaussian.self_s": (per_pass(tr.self_s["gaussian"][0]), "s"),
        "search.search_mu_int.s": (per_pass(tr.seconds("search.search_mu_int")), "s"),
        "search.samples_per_s": (tr.counts.get("search.samples", 0) / search_s
                                 if search_s else 0.0, "1/s"),
        "search.envelope.ms": (tr.mean_ms("search.upper_concave_envelope",
                                          "search.envelope_value"), "ms"),
        "search.evaluate_twcib.ms": (tr.mean_ms("search.evaluate_twcib"), "ms"),
        "search.self_s": (per_pass(tr.self_s["search"][0]), "s"),
        "search.buckets_filled": (per_pass(tr.counts.get("search.buckets_filled", 0)), "count"),
        "search.hull_vertices": (per_pass(tr.counts.get("search.hull_vertices", 0)), "count"),
        "pmf.compose_markov.calls": (per_pass(tr.calls("pmf.compose_markov")), "count"),
        "pmf.compose_markov.ms": (tr.mean_ms("pmf.compose_markov"), "ms"),
        "pmf.entropy.calls": (per_pass(tr.calls("pmf.entropy")), "count"),
        "pmf.self_s": (per_pass(tr.self_s["pmf"][0]), "s"),
        "curves.serialize.ms": (tr.mean_ms("curves.to_json", "curves.csv_document"), "ms"),
        "cli.evaluate_request.s": (per_pass(tr.seconds("cli.evaluate_request")), "s"),
        "cli.bytes_written": (observed.get("cli.bytes_written", 0.0), "bytes"),
        "cli.self_s": (per_pass(tr.self_s["cli"][0]), "s"),
    }
    for name, (value, unit) in out.items():
        if unit in ("s", "ms"):
            out[name] = (value * scale, unit)
        elif unit == "1/s":
            out[name] = (value / scale, unit)
    out["search.scaling_2t"] = (extra.get("search.scaling_2t", 0.0), "ratio")
    out["trace.overhead_s"] = (extra["trace.overhead_s"], "s")
    return out
