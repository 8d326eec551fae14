"""Pinned signatures of the solver entry points.

The solver settings (grids, tolerances, iteration counts, |V2|, the first
search description and the outer bound's reading) are module constants or
fixed choices, documented in the README, and the source axis names are fixed
by the modules that read them; the result records carry only fields some
caller reads.  These tests keep settings and unread fields from coming back
as arguments or fields unnoticed, keep the CLI's model kinds to those some
quantity accepts, and keep every function the benchmark's tracer wraps in
place.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ibreg import binary, cli, gaussian, optimize, search
from ibreg.errors import ConfigError

SIGNATURES = [
    (binary.mu_d_dual, ("rate", "p", "q")),
    (binary.mu_d_timeshare_oracle, ("rate", "p", "q")),
    (binary.TestChannelSpec.to_channel, ("self", "output_name", "out_card")),
    (binary.CriticalPoint, ("crossover", "rate", "alpha_star")),
    (gaussian.cdib_x1yx2_inner, ("m", "rate1", "rate2")),
    (gaussian.cdib_x1yx2_outer_point, ("m", "r1", "r2")),
    (gaussian.cdib_x1yx2_outer_frontier, ("m", "rate1", "rate2")),
    (optimize.bisect_root, ("fun", "lo", "hi")),
    (optimize.bisect_decreasing_inverse, ("fun", "target", "lo", "hi")),
    (optimize.golden_max, ("fun", "lo", "hi", "tol")),
    (search.evaluate_twcib, ("source", "sched")),
    (search.evaluate_cdib_inner, ("source", "sched")),
    (search.corner_points_outer, ("source", "u1", "u2")),
    (search.RoundSchedule, ("rounds", "channels")),
    (search.BucketRecord, ("rate", "relevance", "origin")),
    (search.RegionPoint, ("r1", "r2", "sum_rate", "mu", "mu1", "mu2")),
    (search.EnvelopePoint, ("x", "y")),
    (search.InclusionVerdict, ("holds", "tol", "checked", "worst_gap", "worst_rate",
                               "worst_inner", "worst_outer")),
    (search.search_mu_int, ("model", "r2_grid", "budget", "seed", "threads")),
    (search.search_mu_int_detailed, ("model", "r2_grid", "budget", "seed", "threads")),
]


@pytest.mark.parametrize("fn, names", SIGNATURES, ids=[fn.__name__ for fn, _ in SIGNATURES])
def test_entry_point_parameters(fn, names):
    assert tuple(inspect.signature(fn).parameters) == names


def test_model_kinds_are_the_ones_quantities_accept():
    kinds = {kind for kind, _ in cli._QUANTITIES.values()}
    assert set(cli._MODELS) == kinds == {
        "binary", "gaussian-twcib", "gaussian-cdib-x1x2y", "gaussian-cdib-x1yx2"}
    # the order of argparse's choices and of the unknown-quantity error text
    assert cli.QUANTITIES == ("mu_ed", "mu_d", "mu_int", "twcib_rate", "cdib_mu_surface",
                              "outer_frontier", "inner_bound")
    with pytest.raises(ConfigError):
        cli.ModelConfig.from_dict({"kind": "discrete", "pmf": {}})


def test_traced_names_resolve():
    # the benchmark's tracer looks each (layer, name) up with a bare getattr,
    # so deleting or renaming a traced function must fail here first
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(layer, name) for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"ibreg.{layer}"), name, None))]
    assert missing == []
