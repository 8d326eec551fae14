"""Pinned signatures of the solver entry points.

The solver settings (grids, tolerances, iteration counts, |V2|, the first
search description and the outer bound's reading) are module constants or
fixed choices, documented in the README, and the source axis names are fixed
by the modules that read them; the result records carry only fields some
caller reads.  These tests keep settings and unread fields from coming back
as arguments or fields unnoticed, keep the CLI's model kinds to those some
quantity accepts, keep every function the benchmark's tracer wraps in
place, keep the package's names to those its modules export, and keep the
environment out of the library: only the CLI reads it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ibreg
from ibreg import bentropy, binary, cli, curves, errors, gaussian, optimize, pmf, search
from ibreg.errors import ConfigError

SIGNATURES = [
    # a model file's fields are these parameters (cli.ModelConfig)
    (binary.BinaryModel, ("p", "q")),
    (gaussian.GaussianTwcibModel, ("rho_x1x2", "rho_x1y1", "rho_x2y1", "rho_x2y2", "rho_x1y2",
                                   "sigma_x1_sq", "sigma_x2_sq", "sigma_y1_sq", "sigma_y2_sq")),
    (gaussian.GaussianCdibModel, ("chain", "rho_x1x2", "rho_x2y", "rho_x1y")),
    (binary.mu_d_dual, ("rate", "p", "q")),
    (binary.mu_d_timeshare_oracle, ("rate", "p", "q")),
    (binary.TestChannelSpec.to_channel, ("self", "output_name", "out_card")),
    (binary.CriticalPoint, ("crossover", "rate", "alpha_star")),
    (gaussian.cdib_x1yx2_inner, ("m", "rate1", "rate2")),
    (gaussian.cdib_x1yx2_outer_point, ("m", "r1", "r2")),
    (gaussian.cdib_x1yx2_outer_frontier, ("m", "rate1", "rate2")),
    (optimize.bisect_root, ("fun", "lo", "hi")),
    (optimize.bisect_decreasing_inverse, ("fun", "target", "lo", "hi")),
    (optimize.golden_max, ("fun", "lo", "hi", "tol", "bound", "enclose")),
    (optimize.golden_min, ("fun", "lo", "hi", "tol", "bound", "enclose")),
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


def test_only_the_cli_reads_the_environment():
    src = Path(cli.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py")
                     if "environ" in path.read_text() or "getenv" in path.read_text())
    assert readers == ["cli.py"]


def test_package_names_are_the_modules_exports():
    # ibreg holds the five modules' __all__, the error classes and
    # RegionCurve, each the same object as in its module, and nothing else
    # but the submodules themselves
    exported = {name: getattr(mod, name) for mod in (bentropy, binary, gaussian, pmf, search)
                for name in mod.__all__}
    exported |= {name: v for name, v in vars(errors).items()
                 if isinstance(v, type) and issubclass(v, errors.IbregError)}
    exported["RegionCurve"] = curves.RegionCurve
    public = {name: v for name, v in vars(ibreg).items()
              if not name.startswith("_") and not inspect.ismodule(v)}
    assert public.keys() == exported.keys()
    assert all(public[name] is obj for name, obj in exported.items())
