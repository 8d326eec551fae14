"""Self-check of the benchmark at its smallest size: one pass per run.

Run from the repository root (about a minute):

    python3 -m pytest bench/test_selfcheck.py -q

It checks that BENCHMARK.json, the code and predictions.json name the same
workloads and metrics, that every run emits every metric with its unit, and
that a corrupted reference hash or value, or a missing program, fails the run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(root, workload, seed=workloads.DEFAULT_SEED, trace=0):
    """Run the benchmark's command in ``root``; (exit code, result or None)."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def copy_checkout(dest, with_program=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, os.path.join(dest, "bench"), ignore=ignore)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)
    return dest


def test_spec_code_and_predictions_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert run.DEFAULT_SEED == workloads.DEFAULT_SEED
    layer = tracer.per_layer(tracer.Tracer(), 1, {}, {"trace.overhead_s": 0.0}, 1.0)
    assert {k: u for k, (_, u) in layer.items()} == PER_LAYER
    assert "setup_s" in E2E and max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    with open(os.path.join(HERE, "predictions.json")) as fh:
        groups = json.load(fh)["predictions"]
    cited = [name for g in groups for name in g["per_layer"]]
    assert sorted(cited) == sorted(PER_LAYER)
    for g in groups:
        for pair in g["moves"] + g["unchanged"]:
            wl, metric = pair.split(":")
            assert wl in names and (metric == "*" or metric in E2E), pair


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result = bench(ROOT, workload, seed=7, trace=trace)
    assert code == 0 and result is not None
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = PER_LAYER if trace else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_reference_hash_fails(tmp_path):
    root = copy_checkout(tmp_path)
    path = os.path.join(root, "bench", "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["figures_sha256"]["fig4_outer.csv"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(ref, fh)
    code, result = bench(root, "figures")
    assert code == 1 and result is not None
    assert not result["correct"] and result["failed"] >= 1


def test_corrupted_reference_value_fails(tmp_path):
    root = copy_checkout(tmp_path)
    path = os.path.join(root, "bench", "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["default_seed"]["gaussian-regions"][0] += 1e-6
    with open(path, "w") as fh:
        json.dump(ref, fh)
    code, result = bench(root, "gaussian-regions")
    assert code == 1 and result is not None
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_program=False)
    code, result = bench(root, "binary-curves")
    assert code != 0 and result is None
