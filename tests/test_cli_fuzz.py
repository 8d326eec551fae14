"""CLI fuzz test: malformed input gives exit 2 or 3, never a traceback.

Each example starts from a valid request and breaks exactly one part of it:
the model config, the quantity, the grid, the seed, the budget or the
``IBREG_THREADS`` environment value.  ``cli.main`` runs in process on the
``curve``, ``compare`` and ``validate`` subcommands; an exception escaping it
is the traceback a user would see.  Grids and budgets stay small, so a break
that is wrongly accepted still finishes quickly.  Runs are derandomized (the
same examples every run) and keep no example database.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from ibreg.cli import main

BINARY = {"kind": "binary", "p": 0.1, "q": 0.1}
X1YX2 = {"kind": "gaussian-cdib-x1yx2", "rho": {"x1y": 0.8, "x2y": 0.6}}
TWCIB = {"kind": "gaussian-twcib",
         "rho": {"x1x2": 0.3, "x1y1": 0.5, "x2y1": 0.2, "x2y2": 0.6, "x1y2": 0.1}}

# JSON values that are no number, no integer or out of every range used here
junk = st.sampled_from([None, True, "x", "", [], [1], {}, {"a": 1}, -1, -0.5, 2.5,
                        1e400, -1e400, math.nan, 10 ** 400, -(10 ** 400)])
not_object = st.sampled_from([None, 0, 1.5, "x", [], [0.8], True])


def _broken_model():
    binary_field = st.sampled_from(["p", "q"])
    return st.one_of(
        not_object,
        st.just({}),
        st.just({"p": 0.1, "q": 0.1}),                               # no kind
        st.sampled_from([{"kind": k} for k in ([], "", "binary ", "discrete", 3)]),
        st.builds(lambda f, v: {**BINARY, f: v}, binary_field, junk),
        st.builds(lambda f: {k: v for k, v in BINARY.items() if k != f}, binary_field),
        st.builds(lambda base, v: {**base, "rho": v}, st.sampled_from([X1YX2, TWCIB]),
                  not_object),
        st.builds(lambda base, v: {**base, "sigma": v}, st.sampled_from([X1YX2, TWCIB]),
                  not_object),
        st.builds(lambda k, v: {**X1YX2, "rho": {**X1YX2["rho"], k: v}},
                  st.sampled_from(["x1y", "x2y"]),
                  st.sampled_from([None, "x", [], 1.0, -1.0, 1.5, math.nan, math.inf,
                                   10 ** 400])),
        st.builds(lambda k, v: {**X1YX2, "sigma": {k: v}},
                  st.sampled_from(["x1", "x2", "y"]),
                  st.sampled_from([None, "x", [], 0.0, -1.0, math.nan, math.inf,
                                   10 ** 400])),
    )


def _broken_grid():
    good = {"min": 0.0, "max": 0.4, "n": 3}
    return st.one_of(
        not_object,
        st.builds(lambda k: {x: v for x, v in good.items() if x != k},
                  st.sampled_from(sorted(good))),
        st.builds(lambda k, v: {**good, k: v}, st.sampled_from(["min", "max"]),
                  st.sampled_from([None, "x", [], math.nan, math.inf, -math.inf,
                                   10 ** 400])),
        st.builds(lambda v: {**good, "n": v},
                  st.sampled_from([None, "x", [], 1, 0, -3, 2.5, math.nan, math.inf,
                                   10 ** 400])),
        st.just({"min": 0.4, "max": 0.0, "n": 3}),
        st.just({"min": 0.4, "max": 0.4, "n": 3}),
    )


def _mu_int_request():
    return {"model": BINARY, "quantity": "mu_int",
            "grid": {"min": 0.0, "max": 0.4, "n": 3}, "seed": 1, "budget": 64}


def _broken_request():
    """A request dict with one broken part, and the IBREG_THREADS value."""
    det = {"model": BINARY, "quantity": "mu_d", "grid": {"min": 0.0, "max": 0.4, "n": 3}}
    count = st.sampled_from([None, "x", [], -1, 2.5, math.nan, math.inf, -(10 ** 400)])
    return st.one_of(
        st.builds(lambda m: ({**det, "model": m}, None), _broken_model()),
        st.builds(lambda q: ({**det, "quantity": q}, None),
                  st.sampled_from([None, "", "MU_D", "mu", 3, [], "outer_frontier",
                                   "twcib_rate", "inner_bound"])),
        st.builds(lambda g: ({**det, "grid": g}, None), _broken_grid()),
        st.builds(lambda s: ({**_mu_int_request(), "seed": s}, None), count),
        st.builds(lambda b: ({**_mu_int_request(), "budget": b}, None),
                  st.one_of(count, st.just(0))),
        st.builds(lambda k: ({x: v for x, v in _mu_int_request().items() if x != k}, None),
                  st.sampled_from(["seed", "budget", "model", "quantity", "grid"])),
        st.builds(lambda k: ({**det, k: 1}, None), st.sampled_from(["seed", "budget"])),
        st.builds(lambda w: ({**det, "which": w}, None),
                  st.sampled_from([None, "x", [], 2.5, math.nan])),
        st.builds(lambda env: (_mu_int_request(), env),
                  st.sampled_from(["0", "-1", "abc", "1.5", "2x", " ", "nan", "inf",
                                   "1e3"])),
        st.builds(lambda d: (d, None), not_object),
    )


def _run(argv, env):
    """Exit code and stderr of ``main(argv)``; an escaping exception fails."""
    err = io.StringIO()
    environ = dict(os.environ)
    environ.pop("IBREG_THREADS", None)
    if env is not None:
        environ["IBREG_THREADS"] = env
    with mock.patch.dict(os.environ, environ, clear=True), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse rejects a bad option with exit 2
            rc = exc.code
    return rc, err.getvalue()


def _assert_rejected(argv, env=None):
    rc, err = _run(argv, env)
    assert rc in (2, 3), (argv, env, rc, err)
    assert "Traceback" not in err


_SETTINGS = settings(max_examples=120, derandomize=True, deadline=None, database=None)


@_SETTINGS
@given(_broken_request(), st.booleans())
def test_compare_rejects_broken_request(case, first):
    req, env = case
    good = {"model": X1YX2, "quantity": "outer_frontier",
            "grid": {"min": 0.0, "max": 0.4, "n": 2}}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, obj in enumerate((req, good) if first else (good, req)):
            path = os.path.join(tmp, f"r{i}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            paths.append(path)
        _assert_rejected(["compare", *paths], env)


@_SETTINGS
@given(_broken_model(), st.sampled_from(["validate", "mu_d", "outer_frontier"]))
def test_model_file_rejected(model, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(model, fh)
        if command == "validate":
            _assert_rejected(["validate", "--model", path])
        else:
            _assert_rejected(["curve", command, "--model", path, "--grid", "0:0.4:3"])


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.one_of(
    st.sampled_from(["", "0:1", "0:1:3:4", "x:1:3", "0:1:x", "0:1:2.5", "0:1:1",
                     "0:1:-2", "1:0:3", "1:1:3", "nan:1:3", "0:inf:3", "0:1:nan",
                     "-inf:0:3", "::", "0:1e999:3"]),
    st.builds(lambda a, b, n: f"{a}:{b}:{n}",
              st.sampled_from(["0", "x", "nan", "1e999"]),
              st.sampled_from(["0", "0.4", "inf", ""]),
              st.sampled_from(["1", "0", "-1", "2.0", "y"]))),
    st.sampled_from([None, "-1", "x", "1.5", "0"]),
    st.sampled_from([None, "0", "-5", "x", "2.5"]))
def test_curve_command_line_rejected(grid, seed, budget):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(BINARY, fh)
        argv = ["curve", "mu_int", "--model", path, "--grid", grid]
        argv += [] if seed is None else ["--seed", seed]
        argv += [] if budget is None else ["--budget", budget]
        _assert_rejected(argv)


def test_malformed_json_files_rejected():
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as fh:
            fh.write("{not json")
        missing = os.path.join(tmp, "missing.json")
        _assert_rejected(["validate", "--model", bad])
        _assert_rejected(["validate", "--model", missing])
        _assert_rejected(["compare", bad, missing])
        _assert_rejected(["curve", "nonsense", "--model", bad, "--grid", "0:1:3"])
