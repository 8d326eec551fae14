"""CLI subcommands: validation, curve emission, reproducibility, compare."""

import hashlib
import json
import math

import pytest

from ibreg import RegionCurve, h2, mu_d, search
from ibreg.cli import CurveRequest, ModelConfig, main
from ibreg.errors import ArgumentError, ConfigError, DomainError

MU0 = 0.31992295427172016
TOP = 0.53100440641071878

BINARY = {"kind": "binary", "p": 0.1, "q": 0.1}
CHAIN_A = {"kind": "gaussian-cdib-x1x2y", "rho": {"x1x2": 0.8, "x2y": 0.8}}
CHAIN_B = {"kind": "gaussian-cdib-x1yx2", "rho": {"x1y": 0.8, "x2y": 0.6}}
TWCIB = {"kind": "gaussian-twcib",
         "rho": {"x1x2": 0.5, "x1y1": 0.4, "x2y1": 0.8, "x2y2": 0.7, "x1y2": 0.55}}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# request/model validation
# ---------------------------------------------------------------------------


def test_model_config_kinds():
    for cfg in (BINARY, CHAIN_A, CHAIN_B, TWCIB, dict(TWCIB, sigma={"x1": 4.0, "y2": 0.5})):
        assert ModelConfig.from_dict(cfg).kind == cfg["kind"]
    # no quantity accepts a discrete pmf, so the kind is not offered
    with pytest.raises(ConfigError, match="unknown model kind"):
        ModelConfig.from_dict(
            {"kind": "discrete",
             "pmf": {"axes": [{"name": "a", "card": 2}], "table": [0.5, 0.5]}})


def test_model_config_rejects_invalid():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"kind": "binary", "p": 0.6, "q": 0.1})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"kind": "nope"})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"p": 0.1})


def test_request_validation():
    good = {"model": BINARY, "quantity": "mu_d",
            "grid": {"min": 0.0, "max": 0.4, "n": 10}}
    CurveRequest.from_dict(good)
    with pytest.raises(ConfigError):   # stochastic quantity needs seed+budget
        CurveRequest.from_dict({**good, "quantity": "mu_int"})
    with pytest.raises(ConfigError):   # deterministic quantity must not have them
        CurveRequest.from_dict({**good, "seed": 1})
    with pytest.raises(ConfigError):   # wrong model kind for the quantity
        CurveRequest.from_dict({**good, "model": CHAIN_A})
    with pytest.raises(ConfigError):
        CurveRequest.from_dict({**good, "grid": {"min": 0.4, "max": 0.0, "n": 10}})
    with pytest.raises(ConfigError):
        CurveRequest.from_dict({**good, "grid": {"min": 0.0, "max": 0.4, "n": 1}})


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0),
                                    (0.0, math.nan)])
def test_request_rejects_non_finite_grid(lo, hi):
    # min < max held for [0, inf], and linspace turned it into [nan, inf, inf]
    with pytest.raises(ConfigError, match="grid"):
        CurveRequest.from_dict({"model": BINARY, "quantity": "mu_ed",
                                "grid": {"min": lo, "max": hi, "n": 3}})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    rc = main(["validate", "--model", write_json(tmp_path / "m.json", BINARY)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_validate_invalid_p(tmp_path, capsys):
    bad = {"kind": "binary", "p": 0.6, "q": 0.1}
    rc = main(["validate", "--model", write_json(tmp_path / "m.json", bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "p" in err and "(0, 1/2)" in err


def test_curve_mu_d_endpoints(tmp_path):
    model = write_json(tmp_path / "m.json", BINARY)
    out = tmp_path / "curve.csv"
    hq = h2(0.1)
    rc = main(["curve", "mu_d", "--model", model,
               "--grid", f"0:{hq}:100", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# json-meta: sha256:")
    assert lines[1] == "x,y"
    first = lines[2].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(MU0, abs=1e-9)
    assert float(last[1]) == pytest.approx(TOP, abs=1e-3)
    # sidecar exists, parses, and matches the embedded hash
    sidecar = (tmp_path / "curve.json").read_text()
    digest = hashlib.sha256(sidecar.strip().encode()).hexdigest()
    assert lines[0] == f"# json-meta: sha256:{digest}"
    curve = RegionCurve.from_json(sidecar)
    assert curve.method == "mu_d"
    assert curve.points[0][1] == pytest.approx(MU0, abs=1e-9)


def test_curve_reproducible_bytes(tmp_path):
    model = write_json(tmp_path / "m.json", BINARY)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["curve", "mu_int", "--model", model, "--grid", "0:0.45:12",
                   "--seed", "7", "--budget", "2000", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_curve_json_format(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", CHAIN_A)
    rc = main(["curve", "cdib_mu_surface", "--model", model,
               "--grid", "0:2:5", "--format", "json"])
    assert rc == 0
    curve = RegionCurve.from_json(capsys.readouterr().out)
    assert len(curve.points) == 5
    assert curve.seed is None


def test_curve_exit_codes(tmp_path, capsys):
    bad_model = write_json(tmp_path / "bad.json", {"kind": "binary", "p": 0.9, "q": 0.1})
    assert main(["curve", "mu_d", "--model", bad_model, "--grid", "0:1:5"]) == 2
    model = write_json(tmp_path / "m.json", BINARY)
    assert main(["curve", "mu_d", "--model", model, "--grid", "bad"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["curve", "mu_d", "--model", missing, "--grid", "0:1:5"]) == 2


@pytest.mark.parametrize("model, quantity, grid", [
    (BINARY, "mu_ed", "0:inf:3"),
    (BINARY, "mu_ed", "nan:1:3"),
    # printed nan,nan and inf rows with exit 0 before the grid was checked
    (CHAIN_A, "cdib_mu_surface", "0:inf:3"),
])
def test_curve_non_finite_grid_exit_2(tmp_path, capsys, model, quantity, grid):
    path = write_json(tmp_path / "m.json", model)
    assert main(["curve", quantity, "--model", path, "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "grid min/max must be finite" in err


def test_curve_inner_bound_rejects_broadcast_variances(tmp_path, capsys):
    # a broadcast model is unit-variance: its bounds read correlations only,
    # so a sigma entry is a field no bound reads
    path = write_json(tmp_path / "m.json", CHAIN_B)
    assert main(["curve", "inner_bound", "--model", path, "--grid", "0:2.5:11"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2.5,0.838627252843"
    scaled = write_json(tmp_path / "s.json",
                        dict(CHAIN_B, sigma={"x1": 1e16, "x2": 1e16, "y": 1e16}))
    assert main(["curve", "inner_bound", "--model", scaled, "--grid", "0:2.5:11"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "sigma_x1_sq" in err


@pytest.mark.parametrize("model, field", [
    # computed with the chain's 0.48 in place of the given 0.1
    (dict(CHAIN_B, rho={"x1y": 0.8, "x2y": 0.6, "x1x2": 0.1}), "rho_x1x2=0.1"),
    (dict(CHAIN_B, sigma={"x1": 4, "y2": -7}), "sigma_x1_sq"),
    (dict(TWCIB, rho=dict(TWCIB["rho"], x1y=0.3), sigma={"y": 2.0}), "rho_x1y"),
    (dict(TWCIB, sigma={"y": 2.0}), "sigma_y_sq"),
    (dict(BINARY, rho={"x1y": 0.3}), "rho_x1y"),
    (dict(BINARY, extra=1.0), "extra"),
    ({"kind": "binary", "p": 0.1}, "q"),
    (dict(CHAIN_A, rho={"x1x2": 0.8}), "rho_x2y"),
    (dict(CHAIN_A, chain="x1-y-x2"), "x1-y-x2"),
    (dict(CHAIN_A, chain=1.0), "chain"),
    (dict(TWCIB, rho_x1x2=0.5), "rho_x1x2"),
])
def test_validate_rejects_unread_and_contradicting_fields(tmp_path, capsys, model, field):
    # all but the missing q printed ok with exit 0: the CLI read a fixed
    # list of fields per kind and dropped the rest
    assert main(["validate", "--model", write_json(tmp_path / "m.json", model)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and field in err


def test_twcib_rate_markov_side_needs_no_rate(tmp_path, capsys):
    # Y1 - X1 - X2 and Y2 - X2 - X1 are Markov (0.3 = 0.5 * 0.6): the
    # numerator of the rate's log argument is 0 up to rounding, and the curve
    # printed a ValueError traceback with exit 1
    model = {"kind": "gaussian-twcib",
             "rho": {"x1x2": 0.5, "x1y1": 0.6, "x2y1": 0.3, "x2y2": 0.6, "x1y2": 0.3}}
    path = write_json(tmp_path / "m.json", model)
    for which in ("1", "2"):
        assert main(["curve", "twcib_rate", "--model", path, "--grid", "0:0.1:3",
                     "--which", which]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["x,y", "0,0", "0.05,0", "0.1,0"] and err == ""


def test_curve_mu_d_at_tiny_q(tmp_path, capsys):
    # R_c rounds to 0 at q = 1e-19: mu_d leaked ZeroDivisionError (exit 1)
    path = write_json(tmp_path / "m.json", {"kind": "binary", "p": 0.1, "q": 1e-19})
    assert main(["curve", "mu_d", "--model", path, "--grid", "0:1e-18:3"]) == 0
    assert capsys.readouterr().err == ""


def test_compare_inclusion(tmp_path, capsys):
    hq = h2(0.1)
    grid = {"min": 0.0, "max": hq, "n": 40}
    req_d = write_json(tmp_path / "d.json",
                       {"model": BINARY, "quantity": "mu_d", "grid": grid})
    req_ed = write_json(tmp_path / "ed.json",
                        {"model": BINARY, "quantity": "mu_ed", "grid": grid})
    assert main(["compare", req_d, req_ed, "--tol", "1e-9"]) == 0
    v = json.loads(capsys.readouterr().out)
    assert v["holds"] is True
    # the reverse ordering is violated, with an interior witness
    assert main(["compare", req_ed, req_d, "--tol", "1e-9"]) == 1
    v = json.loads(capsys.readouterr().out)
    assert v["holds"] is False
    assert 0.0 < v["worst"]["R"] < hq


def test_compare_identical_requests(tmp_path, capsys):
    grid = {"min": 0.0, "max": 0.4, "n": 20}
    req = write_json(tmp_path / "r.json",
                     {"model": BINARY, "quantity": "mu_d", "grid": grid})
    assert main(["compare", req, req, "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["worst_gap"] <= 0.0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_compare_non_finite_tol_exit_2(tmp_path, capsys, tol):
    grid = {"min": 0.0, "max": 0.4, "n": 20}
    req = write_json(tmp_path / "r.json",
                     {"model": BINARY, "quantity": "mu_d", "grid": grid})
    assert main(["compare", req, req, f"--tol={tol}"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("field, value", [
    ("which", "x"), ("which", 2.5), ("which", math.nan), ("which", math.inf),
    ("seed", "abc"), ("seed", 1.5), ("seed", math.nan), ("seed", -math.inf),
    ("budget", "many"), ("budget", 1000.5), ("budget", math.nan), ("budget", math.inf),
    ("n", "ten"), ("n", 2.7), ("n", math.nan), ("n", -math.inf),
])
def test_compare_request_integers_exit_2(tmp_path, capsys, field, value):
    # "which": "x" and "seed": "abc" printed a ValueError traceback (exit 1),
    # and "n": 2.7 was silently truncated to a 2-point grid
    req = {"model": BINARY, "quantity": "mu_d", "grid": {"min": 0.0, "max": 0.4, "n": 3}}
    if field in ("seed", "budget"):
        req.update(quantity="mu_int", seed=1, budget=100)
    if field == "which":
        req.update(model=TWCIB, quantity="twcib_rate")
    if field == "n":
        req["grid"]["n"] = value
    else:
        req[field] = value
    path = write_json(tmp_path / "r.json", req)
    assert main(["compare", path, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{'grid n' if field == 'n' else field} must be an integer" in err


def test_request_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
        CurveRequest.from_dict({"model": BINARY, "quantity": "mu_int",
                                "grid": {"min": 0.0, "max": 0.4, "n": 3},
                                "seed": -1, "budget": 100})


def test_request_integral_values_accepted():
    req = CurveRequest.from_dict({"model": BINARY, "quantity": "mu_int",
                                  "grid": {"min": 0.0, "max": 0.4, "n": 3.0},
                                  "seed": 7.0, "budget": "1500"})
    assert (req.grid_n, req.seed, req.budget) == (3, 7, 1500)
    assert all(type(v) is int for v in (req.grid_n, req.seed, req.budget))
    req = CurveRequest.from_dict({"model": TWCIB, "quantity": "twcib_rate",
                                  "grid": {"min": 0.0, "max": 0.4, "n": 3}, "which": 1.0})
    assert req.which == 1 and type(req.which) is int


@pytest.mark.parametrize("quantity", ["mu_ed", "mu_d", "mu_int"])
def test_which_outside_twcib_rate_exit_2(tmp_path, capsys, quantity):
    # --which 7 on mu_d exited 0 and the flag was ignored
    model = write_json(tmp_path / "m.json", BINARY)
    extra = ["--seed", "1", "--budget", "64"] if quantity == "mu_int" else []
    for which in ("7", "2"):
        argv = ["curve", quantity, "--model", model, "--grid", "0:0.4:3", "--which", which]
        assert main(argv + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and "which applies to twcib_rate only" in err


def test_figures(tmp_path):
    rc = main(["figures", "--out", str(tmp_path / "figs"),
               "--seed", "3", "--budget", "1500"])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "figs").iterdir())
    for want in ("fig3_mu0.15.csv", "fig3_mu0.70.csv", "fig4_inner.csv",
                 "fig4_outer.csv", "fig6_mu_d.csv", "fig6_mu_ed.csv",
                 "fig6_mu_int.csv"):
        assert want in names
        assert want.replace(".csv", ".json") in names
    # fig6 mu_d data reproduces the analytic curve
    lines = (tmp_path / "figs" / "fig6_mu_d.csv").read_text().splitlines()[2:]
    for line in lines[:5]:
        x, y = map(float, line.split(","))
        assert y == pytest.approx(mu_d(x, 0.1, 0.1), abs=1e-9)
    # fig3 trade-off curves saturate: R2 nonincreasing in R1
    rows = [tuple(map(float, ln.split(",")))
            for ln in (tmp_path / "figs" / "fig3_mu0.45.csv").read_text().splitlines()[2:]]
    r2s = [y for _, y in rows]
    assert all(b <= a + 1e-12 for a, b in zip(r2s, r2s[1:]))
    assert r2s[-1] > 0.0


def test_compare_mu_int_inside_mu_ed(tmp_path):
    hq = h2(0.1)
    grid = {"min": 0.0, "max": hq, "n": 24}
    req_int = write_json(tmp_path / "i.json",
                         {"model": BINARY, "quantity": "mu_int", "grid": grid,
                          "seed": 11, "budget": 4000})
    req_ed = write_json(tmp_path / "e.json",
                        {"model": BINARY, "quantity": "mu_ed", "grid": grid})
    assert main(["compare", req_int, req_ed, "--tol", "1e-3"]) == 0


def test_region_curve_round_trip():
    # serialization rounds to 12 significant digits; after one pass the
    # representation is a fixed point and re-reading compares equal
    c = RegionCurve(BINARY, "mu_d", None, ((0.0, MU0), (0.2, 0.41)))
    d = RegionCurve.from_json(c.to_json())
    e = RegionCurve.from_json(d.to_json())
    assert e == d
    assert d.points[0][1] == pytest.approx(MU0, abs=1e-11)


def test_region_curve_needs_a_point():
    with pytest.raises(ArgumentError, match="at least one point"):
        RegionCurve(BINARY, "mu_d", None, ())


@pytest.mark.parametrize("point", [(0.0, math.nan), (math.inf, 0.3), (math.nan, math.nan)])
def test_region_curve_rejects_non_finite_points(point):
    # json.dumps emitted {"R":0.0,"mu":NaN}, which is not valid JSON
    with pytest.raises(DomainError, match="finite"):
        RegionCurve(BINARY, "mu_d", None, ((0.1, 0.4), point))


@pytest.mark.parametrize("seed", [2.5, math.nan, math.inf, -1, "7", True])
def test_region_curve_seed_follows_count_rule(seed):
    # 2.5 silently became 2 and NaN raised a bare ValueError; the JSON
    # reader goes through the same rule
    with pytest.raises(ArgumentError, match="seed"):
        RegionCurve(BINARY, "mu_int", seed, ((0.0, 0.4),))
    text = json.dumps({"model": BINARY, "method": "mu_int", "seed": seed,
                       "points": [{"R": 0.0, "mu": 0.4}]})
    with pytest.raises(ArgumentError, match="seed"):
        RegionCurve.from_json(text)


def test_region_curve_integral_seed():
    for seed in (7, 7.0):
        curve = RegionCurve.from_json(RegionCurve(BINARY, "mu_int", seed, ((0.0, 0.4),)).to_json())
        assert curve.seed == 7 and type(curve.seed) is int


def test_curve_budget_above_ceiling_exit_2(tmp_path, capsys):
    # a budget of 1e308 was accepted and the search ran until memory ran out
    model = write_json(tmp_path / "m.json", BINARY)
    for budget in (str(2 ** 26 + 1), "1" + "0" * 308):
        assert main(["curve", "mu_int", "--model", model, "--grid", "0:0.4:3",
                     "--seed", "1", "--budget", budget]) == 2
        assert "budget must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["negative seed", "bad IBREG_THREADS", "discrete model"])
def test_curve_bad_input_exit_2(tmp_path, capsys, monkeypatch, case):
    # the first two ended in a traceback with exit 1; "discrete" validated
    # but no quantity accepted it
    model, seed = BINARY, "1"
    if case == "negative seed":
        seed = "-1"
    elif case == "bad IBREG_THREADS":
        monkeypatch.setenv("IBREG_THREADS", "abc")
    else:
        model = {"kind": "discrete",
                 "pmf": {"axes": [{"name": "a", "card": 2}], "table": [0.5, 0.5]}}
    path = write_json(tmp_path / "m.json", model)
    rc = main(["curve", "mu_int", "--model", path, "--grid", "0:0.4:3",
               "--seed", seed, "--budget", "100"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("ibreg: ") and "Traceback" not in err


def test_compare_disjoint_ranges_exit_3(tmp_path, capsys):
    a = write_json(tmp_path / "a.json",
                   {"model": BINARY, "quantity": "mu_d",
                    "grid": {"min": 0.0, "max": 0.1, "n": 5}})
    b = write_json(tmp_path / "b.json",
                   {"model": BINARY, "quantity": "mu_d",
                    "grid": {"min": 0.3, "max": 0.4, "n": 5}})
    assert main(["compare", a, b]) == 3
    assert "disjoint" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_curve_threads_env_below_one_exit_2(tmp_path, capsys, monkeypatch, value):
    # IBREG_THREADS=0 ran the search serially with exit 0, then was
    # rejected under the search's keyword name, threads
    monkeypatch.setenv("IBREG_THREADS", value)
    path = write_json(tmp_path / "m.json", BINARY)
    rc = main(["curve", "mu_int", "--model", path, "--grid", "0:0.4:3",
               "--seed", "1", "--budget", "100"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("ibreg: ") and "IBREG_THREADS" in err and "Traceback" not in err


@pytest.mark.parametrize("value, threads", [("", 1), ("2", 2), ("4", 4), ("+2", 2)],
                         ids=["empty", "2", "4", "+2"])
def test_curve_threads_env_keeps_bytes(tmp_path, capsys, monkeypatch, value, threads):
    # the CLI reads IBREG_THREADS, by the rule of integer request fields, and
    # passes it to the search; any thread count gives the unset output
    path = write_json(tmp_path / "m.json", BINARY)
    argv = ["curve", "mu_int", "--model", path, "--grid", "0:0.4:9",
            "--seed", "3", "--budget", "20000"]
    monkeypatch.delenv("IBREG_THREADS", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    seen, search_mu_int = [], search.search_mu_int

    def spy(*args, threads):
        seen.append(threads)
        return search_mu_int(*args, threads=threads)

    monkeypatch.setattr(search, "search_mu_int", spy)
    monkeypatch.setenv("IBREG_THREADS", value)
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    assert seen == [threads]


@pytest.mark.parametrize("value", ["abc", "2.5", " ", "1e3"],
                         ids=["abc", "2.5", "space", "1e3"])
def test_curve_threads_env_not_integer_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("IBREG_THREADS", value)
    path = write_json(tmp_path / "m.json", BINARY)
    rc = main(["curve", "mu_int", "--model", path, "--grid", "0:0.4:3",
               "--seed", "1", "--budget", "100"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"ibreg: IBREG_THREADS must be an integer >= 1, got {value!r}\n"


def test_deterministic_curve_ignores_threads_env(tmp_path, capsys, monkeypatch):
    # only the mu_int search reads IBREG_THREADS
    monkeypatch.setenv("IBREG_THREADS", "abc")
    path = write_json(tmp_path / "m.json", BINARY)
    assert main(["curve", "mu_d", "--model", path, "--grid", "0:0.4:3"]) == 0
