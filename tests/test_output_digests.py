"""Byte gate: the sha256 of every file the CLI writes for a fixed set of runs.

``ibreg figures`` runs in process at its default seed and budget 200,000,
once with ``IBREG_THREADS=1`` and once with 2, and so does one small
``ibreg curve`` request per quantity, written as CSV (with its JSON sidecar)
and as JSON.  Every output must match the digests below byte for byte.

At budget 200,000 the figures do not pin the search's sampling (one chunk
drawn with another seed leaves ``fig6_mu_int`` unchanged), so the records
and envelope of ``search_mu_int_detailed`` are digested too, at budgets of
one sample, one chunk and a row, and five chunks.

Last bits can differ under another numpy build or on another CPU (numpy's
``exp2``/``power`` and Python's ``**`` disagree on some arguments, and the
outputs are rounded from them to 12 digits).  So the digests are tied to the
environment they were recorded in: elsewhere the test skips, and the skip
reason names both environments.  It never passes without comparing.
"""

import hashlib
import json
import os
import platform
from unittest import mock

import numpy as np
import pytest

from ibreg import BinaryModel
from ibreg.cli import main
from ibreg.search import search_mu_int_detailed

RECORDED_ENV = ("2.4.6", "x86_64")   # numpy.__version__, platform.machine()

BINARY = {"kind": "binary", "p": 0.1, "q": 0.2}
TWCIB = {"kind": "gaussian-twcib",
         "rho": {"x1x2": 0.3, "x1y1": 0.5, "x2y1": 0.2, "x2y2": 0.6, "x1y2": 0.1}}
X1X2Y = {"kind": "gaussian-cdib-x1x2y", "rho": {"x1x2": 0.8, "x2y": 0.8}}
X1YX2 = {"kind": "gaussian-cdib-x1yx2", "rho": {"x1y": 0.8, "x2y": 0.6}}

# quantity -> (model, grid, extra options); the binary grids run past
# h2(0.2) = 0.722, where mu_ed and mu_d saturate
CURVES = {
    "mu_ed": (BINARY, "0:0.9:10", []),
    "mu_d": (BINARY, "0:0.9:10", []),
    "mu_int": ({**BINARY, "q": 0.1}, "0:0.45:8", ["--seed", "7", "--budget", "4096"]),
    "twcib_rate": (TWCIB, "0:0.2:5", []),
    "cdib_mu_surface": (X1X2Y, "0:4:9", []),
    "outer_frontier": (X1YX2, "0:3:7", []),
    "inner_bound": (X1YX2, "0:3:4", []),
}

DIGESTS = {
    "curve/cdib_mu_surface.csv":
        "07691508569a2351062e78686724704a506c1aa64f927c18ae85e20fc6831775",
    "curve/cdib_mu_surface.json":
        "bca9a62489c15d855cfa41639617473fe79ba2638338bc8370212d72b58fe44b",
    "curve/inner_bound.csv":
        "3cd4456f7eb50cd79e87367c12356b29eb447195601fd2687dc956b04c1312e8",
    "curve/inner_bound.json":
        "950b3eecd2361cfbd12c380c83ab503d647e0bf3ae09813225e6aa27241a3cc7",
    "curve/mu_d.csv":
        "f9cb85bde3cef9455a6b510f9ac1791e8c915a027deae156243717944a3994d1",
    "curve/mu_d.json":
        "774e9b7f8565ee6fd806355f283edbef1135c5ed43e4a46918b6afb9020c0bf4",
    "curve/mu_ed.csv":
        "4113d09bedef9df0c9a5856d650c5f8c17a34334a59e7b2582b9191bb5f1f229",
    "curve/mu_ed.json":
        "0c4ca0908af0f59e99325810072f3af1b391d5f51a4d28f0b8460e27937c73b4",
    "curve/mu_int.csv":
        "a1b91ab7ca2b006119bb70d217a3e132292356aac4abc413e5efbd088609cdaf",
    "curve/mu_int.json":
        "2fe1d98f44fc69d985515e7f50a8ce9a4e9e24888862963a56614cd2968f2058",
    "curve/outer_frontier.csv":
        "dbfc50f1ba39f01dfc638ac3ed5ed48dcc1a660ec4588cdaa2d149488d6246f2",
    "curve/outer_frontier.json":
        "89c377a73dfcff8eae645ee0682d71739fc464da503f1c50c21aa9d74dcefefb",
    "curve/twcib_rate.csv":
        "d90632a80d7a7c9b6c46bcf2ed7439082968ac96945e4968e7588c619bcdd123",
    "curve/twcib_rate.json":
        "5e920d09a6a1b89ef38578641c783141bd903c4514a7f75ebdcbf50a08e24ef4",
    "figures/fig3_mu0.15.csv":
        "48842f7fe20808269dc68a6c3bb8d52834aec95d7c2823d3f4239883e99ac40b",
    "figures/fig3_mu0.15.json":
        "8870cc697718b8f67377c53aee6ec133047bdc6858c6704eaa127316f10bd86b",
    "figures/fig3_mu0.30.csv":
        "dd0eeb6e87012d63d8aacc5d06b617a6349840952556b42ed09b67a344116bb6",
    "figures/fig3_mu0.30.json":
        "efcebe7356e52338b7027a8a43a30f7bfa03be414642578c6d91f7a728e234e7",
    "figures/fig3_mu0.45.csv":
        "2078afcede31244f3bfbf0d128a0b25840b97e7ea7b622c869ea49677c02bb1a",
    "figures/fig3_mu0.45.json":
        "515a49b77d49fca8b829977b829c934d1f75a6224cf3138ac33b0846c800e4f5",
    "figures/fig3_mu0.60.csv":
        "00e5e441135055dc337fca20ea5884df31e2657622c118b7f2ef18830de64b26",
    "figures/fig3_mu0.60.json":
        "0109ff4141b86f5f53aab1c1cb95be3553e71cde6ff80eb03c43fbcc8612330a",
    "figures/fig3_mu0.70.csv":
        "48f7c87f9ec56be13439704637bb4f0fbf85dc2e43c18b81757dcc01395184b8",
    "figures/fig3_mu0.70.json":
        "eeecde4d7e5ebf08b46c379a31ff29d6befcd97cd9111678ee28dcb1924e722a",
    "figures/fig4_inner.csv":
        "c9ee4809c9b52543b014f6fc3a44a7f51d7cbfa67e892da88ef1d4f567b18bcf",
    "figures/fig4_inner.json":
        "17871f80cc6c1fe86855f54bd6bfa7d05d8caeeac6cfe03252579340b09b579f",
    "figures/fig4_outer.csv":
        "ba87edaa22440c3fbb4c968d1f2f9beb27c3b8bb4a1be25a39658f209cac8e6b",
    "figures/fig4_outer.json":
        "228275f3979296f52ab6d21be6acf1757b9726cae306ba11710f3f694464f793",
    "figures/fig6_mu_d.csv":
        "495b9bdb791fa82822e186e16c72a1164d29bd71cf97a6828d6df622e41f1a0d",
    "figures/fig6_mu_d.json":
        "9bac0ee9e1f29a9dfe7e2f95dcb40824570881813de1ddcd9d33668fa7b2010e",
    "figures/fig6_mu_ed.csv":
        "0925f77f3f70fa0086b31dc424f3b7f8e2f2142791604f93c7674c23d766d335",
    "figures/fig6_mu_ed.json":
        "19a8a6c85f3ed1cac1078c0c35f6356a9743073935566a18efa0b7fd4fa159df",
    "figures/fig6_mu_int.csv":
        "791c1b5e1d07e65848d7224720936404c5a0fee6b0c54df0d7e22e548a2ccb1a",
    "figures/fig6_mu_int.json":
        "3e72132c9680b7a1eb88206f65d68af23dd64e715642fa64205ed7b256d25da6",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(tmp_path) -> dict:
    """sha256 of every file the figures run and the curve requests write."""
    figs = tmp_path / "figs"
    assert main(["figures", "--out", str(figs)]) == 0
    out = {f"figures/{p.name}": _sha(p) for p in sorted(figs.iterdir())}
    for quantity, (model, grid, extra) in CURVES.items():
        model_path = tmp_path / f"{quantity}.model.json"
        model_path.write_text(json.dumps(model))
        for fmt in ("csv", "json"):
            path = tmp_path / f"{quantity}.{fmt}"
            argv = ["curve", quantity, "--model", str(model_path), "--grid", grid,
                    "--out", str(path), "--format", fmt, *extra]
            assert main(argv) == 0
            out[f"curve/{path.name}"] = _sha(path)
    return out


def _skip_unless_recorded_env() -> None:
    here = (np.__version__, platform.machine())
    if here != RECORDED_ENV:
        pytest.skip(f"digests recorded under numpy {RECORDED_ENV[0]} on {RECORDED_ENV[1]}; "
                    f"this is numpy {here[0]} on {here[1]}")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_match_recorded_digests(tmp_path, threads):
    _skip_unless_recorded_env()
    with mock.patch.dict(os.environ, {"IBREG_THREADS": threads}):
        got = output_digests(tmp_path)
    assert got == DIGESTS


# budget -> (records, records from samples, sha256 of the records' rate,
# relevance (float.hex) and origin, one line each, then the envelope's
# values on the grid); binary model p = q = 0.1 at the figures seed
SEARCH_DIGESTS = {
    1: (61, 1, "6bed456ecb94b4f2a537498e36f46cb1b9057bf9687a55d226d6e21bf8977e32"),
    8193: (62, 31, "9e7fb8f789a5e883f20189b100230477cd5fe0b3bf75677ee30ce60fadd22944"),
    40000: (62, 38, "61901db405edc4a4cf26bbc1b1d44d97f2e4b43d100c0b667d17d6b6ff75baa3"),
}


@pytest.mark.parametrize("budget", sorted(SEARCH_DIGESTS))
def test_search_records_match_recorded_digests(budget):
    _skip_unless_recorded_env()
    points, records = search_mu_int_detailed(BinaryModel(0.1, 0.1), np.linspace(0.0, 0.469, 64),
                                             budget, 20240917)
    text = "".join(f"{r.rate.hex()} {r.relevance.hex()} {r.origin}\n" for r in records)
    text += "".join(f"{p.y.hex()}\n" for p in points)
    samples = sum(r.origin.startswith("sample:") for r in records)
    assert (len(records), samples, hashlib.sha256(text.encode()).hexdigest()) == \
        SEARCH_DIGESTS[budget]
