"""Write reference.json, the recorded values the benchmark checks against.

It holds the critical points of the 16 binary models (used on every seed),
each workload's outputs at the default seed, and the sha256 of every
``ibreg figures`` CSV at the default seed.  Run it from the repository root,
only at a commit whose outputs are known to be right:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

from run import OUT, ROOT, SRC, git_commit

sys.path.insert(0, SRC)

import workloads  # noqa: E402
from ibreg import binary, cli  # noqa: E402
from ibreg.errors import SolverError  # noqa: E402


def main() -> int:
    crit = {}
    for p, q in workloads.MODELS:
        try:
            cp = binary.critical_point(p, q)
        except SolverError:
            crit[workloads._key(p, q)] = None
            continue
        crit[workloads._key(p, q)] = {"crossover": cp.crossover, "rate": cp.rate,
                                      "alpha_star": cp.alpha_star}
    seed = workloads.DEFAULT_SEED
    ref = {"recorded_at": git_commit(ROOT), "default_seed_value": seed,
           "critical_points": crit, "default_seed": {}, "figures_sha256": {}}
    for name in ("binary-curves", "binary-oracles", "gaussian-regions"):
        wl = workloads.build(name, seed, OUT, ref)
        wl.setup()
        ref["default_seed"][name] = wl.values(wl.timed(workloads.Recorder()))
    os.makedirs(OUT, exist_ok=True)
    out = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        if cli.main(workloads.Figures(seed, ref, OUT).argv(out)) != 0:
            raise SystemExit("ibreg figures failed")
        for name in workloads.FIGURES_CSVS:
            with open(os.path.join(out, name), "rb") as fh:
                ref["figures_sha256"][name] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
