"""Regenerate perfbench/reference.json, the values run.py checks results against.

Usage (from the repository root, about two minutes on two cores):

    python3 perfbench/make_reference.py

For every workload point it stores a reference value and its standard error:
the analytic outage of ``direct-only`` (the best of N_S independent
Gamma(N_D) column powers, ``gammainc(N_D, gamma0/snr)^N_S``), and for every
other strategy a Monte Carlo estimate with REF_FACTOR times the workload's
trials, no early stop, at REF_SEED, a seed outside the range run.py accepts.
It also stores the exact (trials, errors) of the short canary sweep that
run.py compares against to report ``stream_exact_points``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported

REF_SEED = 2**32 + 3272
REF_FACTOR = 16
Z_BOUND = 5.0


def sweep(cli, spec: dict, threads: int) -> list[dict]:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        spec_path = Path(tmp) / "spec.json"
        out = Path(tmp) / "out.csv"
        spec_path.write_text(json.dumps(spec))
        code = cli.main([spec["mode"], "--config", str(spec_path), "--out", str(out),
                         "--threads", str(threads)])
        if code != 0:
            sys.exit(f"reference sweep exited {code}")
        return list(csv.DictReader(io.StringIO(out.read_text())))


def main() -> int:
    cli = run.import_relaysim()
    from scipy.special import gammainc

    from relaysim.montecarlo import CHUNK

    result = {}
    for name, wl in run.WORKLOADS.items():
        spec = wl.spec(REF_SEED, trials=wl.trials * REF_FACTOR)
        spec.pop("early_stop_errors", None)
        points = {}
        for row in sweep(cli, spec, threads=2):
            n = int(row["trials"])
            value = int(row["errors"]) / n
            se = math.sqrt(value * (1.0 - value) / n)
            if row["strategy"] == "direct-only":
                n_s, _, n_d = wl.system
                snr = 10.0 ** (float(row["snr_db"]) / 10.0)
                value = float(gammainc(n_d, wl.gamma0 / snr)) ** n_s
                se = 0.0
            points[run.point_key(row)] = {"value": value, "se": se, "trials": n}
        canary_spec = wl.spec(run.CANARY_SEED, trials=run.CANARY_CHUNKS * CHUNK)
        canary = {run.point_key(r): [int(r["trials"]), int(r["errors"])]
                  for r in sweep(cli, canary_spec, threads=1)}
        result[name] = {"z_bound": Z_BOUND, "seed": REF_SEED, "points": points,
                        "canary_seed": run.CANARY_SEED, "canary": canary}
        print(f"{name}: {len(points)} points, {len(canary)} canary points", file=sys.stderr)
    result["generated_by"] = "python3 perfbench/make_reference.py"
    result["environment"] = {k: v for k, v in run.environment(2).items()
                             if k in ("python", "numpy", "scipy", "blas", "git_sha",
                                      "source_sha256")}
    (run.HERE / "reference.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
