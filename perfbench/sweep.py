"""Run the benchmark over many seeds and summarize the spread of each metric.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, on
every workload of BENCHMARK.json with its ``run_seconds``.  For each
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, and
marks a spread above a third of the metric's bound.  ``--trace-seeds`` adds
traced runs whose per-layer metrics are stored as run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        if part:
            lo, _, hi = part.partition("-")
            out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    summary = next((json.loads(ln[len("summary "):]) for ln in lines
                    if ln.startswith("summary ")), {})
    return json.loads(lines[-1]), summary


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--trace-seeds", type=seeds_arg, default=[])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"command": " ".join(sys.argv), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, per_layer, env = [], [], None
        for seed in args.seeds:
            result, summary = run_once(workload, seed, seconds, 0)
            env = env or summary.get("env")
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "stream_exact_points": summary.get("stream_exact_points"),
                         "cycles": summary.get("cycles"),
                         "host_steal_frac": summary.get("host_steal_frac"),
                         "raw": summary.get("raw"),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        for seed in args.trace_seeds:
            result, summary = run_once(workload, seed, seconds, 1)
            per_layer.append({"seed": seed, "correct": result["correct"],
                              "checks": summary.get("checks"),
                              "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        end_to_end = {}
        for name in runs[0]["metrics"]:
            stats = spread([r["metrics"][name] for r in runs])
            bound = bounds[name]["bound"]
            stats.update(unit=bounds[name]["unit"], bound=bound,
                         within_third_of_bound=stats["spread"] < bound / 3)
            end_to_end[name] = stats
            flag = "" if stats["within_third_of_bound"] else "  <-- spread above bound/3"
            print(f"{workload:14s} {name:18s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}", file=sys.stderr)
        report["workloads"][workload] = {
            "env": env,
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "runs": runs,
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
