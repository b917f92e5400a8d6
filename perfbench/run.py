"""relaysim benchmark: CLI sweeps on three workloads, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload outage-select --seed 1 --seconds 30 --trace 0

Each run drives ``relaysim.cli.main`` in this process, closed loop, one sweep
at a time.  A cycle runs the workload at ``min(2, nproc)`` threads and again
at 1 thread; cycles repeat until ``--seconds`` are used up and timings are
reported as medians, less the time the host stole from the calls.
``--trace 1`` adds a traced N-thread and a traced 1-thread call to each
cycle and reports the per-layer split instead of the end-to-end metrics.
Every call's CSV is checked against the reference values in
``reference.json``, and the 1-thread, N-thread and traced CSVs must be
byte-identical.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, so engine workers plus BLAS threads never exceed nproc.
# Must be set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

CANARY_SEED = 8013272   # fixed seed of the stream canary
CANARY_CHUNKS = 2       # chunks per canary point: one per worker, so it warms both
SETUP_PROBES = 7        # fresh-interpreter pairs timed per run for setup_s
CI_TARGET = 0.10        # relative CI half-width that time_to_10pct_s projects to

# Host speed on shared machines drifts by +-20% over minutes, partly through
# steal: CPU time the hypervisor gives to other guests.  The steal during a
# timed call (from /proc/stat, summed over the CPUs this process may run on)
# is taken off its wall time divided by that number of CPUs: steal lands on
# all CPUs alike and each thread waits out the share of its own CPU, on 1
# thread and on N (measured: +0.55 s wall per second of steal on a 2-vCPU
# host, for both).  Raw timings stay in the summary.

# Set-up probes are scaled by a paired fresh interpreter that only imports
# relaysim's third-party dependencies, which took SETUP_REF_S on the
# reference host.
SETUP_REF_S = 0.33
BASELINE_IMPORTS = "import numpy, scipy.linalg"


@dataclass(frozen=True)
class Workload:
    mode: str
    system: tuple[int, int, int]
    strategies: tuple[str, ...]
    values: tuple[float, ...]
    trials: int
    gamma0: float | None = None
    early_stop_errors: int | None = None
    snr_check: bool = False

    def spec(self, seed: int, trials: int | None = None) -> dict:
        n_s, n_r, n_d = self.system
        spec = {
            "mode": self.mode,
            "system": {"n_s": n_s, "n_r": n_r, "n_d": n_d},
            "strategies": list(self.strategies),
            "sweep": {"axis": "transmit-snr-db", "values": list(self.values)},
            "trials": trials or self.trials,
            "seed": seed,
        }
        if self.gamma0 is not None:
            spec["gamma0"] = self.gamma0
        if self.early_stop_errors is not None:
            spec["early_stop_errors"] = self.early_stop_errors
        return spec

    def variates_per_trial(self) -> int:
        """Draws per trial of the seed stream format: the three channel
        matrices, plus relay/destination noise and one bit for BER."""
        n_s, n_r, n_d = self.system
        per = 2 * (n_d * n_s + n_r * n_s + n_d * n_r)
        if self.mode == "ber":
            per += 2 * (n_r + 2 * n_d) + 1
        return per


# Trial counts give every point of every strategy >= ~1000 events, so no
# point reads zero and the CI metrics are steady across seeds.  README.md
# gives the reason for each workload.
WORKLOADS = {
    # outage needs only column powers: RNG draws plus selection
    "outage-select": Workload(
        mode="outage", system=(3, 3, 3),
        strategies=("mmse-receiver", "mrc-receiver", "direct-only", "fixed-antenna"),
        values=(-6.0, -5.5, -5.0, -4.5), trials=4 * 16384, gamma0=1.0),
    # relay chain, combining and detection; low-SNR points stop early, the
    # top point hits the trial cap
    "ber-chain": Workload(
        mode="ber", system=(3, 3, 3), strategies=("mmse-receiver", "mrc-receiver"),
        values=(-6.0, -4.5, -3.5, -2.5), trials=8 * 16384, early_stop_errors=1500),
    # linear algebra: power-iteration SVD, then the batched MMSE solve of snr-check
    "relay-filter": Workload(
        mode="outage", system=(4, 4, 4), strategies=("optimal-relay-filter", "mmse-receiver"),
        values=(-9.0, -8.25, -7.5), trials=2 * 16384, gamma0=1.0, snr_check=True),
}


# ---------------------------------------------------------------------------
# calling the CLI
# ---------------------------------------------------------------------------

@dataclass
class Call:
    wall_s: float
    ok: bool
    csv: bytes
    rows: list[dict]
    steal_s: float = 0.0


CPUS = {f"cpu{n}" for n in os.sched_getaffinity(0)}  # the CPUs this process may run on


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over ``CPUS``,
    or 0 where /proc/stat has no steal counter."""
    ticks = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] in CPUS:
                    ticks += int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def stolen_wall_s(steal_s: float) -> float:
    """Wall time a thread loses when the host steals ``steal_s`` CPU seconds
    from ``CPUS``."""
    return steal_s / len(CPUS)


def join_workers() -> None:
    """Wait for engine pool threads left running after an early stop."""
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(timeout=120)


def run_workload(cli, wl: Workload, spec_path: Path, out: Path, seed: int,
                 threads: int) -> Call:
    """One pass of the workload: the sweep, plus snr-check on relay-filter."""
    argvs = [[wl.mode, "--config", str(spec_path), "--out", str(out),
              "--threads", str(threads)]]
    if wl.snr_check:
        argvs.append(["snr-check", "--seed", str(seed)])
    wall = stolen = 0.0
    ok = True
    for argv in argvs:
        sink = io.StringIO()
        steal0, t0 = host_steal_s(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # counts as a failed call, not a crash
            print(f"relaysim {' '.join(argv)} raised {exc!r}", file=sys.stderr)
            code = -1
        wall += time.perf_counter() - t0
        stolen += host_steal_s() - steal0
        join_workers()
        if code != 0:
            print(f"relaysim {' '.join(argv)} exited {code}", file=sys.stderr)
            ok = False
    steal = stolen_wall_s(stolen)
    try:
        data = out.read_bytes()
        out.unlink()
    except OSError:
        return Call(wall, False, b"", [], steal)
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return Call(wall, ok, data, rows, steal)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def point_key(row: dict) -> str:
    return f"{row['strategy']}@{float(row['snr_db']):g}"


def reference_failures(rows: list[dict], ref: dict) -> list[str]:
    """Points whose value lies beyond the z-bound of the reference value."""
    bad = []
    z_bound = ref["z_bound"]
    for row in rows:
        key = point_key(row)
        point = ref["points"].get(key)
        n, k = int(row["trials"]), int(row["errors"])
        if point is None or k == 0:
            bad.append(f"{key}: no reference" if point is None else f"{key}: zero events")
            continue
        r = point["value"]
        se = math.sqrt(r * (1.0 - r) / n + point["se"] ** 2)
        z = abs(k / n - r) / se
        if not z <= z_bound:
            bad.append(f"{key}: value {k / n:.6g} vs reference {r:.6g} (z={z:.1f})")
    return bad


def diff_rows(a: Call, b: Call) -> set[str]:
    """Points whose CSV rows differ between two calls."""
    if a.csv == b.csv:
        return set()
    ra = {point_key(r): r for r in a.rows}
    rb = {point_key(r): r for r in b.rows}
    return {k for k in ra.keys() | rb.keys() if ra.get(k) != rb.get(k)} or {"<csv bytes>"}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():  # the benchmark may run from an exported tree
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "relaysim").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(CPUS),
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "threads_baseline": 1,
        "blas_env": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="workload seed, 0 <= seed < 2^32")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        p.error("--seed must be in [0, 2^32)")
    return args


def import_relaysim():
    if not (SRC / "relaysim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relaysim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relaysim.cli

    if Path(relaysim.__file__).resolve().parent != SRC / "relaysim":
        sys.exit(f"perfbench: imported relaysim from {relaysim.__file__}, not from {SRC}")
    return relaysim.cli


def _probe(args: list[str]) -> float:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(spec_path: Path) -> tuple[float, float, float]:
    """Set-up time in fresh interpreters, each probe paired with a baseline
    interpreter that only imports relaysim's third-party dependencies.

    Returns (setup at the reference host's speed, raw setup, raw baseline),
    medians over the pairs."""
    baseline = ("import time; t = time.perf_counter(); " + BASELINE_IMPORTS
                + "; print(repr(time.perf_counter() - t))")
    full, base = [], []
    for _ in range(SETUP_PROBES):
        full.append(_probe([str(HERE / "setup_probe.py"), str(SRC), str(spec_path)]))
        base.append(_probe(["-c", baseline]))
    scaled = statistics.median(f / b for f, b in zip(full, base)) * SETUP_REF_S
    return scaled, statistics.median(full), statistics.median(base)


@dataclass
class Cycles:
    """Calls made by the measuring loop, grouped by kind."""

    untraced_n: list[Call] = field(default_factory=list)
    untraced_1: list[Call] = field(default_factory=list)
    traced_1: list[Call] = field(default_factory=list)
    summaries_n: list[dict] = field(default_factory=list)
    summaries_1: list[dict] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(cli, wl: Workload, spec_path: Path, out: Path, args, threads: int,
            ref: dict) -> Cycles:
    """Repeat cycles until the time is used up; count failed points per cycle."""
    cy = Cycles()
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        calls = []
        for t in (threads, 1):
            calls.append(run_workload(cli, wl, spec_path, out, args.seed, t))
        cy.untraced_n.append(calls[0])
        cy.untraced_1.append(calls[1])
        if args.trace:
            # same order as the untraced pair, so that each 1-thread call
            # follows an N-thread call and trace.overhead_frac compares like
            # with like
            for t, summaries in ((threads, cy.summaries_n), (1, cy.summaries_1)):
                with spans.Tracer() as tracer:
                    call = run_workload(cli, wl, spec_path, out, args.seed, t)
                calls.append(call)
                summaries.append(spans.summarize(tracer.spans))
                cy.missing = tracer.missing
            cy.traced_1.append(calls[3])
        first = cy.untraced_n[0]
        bad = set()
        for c in calls:
            if not c.ok:
                bad |= {point_key(r) for r in first.rows} or {"<call>"}
            bad |= diff_rows(first, c)
        if first.ok:
            bad |= {b.split(":")[0] for b in reference_failures(first.rows, ref)}
        n_points = len(first.rows) + (1 if wl.snr_check else 0)
        cy.attempted += n_points
        cy.failed += min(len(bad), n_points)
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) > args.seconds:
            return cy


def halfwidths(rows: list[dict]) -> list[float]:
    return [(float(r["ci_high"]) - float(r["ci_low"])) / (2 * float(r["value"]))
            if float(r["value"]) > 0 else math.inf for r in rows]


def corrected_wall_s(calls: list[Call]) -> float:
    """Median over cycles of the wall time less steal."""
    return statistics.median(c.wall_s - c.steal_s for c in calls)


def end_to_end_metrics(cy: Cycles, rows: list[dict], setup_s: float) -> dict:
    trials = sum(int(r["trials"]) for r in rows)
    wall_n = corrected_wall_s(cy.untraced_n)
    wall_1 = corrected_wall_s(cy.untraced_1)
    hw = halfwidths(rows)
    return {
        "trials_per_s": (trials / wall_n, "1/s"),
        "trials_per_s_1t": (trials / wall_1, "1/s"),
        "wall_s": (wall_n, "s"),
        "time_to_10pct_s": (wall_n * (max(hw) / CI_TARGET) ** 2, "s"),
        "ci_rel_halfwidth": (statistics.median(hw), "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(cy: Cycles, rows: list[dict], wl: Workload, chunk: int,
                      checks: dict, problems: list[str]) -> dict:
    """Layer split from the traced 1-thread calls, scheduling counters from
    the traced N-thread calls; appends failed self-checks to ``problems``."""
    def med(summaries, key):
        return statistics.median(s[key] for s in summaries)

    s1 = {k: med(cy.summaries_1, k) for k in cy.summaries_1[0] if k != "streams"}
    reduce_n = med(cy.summaries_n, "reduce_s")
    started = statistics.median(len(s["streams"]) for s in cy.summaries_n)
    trials = sum(int(r["trials"]) for r in rows)
    used = sum(-(-int(r["trials"]) // chunk) for r in rows)
    wall_n = corrected_wall_s(cy.untraced_n)
    wall_1 = corrected_wall_s(cy.untraced_1)
    wall_t1 = corrected_wall_s(cy.traced_1)

    expected = wl.variates_per_trial() * trials
    parts = ("rng_s", "stream_setup_s", "svd_s", "selection_s", "reduce_s", "engine_self_s")
    checks.update({
        "missing_patches": cy.missing,
        "variates_expected": expected,
        "variates_counted": s1["rng_variates"],
        "svd_items": [s["svd_items"] for s in cy.summaries_1 + cy.summaries_n],
        "attribution_overlap_s": max(abs(s["engine_children_s"] - s["engine_covered_s"])
                                     for s in cy.summaries_1),
        "attribution_gap_s": max(abs(s["engine_s"] - sum(s[k] for k in parts))
                                 for s in cy.summaries_1),
    })
    if cy.missing:
        problems.append(f"trace could not wrap {cy.missing}")
    if any(s["rng_variates"] != expected for s in cy.summaries_1):
        problems.append(f"rng_variates {s1['rng_variates']} != draw formula {expected}")
    if "optimal-relay-filter" not in wl.strategies and any(checks["svd_items"]):
        problems.append("SVD ran on a workload without optimal-relay-filter")
    tol = 1e-6 * s1["engine_s"]
    if checks["attribution_overlap_s"] > tol or checks["attribution_gap_s"] > tol:
        problems.append("engine time is not fully attributed to its child spans")

    ns = 1e9
    return {
        "numerics.rng_s": (s1["rng_s"], "s"),
        "numerics.rng_variates": (s1["rng_variates"], "count"),
        "numerics.rng_ns_per_variate": (ns * s1["rng_s"] / max(s1["rng_variates"], 1), "ns"),
        "numerics.rng_bytes_computed": (s1["rng_bytes"], "bytes"),
        "numerics.stream_setup_s": (s1["stream_setup_s"], "s"),
        "numerics.svd_s": (s1["svd_s"], "s"),
        "numerics.svd_items": (s1["svd_items"], "count"),
        "numerics.svd_ns_per_item": (ns * s1["svd_s"] / max(s1["svd_items"], 1), "ns"),
        "selection.busy_s": (s1["selection_s"], "s"),
        "selection.items": (s1["selection_items"], "count"),
        "montecarlo.engine_s": (s1["engine_s"], "s"),
        "montecarlo.self_s": (s1["engine_self_s"], "s"),
        "montecarlo.self_ns_per_trial": (ns * s1["engine_self_s"] / trials, "ns"),
        "montecarlo.reduce_s": (reduce_n, "s"),
        "montecarlo.trials": (trials, "count"),
        "montecarlo.chunks_used": (used, "count"),
        "montecarlo.chunks_started": (started, "count"),
        "montecarlo.chunk_useful_frac": (used / started, "1"),
        "montecarlo.early_stopped_points": (
            sum(1 for r in rows if int(r["trials"]) < wl.trials), "count"),
        "montecarlo.thread_speedup": (wall_1 / wall_n, "1"),
        "receiver.closed_form_check_s": (s1["closed_form_check_s"], "s"),
        "cli.spec_s": (s1["spec_s"], "s"),
        "cli.self_s": (s1["cli_self_s"], "s"),
        "trace.overhead_frac": (wall_t1 / wall_1 - 1.0, "1"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    cli = import_relaysim()
    from relaysim.montecarlo import CHUNK

    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    threads = min(2, len(os.sched_getaffinity(0)))
    env = {**environment(threads), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(wl.spec(args.seed)))
        canary_path = work / "canary.json"
        canary_path.write_text(json.dumps(wl.spec(CANARY_SEED, trials=CANARY_CHUNKS * CHUNK)))
        out = work / "out.csv"

        setup = measure_setup(spec_path) if args.trace == 0 else (None, None, None)

        # warm-up, doubling as the stream canary: a short sweep at a fixed
        # seed whose exact counts are compared with the seed commit's
        canary = run_workload(cli, wl, canary_path, out, CANARY_SEED, threads)
        exact = sum(1 for r in canary.rows
                    if ref["canary"].get(point_key(r)) == [int(r["trials"]), int(r["errors"])])

        steal0, t0 = host_steal_s(), time.perf_counter()
        cy = measure(cli, wl, spec_path, out, args, threads, ref)
        steal1, t1 = host_steal_s(), time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = cy.untraced_n[0]
    if not first.rows:
        print("perfbench: the sweep wrote no results", file=sys.stderr)
        return 1
    problems = reference_failures(first.rows, ref) if first.ok else ["a call failed"]
    checks = {"reference_failures": list(problems)}
    if args.trace == 0:
        metrics = end_to_end_metrics(cy, first.rows, setup[0])
    else:
        metrics = per_layer_metrics(cy, first.rows, wl, CHUNK, checks, problems)

    summary = {
        "env": env,
        "cycles": len(cy.untraced_n),
        "walls_n": [c.wall_s for c in cy.untraced_n],
        "walls_1": [c.wall_s for c in cy.untraced_1],
        "raw": {"wall_s": statistics.median(c.wall_s for c in cy.untraced_n),
                "wall_1t_s": statistics.median(c.wall_s for c in cy.untraced_1),
                "setup_s": setup[1], "setup_baseline_s": setup[2]},
        "stream_exact_points": exact,
        "stream_canary_points": len(ref["canary"]),
        "host_steal_frac": (steal1 - steal0) / ((t1 - t0) * env["nproc"]),
        "steal_n": [c.steal_s for c in cy.untraced_n],
        "steal_1": [c.steal_s for c in cy.untraced_1],
        "failed_frac": cy.failed / cy.attempted,
        "checks": checks,
    }
    result = {
        "correct": cy.failed == 0 and not problems,
        "attempted": cy.attempted,
        "failed": cy.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, **result}, indent=2) + "\n")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print("summary " + json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
