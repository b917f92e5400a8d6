"""Experiment runner: JSON experiment specs in, CSV curves + manifest out.

Subcommands: ber, outage, diversity, snr-check, protocol, validate.
The CSV schema is fixed: snr_db,strategy,trials,errors,value,ci_low,ci_high
(value is BER or outage probability).  A JSON manifest echoing the spec,
seed, requested threads, sweep workers, wall time, package version, stream
format and numpy version is written next to the CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .channel import SystemConfig, config_from_mean_snrs_db
from .errors import (InsufficientStatisticsError, InvalidParameterError, is_int, is_number,
                     is_positive)
from .montecarlo import fit_diversity, run_ber_points, run_outage_points, sweep_workers
from .protocol import feedback_budget
from .receiver import closed_form_check
from .selection import STRATEGIES
from .stream import CHUNK, MAX_TRIALS, POINT_STRIDE, STREAM_FORMAT

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_UNWRITABLE = 3

# Largest n_d*n_s + n_r*n_s + n_d*n_r a run accepts.  A BER sweep worker keeps
# h_sd, h_sr and h_rd's real half of one chunk for the whole sweep: two
# float64 per antenna pair and trial but n_d*n_r, so 1024 pairs hold 128-256
# MiB per worker; the chain's per-trial antennas, sums and r (n_d + 8 float64,
# 2*n_d + 8 under optimal-relay-filter) add little.  An outage worker keeps
# the gains and a row block (h_rd's real half in place of its gains under
# optimal-relay-filter), which is less.
MAX_ANTENNA_PAIRS = 1024

_MODES = ("ber", "outage", "diversity")
_AXES = ("transmit-snr-db", "mean-direct-snr-db")
_SYSTEM_KEYS = ("n_s", "n_r", "n_d")


# ---------------------------------------------------------------------------
# experiment spec handling
# ---------------------------------------------------------------------------

def load_spec(path: str, overrides: dict | None = None) -> tuple[dict | None, list[str]]:
    """Parse an experiment spec file; returns (spec, diagnostics), the
    diagnostics for the spec with ``overrides`` such as --trials applied."""
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError as exc:
        return None, [f"{path}: cannot read: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"]
    if not isinstance(spec, dict):
        return None, [f"{path}: top level must be a JSON object"]
    return spec, validate_spec({**spec, **(overrides or {})})


class _Key(NamedTuple):
    """A scalar spec key; a bad value gets "<field>: must be <rule>, got <value>"."""
    readers: tuple[str, ...]  # the modes (top level) or sweep axes that read it
    default: object           # used where it is read but absent, or _REQUIRED
    ok: Callable[[object], bool]
    rule: str


_REQUIRED = object()  # the default of a key that must be given wherever it is read
_KEYS = {
    "trials": _Key(_MODES, _REQUIRED, lambda v: is_int(v) and 1 <= v <= MAX_TRIALS,
                   f"an integer in [1, {MAX_TRIALS}] "
                   f"(2^{POINT_STRIDE.bit_length() - 1} chunks of {CHUNK})"),
    "seed": _Key(_MODES, 0, lambda v: is_int(v) and 0 <= v < 2**64,
                 "an unsigned 64-bit integer"),
    "gamma0": _Key(("outage", "diversity"), _REQUIRED, is_positive, "a finite positive number"),
    "early_stop_errors": _Key(_MODES, None, lambda v: v is None or is_int(v) and v >= 1,
                              "an integer >= 1 or null"),
    "fit_window": _Key(("diversity",), None, lambda v: v is None or (
        isinstance(v, list) and len(v) == 2 and all(map(is_positive, v)) and v[0] < v[1]),
        "[low, high] with 0 < low < high, or null"),
}
_SWEEP_KEYS = {
    **dict.fromkeys(("lambda_sd", "lambda_sr", "lambda_rd"), _Key(
        ("transmit-snr-db",), 1.0, is_positive, "a finite positive number")),
    "relay_mean_snr_db": _Key(("mean-direct-snr-db",), 2.0, is_number, "a finite number"),
    "snr_reference": _Key(("mean-direct-snr-db",), "per-pair",
                          lambda v: v in ("per-pair", "aggregate"), "'per-pair' or 'aggregate'"),
}


def _check_keys(section: dict, table: dict, structural: tuple[str, ...], kind: str,
                reader, prefix: str = "") -> list[str]:
    """Diagnostics for the keys of one spec section, read by ``reader`` (a mode
    or an axis, None if invalid): keys in neither ``table`` nor ``structural``,
    then table keys that are missing where required, unread, or bad."""
    diags = [f"{prefix}{key}: unknown key" for key in section
             if key not in table and key not in structural]
    for key, k in table.items():
        if key not in section:
            if k.default is _REQUIRED and reader in k.readers:
                diags.append(f"{prefix}{key}: required for {kind} {reader!r}, must be {k.rule}")
        elif reader is not None and reader not in k.readers:
            readers = " or ".join(map(repr, k.readers))
            diags.append(f"{prefix}{key}: applies only to {kind} {readers}")
        elif not k.ok(section[key]):
            diags.append(f"{prefix}{key}: must be {k.rule}, got {section[key]!r}")
    return diags


def validate_spec(spec: dict) -> list[str]:
    """Full structural and range validation; returns every violation found."""
    mode = spec.get("mode")
    diags = [] if mode in _MODES else [f"mode: must be one of {_MODES}, got {mode!r}"]
    diags += _check_keys(spec, _KEYS, ("mode", "system", "strategies", "sweep"), "mode",
                         mode if mode in _MODES else None)

    system = spec.get("system")
    if not isinstance(system, dict):
        diags.append("system: required object with n_s, n_r, n_d")
    else:
        diags += [f"system.{key}: unknown key" for key in system if key not in _SYSTEM_KEYS]
        bad = [key for key in _SYSTEM_KEYS if not is_int(system.get(key)) or system[key] < 1]
        for key in bad:
            diags.append(f"system.{key}: must be an integer >= 1, got {system.get(key)!r}")
        if not bad:
            n_s, n_r, n_d = system["n_s"], system["n_r"], system["n_d"]
            pairs = n_d * n_s + n_r * n_s + n_d * n_r
            if pairs > MAX_ANTENNA_PAIRS:
                diags.append(f"system: n_d*n_s + n_r*n_s + n_d*n_r = {pairs} antenna pairs, "
                             f"over the limit of {MAX_ANTENNA_PAIRS} (one {CHUNK}-trial chunk "
                             f"would draw {pairs * 2 * CHUNK * 8 / 2**20:.0f} MiB of float64)")

    strategies = spec.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        diags.append("strategies: required non-empty list")
    else:
        for s in strategies:
            if s not in STRATEGIES:
                diags.append(f"strategies: unknown strategy {s!r}; allowed: {list(STRATEGIES)}")

    sweep = spec.get("sweep")
    if not isinstance(sweep, dict):
        diags.append("sweep: required object with axis and values")
    else:
        axis = sweep.get("axis")
        if axis not in _AXES:
            diags.append(f"sweep.axis: must be one of {_AXES}, got {axis!r}")
        diags += _check_keys(sweep, _SWEEP_KEYS, ("axis", "values"), "axis",
                             axis if axis in _AXES else None, "sweep.")
        values = sweep.get("values")
        if not isinstance(values, list) or not values or not all(map(is_number, values)):
            diags.append("sweep.values: required list of finite numbers")
        elif any(b <= a for a, b in zip(values, values[1:])):
            diags.append("sweep.values: must be strictly increasing")
        elif mode == "diversity" and len(values) < 2:
            diags.append("sweep.values: diversity mode needs at least 2 points to fit")

    if not diags:
        # in-range numbers can still give a zero or overflowing linear gain
        try:
            _sweep_points(spec)
        except (InvalidParameterError, OverflowError) as exc:
            diags.append(f"sweep: a point has no valid link gains: {exc}")

    return diags


def _sweep_points(spec: dict) -> list[tuple[float, SystemConfig]]:
    """Materialize (label_db, config) pairs for the spec's sweep axis."""
    system = spec["system"]
    sweep = {**{key: k.default for key, k in _SWEEP_KEYS.items()}, **spec["sweep"]}
    values = [float(v) for v in sweep["values"]]
    if sweep["axis"] == "transmit-snr-db":
        base = SystemConfig(**system, lambda_sd=float(sweep["lambda_sd"]),
                            lambda_sr=float(sweep["lambda_sr"]),
                            lambda_rd=float(sweep["lambda_rd"]))
        return [(db, base.with_snr(10.0 ** (db / 10.0))) for db in values]
    relay_db = float(sweep["relay_mean_snr_db"])
    return [(db, config_from_mean_snrs_db(**system, sd_db=db, sr_db=relay_db, rd_db=relay_db,
                                          snr=1.0, reference=sweep["snr_reference"]))
            for db in values]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _check_output(out_path: str) -> None:
    """Raise OSError unless out_path can be written; runs before any sweep."""
    if os.path.isdir(out_path):
        raise IsADirectoryError("is a directory")
    with tempfile.TemporaryFile(dir=os.path.dirname(out_path) or "."):
        pass


def _write_results(out_path: str, points: list, manifest: dict) -> None:
    """Write the CSV of BerPoint/OutagePoint rows and its manifest, each to a
    temporary file beside it that is then renamed into place, so a failed
    write leaves no partial file."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["snr_db", "strategy", "trials", "errors", "value", "ci_low", "ci_high"])
    writer.writerows([_fmt(p.snr_db), p.strategy, p.trials, p.errors,
                      _fmt(p.value), _fmt(p.ci_low), _fmt(p.ci_high)] for p in points)
    texts = {out_path: buf.getvalue(),
             out_path + ".manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    for path, text in texts.items():
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", newline="") as f:
                f.write(text)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _resolve_threads(args, diags: list[str]) -> int:
    """--threads, else a non-empty RELAYSIM_THREADS, else 1; appends a
    diagnostic when RELAYSIM_THREADS is used and is not an integer >= 1."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get("RELAYSIM_THREADS", "")
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        diags.append(f"RELAYSIM_THREADS: must be an integer >= 1, got {env!r}")
    return threads


def _run_experiment(args) -> int:
    mode = args.command
    overrides = {k: v for k, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
    spec, diags = load_spec(args.config, overrides)
    if spec is not None and spec.get("mode") not in (None, mode):
        diags.append(f"mode: spec says {spec.get('mode')!r} but subcommand is {mode!r}")
    threads = _resolve_threads(args, diags)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_BAD_SPEC

    run = {**{key: k.default for key, k in _KEYS.items()}, **spec, **overrides}
    seed, trials, early = run["seed"], run["trials"], run["early_stop_errors"]
    out_path = args.out or f"{mode}_results.csv"
    points = _sweep_points(spec)
    try:
        _check_output(out_path)
    except OSError as exc:
        print(f"cannot write output: {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_UNWRITABLE

    t0 = time.monotonic()
    if mode == "ber":
        rows = run_ber_points(points, spec["strategies"], trials, seed, threads, early)
    else:
        rows = run_outage_points(points, spec["strategies"], float(run["gamma0"]), trials,
                                 seed, threads, early)
    fits = {}
    for strategy in spec["strategies"] if mode == "diversity" else []:
        try:  # keyed by point: a strategy listed twice has two identical rows per point
            fit = fit_diversity({p.snr_db: p for p in rows if p.strategy == strategy}.values(),
                                run["fit_window"])
        except InsufficientStatisticsError as exc:
            print(f"trials: cannot fit the {strategy} diversity slope ({exc}); raise "
                  "trials, widen fit_window or spread sweep.values", file=sys.stderr)
            return EXIT_BAD_SPEC
        fits[strategy] = {"local_slopes": [float(s) for s in fit.local_slopes],
                          "ls_slope": fit.ls_slope, "order_estimate": fit.order_estimate}
        print(f"{strategy}: ls_slope={fit.ls_slope:.3f} "
              f"local={['%.3f' % s for s in fit.local_slopes]}")
    wall = time.monotonic() - t0

    manifest = {"spec": spec, "seed": seed, "trials": trials, "threads": threads,
                "workers": sweep_workers(threads, len(rows), trials),
                "wall_time_s": round(wall, 3), "version": __version__,
                "stream_format": STREAM_FORMAT, "numpy": np.__version__,
                "csv": os.path.basename(out_path)}
    if fits:
        manifest["diversity_fits"] = fits
    try:
        _write_results(out_path, rows, manifest)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    print(f"wrote {out_path} ({len(rows)} rows, {wall:.1f}s)")
    return EXIT_OK


def _cmd_snr_check(args) -> int:
    """Closed-form vs numerical post-SNR deviation sweep."""
    tol = 1e-9
    grid = itertools.product((0.01, 1.0, 100.0), (1, 2, 3, 4))
    devs = [closed_form_check(n, n, n, snr, args.trials, args.seed, stream)
            for stream, (snr, n) in enumerate(grid)]
    worst_mmse, worst_mrc = (max(col) for col in zip(*devs))
    print(f"max_rel_dev_mmse={worst_mmse:.3e} max_rel_dev_mrc={worst_mrc:.3e} tol={tol:g}")
    return EXIT_OK if max(worst_mmse, worst_mrc) <= tol else 1


def _cmd_protocol(args) -> int:
    cfg = SystemConfig(n_s=args.ns, n_r=args.nr, n_d=args.nd)
    b = feedback_budget(cfg)
    print(f"feedback_bits={b.total_feedback_bits} "
          f"estimation_slots={b.snr_estimation_slots} training_slots={b.training_slots}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec, diags = load_spec(args.config)
    if diags:
        for d in diags:
            print(d)
        return EXIT_BAD_SPEC
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _int_in(low: int, high: float = math.inf):
    """argparse type for an integer in [low, high); argparse turns a value
    outside it into exit 2 with a stderr line naming the flag."""
    def int_in_range(text: str) -> int:
        v = int(text)
        if not low <= v < high:
            raise argparse.ArgumentTypeError(f"must be an integer in [{low}, {high}), got {v}")
        return v
    return int_in_range


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relaysim",
                                     description="MIMO relay antenna-selection simulator")
    parser.add_argument("--version", action="version", version=f"relaysim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment spec (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override spec seed")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--threads", type=_int_in(1), default=None,
                       help="worker threads (no effect on results)")
        p.add_argument("--trials", type=int, default=None, help="override trials per point")
        p.set_defaults(handler=_run_experiment)

    add_run("ber", "bit error rate sweep")
    add_run("outage", "outage probability sweep")
    add_run("diversity", "outage sweep plus log-log slope fit")

    p = sub.add_parser("snr-check", help="closed-form vs numerical post-SNR oracle check")
    p.add_argument("--trials", type=_int_in(1), default=10000)
    p.add_argument("--seed", type=_int_in(0, 2**64), default=1)
    p.set_defaults(handler=_cmd_snr_check)

    p = sub.add_parser("protocol", help="training/feedback budget")
    p.add_argument("--ns", type=_int_in(1), required=True)
    p.add_argument("--nr", type=_int_in(1), required=True)
    p.add_argument("--nd", type=_int_in(1), default=1)
    p.set_defaults(handler=_cmd_protocol)

    p = sub.add_parser("validate", help="validate an experiment spec without running")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
