import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import relaysim.cli
from relaysim.cli import main, validate_spec
from relaysim.stream import MAX_TRIALS, STREAM_FORMAT


def make_spec(**overrides):
    spec = {
        "mode": "ber",
        "system": {"n_s": 2, "n_r": 2, "n_d": 2},
        "strategies": ["mmse-receiver", "direct-only"],
        "sweep": {"axis": "transmit-snr-db", "values": [0.0, 5.0]},
        "trials": 20000,
        "seed": 1,
    }
    spec.update(overrides)
    return spec


def write_spec(path, **overrides):
    spec = make_spec(**overrides)
    path.write_text(json.dumps(spec))
    return spec


TRANSMIT = {"axis": "transmit-snr-db", "values": [0.0]}
MEAN = {"axis": "mean-direct-snr-db", "values": [0.0]}


class TestValidateSpec:
    def test_valid(self, tmp_path):
        p = tmp_path / "spec.json"
        write_spec(p)
        assert validate_spec(json.loads(p.read_text())) == []

    def test_zero_trials_named(self):
        diags = validate_spec({"mode": "ber", "trials": 0})
        assert any(d.startswith("trials:") for d in diags)

    def test_unknown_strategy_lists_allowed(self):
        diags = validate_spec({"strategies": ["zf-receiver"]})
        bad = [d for d in diags if "zf-receiver" in d]
        assert bad and "mmse-receiver" in bad[0]

    def test_non_increasing_sweep(self):
        diags = validate_spec({"sweep": {"axis": "transmit-snr-db", "values": [5.0, 0.0]}})
        assert any("strictly increasing" in d for d in diags)

    def test_system_size_limit(self):
        # n_d*n_s + n_r*n_s + n_d*n_r antenna pairs: 1024 is the largest accepted
        assert relaysim.cli.MAX_ANTENNA_PAIRS == 1024
        spec = {"system": {"n_s": 2, "n_r": 2, "n_d": 255}}
        assert not any(d.startswith("system") for d in validate_spec(spec))
        spec = {"system": {"n_s": 2, "n_r": 2, "n_d": 256}}
        assert any(d.startswith("system: ") and "1028" in d for d in validate_spec(spec))

    def test_unread_keys_named(self):
        spec = {"early_stop_error": 5,
                "sweep": {"axis": "mean-direct-snr-db", "values": [0.0], "lambda_sd": 2.0}}
        diags = validate_spec(spec)
        assert "early_stop_error: unknown key" in diags
        assert "sweep.lambda_sd: applies only to axis 'transmit-snr-db'" in diags

    def test_trials_limit(self, tmp_path):
        # chunk 2^32 of a point would read the substream of the next point's
        # chunk 0, so trials stop at 2^32 chunks
        assert MAX_TRIALS == 16384 * 2**32 == 70_368_744_177_664
        spec = write_spec(tmp_path / "spec.json", trials=MAX_TRIALS)
        assert validate_spec(spec) == []
        diags = validate_spec({**spec, "trials": MAX_TRIALS + 1})
        assert [d for d in diags if d.startswith("trials:")] == diags != []

    def test_missing_gamma0_for_outage(self):
        diags = validate_spec({"mode": "outage"})
        assert any(d.startswith("gamma0:") for d in diags)

    # each scalar key with a bad value, then each key present where its mode
    # or axis does not read it; trials, seed and early_stop_errors are read by
    # every mode, so they have no such case
    @pytest.mark.parametrize("overrides,line", [
        ({"trials": 1.5}, "trials: must be an integer in [1, 70368744177664] "
                          "(2^32 chunks of 16384), got 1.5"),
        ({"seed": 2**64}, f"seed: must be an unsigned 64-bit integer, got {2**64}"),
        ({"mode": "outage", "gamma0": 0}, "gamma0: must be a finite positive number, got 0"),
        ({"early_stop_errors": 0}, "early_stop_errors: must be an integer >= 1 or null, got 0"),
        ({"mode": "diversity", "gamma0": 1.0, "fit_window": [0.1, 0.01]},
         "fit_window: must be [low, high] with 0 < low < high, or null, got [0.1, 0.01]"),
        ({"sweep": {**TRANSMIT, "lambda_sd": None}},
         "sweep.lambda_sd: must be a finite positive number, got None"),
        ({"sweep": {**TRANSMIT, "lambda_sr": 0.0}},
         "sweep.lambda_sr: must be a finite positive number, got 0.0"),
        ({"sweep": {**TRANSMIT, "lambda_rd": "1"}},
         "sweep.lambda_rd: must be a finite positive number, got '1'"),
        ({"sweep": {**MEAN, "relay_mean_snr_db": None}},
         "sweep.relay_mean_snr_db: must be a finite number, got None"),
        ({"sweep": {**MEAN, "snr_reference": "total"}},
         "sweep.snr_reference: must be 'per-pair' or 'aggregate', got 'total'"),
        ({"trials": None}, "trials: must be an integer in [1, 70368744177664] "
                           "(2^32 chunks of 16384), got None"),
        ({"mode": "diversity", "gamma0": None},
         "gamma0: must be a finite positive number, got None"),
        ({"mode": "ber", "gamma0": 5.0}, "gamma0: applies only to mode 'outage' or 'diversity'"),
        ({"mode": "ber", "fit_window": [1e-3, 0.1]}, "fit_window: applies only to mode 'diversity'"),
        ({"mode": "outage", "gamma0": 1.0, "fit_window": None},
         "fit_window: applies only to mode 'diversity'"),
        ({"sweep": {**MEAN, "lambda_sd": 2.0}},
         "sweep.lambda_sd: applies only to axis 'transmit-snr-db'"),
        ({"sweep": {**MEAN, "lambda_sr": 2.0}},
         "sweep.lambda_sr: applies only to axis 'transmit-snr-db'"),
        ({"sweep": {**MEAN, "lambda_rd": None}},
         "sweep.lambda_rd: applies only to axis 'transmit-snr-db'"),
        ({"sweep": {**TRANSMIT, "relay_mean_snr_db": 2.0}},
         "sweep.relay_mean_snr_db: applies only to axis 'mean-direct-snr-db'"),
        ({"sweep": {**TRANSMIT, "snr_reference": "per-pair"}},
         "sweep.snr_reference: applies only to axis 'mean-direct-snr-db'"),
        ({"sweep": {"axis": "sweep-db", "values": [0.0], "lambda_sd": 2.0}},
         "sweep.axis: must be one of ('transmit-snr-db', 'mean-direct-snr-db'), got 'sweep-db'"),
        # a number a float cannot hold; math.isfinite would overflow on it
        ({"mode": "outage", "gamma0": 10**400},
         f"gamma0: must be a finite positive number, got {10**400}"),
    ], ids=["trials-bad", "seed-bad", "gamma0-bad", "early-stop-bad", "fit-window-bad",
            "lambda-sd-null", "lambda-sr-bad", "lambda-rd-bad", "relay-db-null",
            "reference-bad", "trials-null", "gamma0-null", "gamma0-unread",
            "fit-window-unread-ber", "fit-window-unread-outage", "lambda-sd-unread",
            "lambda-sr-unread", "lambda-rd-unread", "relay-db-unread", "reference-unread",
            "axis-bad", "gamma0-huge-int"])
    def test_key_rules(self, overrides, line):
        diags = validate_spec(make_spec(**overrides))
        assert diags == [line]

    @pytest.mark.parametrize("mode,key", [("ber", "trials"), ("outage", "gamma0"),
                                          ("diversity", "gamma0")])
    def test_missing_required_key_names_the_mode(self, mode, key):
        spec = make_spec(mode=mode, **({"gamma0": 1.0} if mode != "ber" else {}))
        del spec[key]
        assert validate_spec(spec) == [f"{key}: required for mode {mode!r}, must be "
                                       + relaysim.cli._KEYS[key].rule]

    def test_invalid_mode_checks_values_only(self):
        # with no valid mode nothing can be unread or missing; values still count
        diags = validate_spec(make_spec(mode="bogus", gamma0=-1.0, fit_window=[1e-3, 0.1]))
        assert diags == ["mode: must be one of ('ber', 'outage', 'diversity'), got 'bogus'",
                         "gamma0: must be a finite positive number, got -1.0"]

    @pytest.mark.parametrize("sweep,defaults", [
        (TRANSMIT, {"lambda_sd": 1.0, "lambda_sr": 1.0, "lambda_rd": 1.0}),
        (MEAN, {"relay_mean_snr_db": 2.0, "snr_reference": "per-pair"})])
    def test_sweep_defaults(self, sweep, defaults):
        points = relaysim.cli._sweep_points
        assert points(make_spec(sweep=sweep)) == points(make_spec(sweep={**sweep, **defaults}))


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        write_spec(p)
        assert main(["validate", "--config", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_diagnostics(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        write_spec(p, trials=0)
        assert main(["validate", "--config", str(p)]) == 2
        assert "trials" in capsys.readouterr().out

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{not json")
        assert main(["validate", "--config", str(p)]) == 2

    @pytest.mark.parametrize("text,line", [
        (None, ": cannot read: "), ("[1, 2]", ": top level must be a JSON object")])
    def test_unusable_file(self, tmp_path, capsys, text, line):
        p = tmp_path / "spec.json"
        if text is not None:
            p.write_text(text)
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().out.startswith(f"{p}{line}")


class TestRunExperiment:
    def test_ber_run_writes_csv_and_manifest(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out = tmp_path / "out.csv"
        assert main(["ber", "--config", str(spec_path), "--out", str(out)]) == 0

        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4  # 2 strategies x 2 sweep points
        for r in rows:
            assert set(r) == {"snr_db", "strategy", "trials", "errors",
                              "value", "ci_low", "ci_high"}
            assert float(r["ci_low"]) <= float(r["value"]) <= float(r["ci_high"])

        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["version"]
        assert manifest["spec"]["trials"] == 20000
        # replay needs both: numpy promises no stream stability across versions (NEP 19)
        assert (manifest["stream_format"], manifest["numpy"]) == (STREAM_FORMAT, np.__version__)

    def test_byte_identical_across_threads(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["ber", "--config", str(spec_path), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["ber", "--config", str(spec_path), "--out", str(out2),
                     "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_two_identical_runs_differ_only_in_wall_time(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, mode="outage", gamma0=1.0)
        manifests = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            out = tmp_path / run / "out.csv"
            assert main(["outage", "--config", str(spec_path), "--out", str(out),
                         "--threads", "2"]) == 0
            manifest = json.loads((tmp_path / run / "out.csv.manifest.json").read_text())
            del manifest["wall_time_s"]
            manifests.append(manifest)
        assert (tmp_path / "a/out.csv").read_bytes() == (tmp_path / "b/out.csv").read_bytes()
        assert manifests[0] == manifests[1]

    def test_outage_run(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, mode="outage", gamma0=1.0,
                   strategies=["mmse-receiver"])
        out = tmp_path / "out.csv"
        assert main(["outage", "--config", str(spec_path), "--out", str(out)]) == 0
        with open(out) as f:
            assert len(list(csv.DictReader(f))) == 2

    def test_mean_direct_axis(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, sweep={"axis": "mean-direct-snr-db",
                                     "values": [0.0, 4.0],
                                     "relay_mean_snr_db": 2.0})
        out = tmp_path / "out.csv"
        assert main(["ber", "--config", str(spec_path), "--out", str(out),
                     "--trials", "5000"]) == 0

    def test_malformed_spec_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, strategies=[])
        assert main(["ber", "--config", str(spec_path)]) == 2

    def test_mode_mismatch_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, mode="outage", gamma0=1.0)
        assert main(["ber", "--config", str(spec_path)]) == 2

    def test_unwritable_output_exit_3(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, trials=100)
        out = tmp_path / "no_such_dir" / "out.csv"
        assert main(["ber", "--config", str(spec_path), "--out", str(out)]) == 3

    def test_diversity_mode(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, mode="diversity", gamma0=1.0,
                   strategies=["direct-only"],
                   system={"n_s": 1, "n_r": 1, "n_d": 1},
                   sweep={"axis": "transmit-snr-db", "values": [10.0, 15.0, 20.0]},
                   trials=200000)
        out = tmp_path / "out.csv"
        assert main(["diversity", "--config", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        fit = manifest["diversity_fits"]["direct-only"]
        assert 0.7 <= fit["ls_slope"] <= 1.3  # direct 1x1 has diversity order 1

    @pytest.mark.parametrize("argv,overrides", [
        ([], {}), (["--trials", "300"], {"trials": 300}), (["--seed", "9"], {"seed": 9}),
        (["--trials", "300", "--seed", "9"], {"trials": 300, "seed": 9})])
    def test_one_validation_per_run(self, tmp_path, monkeypatch, argv, overrides):
        real = relaysim.cli.validate_spec
        seen = []

        def validate(spec):
            seen.append(spec)
            return real(spec)

        monkeypatch.setattr(relaysim.cli, "validate_spec", validate)
        spec_path = tmp_path / "spec.json"
        spec = write_spec(spec_path, mode="outage", gamma0=1.0, strategies=["direct-only"],
                          trials=100)
        out = tmp_path / "out.csv"
        assert main(["outage", "--config", str(spec_path), "--out", str(out), *argv]) == 0
        effective = {**spec, **overrides}
        assert seen == [effective]
        # the manifest keeps the file's spec and records the effective values
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["spec"] == spec
        assert (manifest["trials"], manifest["seed"]) == (effective["trials"], effective["seed"])

    def test_one_engine_call_for_all_strategies(self, tmp_path, monkeypatch):
        real = relaysim.cli.run_outage_points
        calls = []

        def engine(points, strategies, *args):
            calls.append(list(strategies))
            return real(points, strategies, *args)

        monkeypatch.setattr(relaysim.cli, "run_outage_points", engine)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        strategies = ["mmse-receiver", "direct-only", "fixed-antenna"]
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, mode="outage", gamma0=1.0, strategies=strategies, trials=100)
        out = tmp_path / "out.csv"
        assert main(["outage", "--config", str(spec_path), "--out", str(out),
                     "--threads", "1000000"]) == 0
        assert calls == [strategies]
        with open(out) as f:
            assert [r["strategy"] for r in csv.DictReader(f)] == [
                s for s in strategies for _ in range(2)]
        # one pool for the run, sized by the six one-chunk (strategy, point) rows
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["workers"] == 6


@pytest.mark.parametrize("command,spec_overrides,argv,field", [
    ("outage", {"gamma0": float("nan")}, [], "gamma0"),
    ("outage", {"system": {"n_s": True, "n_r": 2, "n_d": 2}}, [], "system.n_s"),
    ("outage", {"sweep": {"axis": "mean-direct-snr-db", "values": [0.0],
                          "relay_mean_snr_db": "x"}}, [], "sweep.relay_mean_snr_db"),
    ("outage", {"sweep": {"axis": "transmit-snr-db", "values": [float("inf")]}}, [],
     "sweep.values"),
    ("outage", {"sweep": {"axis": "transmit-snr-db", "values": [4000.0]}}, [], "sweep"),
    ("outage", {"sweep": {"axis": "mean-direct-snr-db", "values": [-4000.0]}}, [], "sweep"),
    ("outage", {}, ["--trials", "0"], "trials"),
    ("outage", {}, ["--seed", "-1"], "seed"),
    ("diversity", {"sweep": {"axis": "transmit-snr-db", "values": [20.0]}}, [],
     "sweep.values"),
    ("diversity", {"sweep": {"axis": "transmit-snr-db", "values": [20.0, 30.0]}}, [],
     "trials"),
    # one trial, so a run that got past validate would draw only ~100 MB
    ("outage", {"system": {"n_s": 1000000, "n_r": 2, "n_d": 2}, "trials": 1}, [], "system"),
    ("outage", {}, ["--trials", str(MAX_TRIALS + 1)], "trials"),
    # a key nothing reads would be ignored without a word
    ("outage", {"early_stop_error": 10}, [], "early_stop_error"),
    ("outage", {"system": {"n_s": 2, "n_r": 2, "n_d": 2, "n_x": 2}}, [], "system.n_x"),
    ("outage", {"sweep": {"axis": "transmit-snr-db", "values": [0.0], "lamda_sd": 2.0}}, [],
     "sweep.lamda_sd"),
    ("outage", {"sweep": {"axis": "mean-direct-snr-db", "values": [0.0], "lambda_sd": 1000}},
     [], "sweep.lambda_sd"),
    ("outage", {"sweep": {"axis": "transmit-snr-db", "values": [0.0],
                          "relay_mean_snr_db": 2.0}}, [], "sweep.relay_mean_snr_db"),
    ("ber", {"sweep": {"axis": "transmit-snr-db", "values": [0.0],
                       "snr_reference": "aggregate"}}, [], "sweep.snr_reference"),
    # a key the run's mode does not read
    ("ber", {"gamma0": 5.0}, [], "gamma0"),
    ("ber", {"fit_window": [0.001, 0.1]}, [], "fit_window"),
    ("outage", {"fit_window": [0.001, 0.1]}, [], "fit_window"),
    # integers too large for a float
    ("outage", {"gamma0": 10**400}, [], "gamma0"),
    ("outage", {"sweep": {"axis": "transmit-snr-db", "values": [0.0, 10**400]}}, [],
     "sweep.values"),
], ids=["gamma0-nan", "n_s-bool", "relay-db-string", "values-inf", "snr-overflow",
        "gain-underflow", "trials-override", "seed-override", "diversity-one-point",
        "diversity-zero-outage", "system-too-large", "trials-past-substreams",
        "unknown-key", "unknown-system-key", "unknown-sweep-key", "lambda-on-mean-axis",
        "relay-db-on-transmit-axis", "reference-on-transmit-axis", "gamma0-in-ber",
        "fit-window-in-ber", "fit-window-in-outage", "gamma0-huge-int", "values-huge-int"])
def test_bad_run_input_exit_2(tmp_path, capsys, command, spec_overrides, argv, field):
    spec_path = tmp_path / "spec.json"
    gamma0 = {} if command == "ber" else {"gamma0": 1.0}
    write_spec(spec_path, **{"mode": command, **gamma0, "strategies": ["direct-only"],
                             "trials": 100, **spec_overrides})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(spec_path), "--out", str(out), *argv]) == 2
    assert any(line.startswith(f"{field}:")
               for line in capsys.readouterr().err.splitlines())
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["snr-check", "--trials", "0"], "--trials"),
    (["snr-check", "--seed", "-1"], "--seed"),
    (["snr-check", "--seed", str(2**64)], "--seed"),
    (["protocol", "--ns", "0", "--nr", "2"], "--ns"),
    (["protocol", "--ns", "2", "--nr", "-1"], "--nr"),
    (["protocol", "--ns", "2", "--nr", "2", "--nd", "0"], "--nd"),
    (["outage", "--config", "spec.json", "--threads", "0"], "--threads"),
    (["ber", "--config", "spec.json", "--threads", "-3"], "--threads"),
])
def test_bad_flag_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert any(f"argument {flag}: must be an integer" in line
               for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_bad_env_threads_exit_2(tmp_path, monkeypatch, capsys, value):
    spec_path = tmp_path / "spec.json"
    write_spec(spec_path, trials=100)
    monkeypatch.setenv("RELAYSIM_THREADS", value)
    out = tmp_path / "out.csv"
    assert main(["ber", "--config", str(spec_path), "--out", str(out)]) == 2
    assert any(line.startswith("RELAYSIM_THREADS:")
               for line in capsys.readouterr().err.splitlines())
    assert not out.exists()


class TestOutputFiles:
    def test_unwritable_output_found_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def engine(*args, **kwargs):
            raise AssertionError("the sweep ran before the output location was checked")

        monkeypatch.setattr(relaysim.cli, "run_ber_points", engine)
        monkeypatch.setattr(relaysim.cli, "run_outage_points", engine)
        spec_path = tmp_path / "spec.json"
        for mode in ("ber", "outage"):
            write_spec(spec_path, mode=mode, **({"gamma0": 1.0} if mode == "outage" else {}))
            for out in (tmp_path / "no_such_dir" / "out.csv", tmp_path):
                assert main([mode, "--config", str(spec_path), "--out", str(out)]) == 3
                assert "cannot write output" in capsys.readouterr().err

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, trials=100)

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        out = tmp_path / "out.csv"
        assert main(["ber", "--config", str(spec_path), "--out", str(out)]) == 3
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_rewrite_replaces_whole_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, trials=100)
        out = tmp_path / "out.csv"
        out.write_text("stale\n" * 1000)
        assert main(["ber", "--config", str(spec_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("snr_db,") and "stale" not in out.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.csv", "out.csv.manifest.json", "spec.json"]


class TestOtherCommands:
    def test_protocol_output(self, capsys):
        assert main(["protocol", "--ns", "3", "--nr", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "feedback_bits=4 estimation_slots=9 training_slots=2"

    def test_snr_check_passes(self, capsys):
        assert main(["snr-check", "--trials", "500", "--seed", "1"]) == 0
        assert "max_rel_dev_mmse" in capsys.readouterr().out

    def test_snr_check_fails_on_a_wrong_closed_form(self, capsys, monkeypatch):
        import relaysim.receiver
        right = relaysim.receiver.mmse_post_snr
        monkeypatch.setattr(relaysim.receiver, "mmse_post_snr",
                            lambda *gains: right(*gains) * (1 + 1e-6))
        assert main(["snr-check", "--trials", "500", "--seed", "1"]) == 1
        out = capsys.readouterr().out.strip()
        fields = dict(field.split("=") for field in out.split())
        assert fields["tol"] == "1e-09"
        assert float(fields["max_rel_dev_mmse"]) > 1e-9
        assert float(fields["max_rel_dev_mrc"]) <= 1e-9

    def test_env_threads(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, trials=2000)
        monkeypatch.setenv("RELAYSIM_THREADS", "2")
        out = tmp_path / "out.csv"
        assert main(["ber", "--config", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["threads"] == 2

    def test_manifest_records_the_pool_size(self, tmp_path):
        # --threads is a cap; the manifest also records the workers the sweep used
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, mode="outage", gamma0=1.0, strategies=["direct-only"],
                   sweep={"axis": "transmit-snr-db", "values": [0.0]}, trials=100)
        out = tmp_path / "out.csv"
        assert main(["outage", "--config", str(spec_path), "--out", str(out),
                     "--threads", "1000000"]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert (manifest["threads"], manifest["workers"]) == (1000000, 1)


class TestDependencies:
    def test_import_loads_no_scipy(self):
        # a fresh interpreter, so modules other tests imported do not count
        src = os.path.dirname(os.path.dirname(relaysim.cli.__file__))
        code = ("import sys, relaysim, relaysim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"
