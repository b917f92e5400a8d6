"""Property test: every spec that ``relaysim validate`` accepts runs to the
end or exits 2; no spec makes a run raise."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relaysim.cli import main, validate_spec
from relaysim.selection import STRATEGIES

# a realistic range most of the time, anything finite now and then
db_values = st.one_of(st.floats(-40.0, 40.0), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(st.floats(1e-3, 1e3),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
windows = st.lists(positive, min_size=2, max_size=2, unique=True).map(sorted)


# the optional sweep keys of each axis, each with a strategy for its value
AXIS_KEYS = {
    "transmit-snr-db": {key: positive for key in ("lambda_sd", "lambda_sr", "lambda_rd")},
    "mean-direct-snr-db": {"relay_mean_snr_db": db_values,
                           "snr_reference": st.sampled_from(["per-pair", "aggregate"])},
}


@st.composite
def specs(draw):
    axis = draw(st.sampled_from(sorted(AXIS_KEYS)))
    sweep = {"axis": axis,
             "values": sorted(set(draw(st.lists(db_values, min_size=1, max_size=3))))}
    for key, values in AXIS_KEYS[axis].items():
        if draw(st.booleans()):
            sweep[key] = draw(values)
    mode = draw(st.sampled_from(["ber", "outage", "diversity"]))
    spec = {
        "mode": mode,
        "system": {key: draw(st.integers(1, 4)) for key in ("n_s", "n_r", "n_d")},
        "strategies": draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=2,
                                    unique=True)),
        "sweep": sweep,
        "trials": draw(st.integers(1, 64)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    # each key only where the mode reads it
    if mode != "ber":
        spec["gamma0"] = draw(positive)
    if draw(st.booleans()):
        spec["early_stop_errors"] = draw(st.integers(1, 64))
    if mode == "diversity" and draw(st.booleans()):
        spec["fit_window"] = draw(windows)
    # now and then a key that nothing reads: another axis's key, a key of
    # another mode, or a typo
    if draw(st.integers(0, 7)) == 7:
        other = next(a for a in AXIS_KEYS if a != axis)
        unread = [(sweep, key, values) for key, values in AXIS_KEYS[other].items()] + [
            (spec, "early_stop_error", st.integers(1, 4)),
            (spec["system"], "n_x", st.integers(1, 4)), (sweep, "lamda_sd", st.integers(1, 4))]
        unread += {"ber": [(spec, "gamma0", positive)],
                   "outage": [(spec, "fit_window", windows)]}.get(mode, [])
        where, key, values = draw(st.sampled_from(unread))
        where[key] = draw(values)
    return spec


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs())
@example(spec={"mode": "diversity", "system": {"n_s": 1, "n_r": 1, "n_d": 1},
               "strategies": ["mmse-receiver"],
               "sweep": {"axis": "transmit-snr-db", "values": [0.0, 4.809057376031833e-211]},
               "trials": 1, "seed": 0, "gamma0": 2.0})  # once a LinAlgError in the slope fit
@example(spec={"mode": "ber", "system": {"n_s": 2, "n_r": 4, "n_d": 1},
               "strategies": ["optimal-relay-filter"],
               "sweep": {"axis": "transmit-snr-db", "values": [0.0],
                         "lambda_rd": 4.779718510495437e+307},
               "trials": 1, "seed": 10000})  # once a LinAlgError in eigh
@example(spec={"mode": "ber", "system": {"n_s": 2, "n_r": 4, "n_d": 1},
               "strategies": ["optimal-relay-filter"],
               "sweep": {"axis": "transmit-snr-db", "values": [0.0], "lambda_rd": 1e30},
               "trials": 1, "seed": 10000})  # the top accepted gain, through the eigensolve
@example(spec={"mode": "outage", "system": {"n_s": 1, "n_r": 1, "n_d": 1},
               "strategies": ["mmse-receiver"],
               "sweep": {"axis": "transmit-snr-db", "values": [0.0]},
               "trials": 1, "seed": 0, "gamma0": 10**400})  # once an OverflowError in validate
def test_accepted_spec_runs_or_exits_2(spec):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        out = os.path.join(tmp, "out.csv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([spec["mode"], "--config", spec_path, "--out", out])
        if validate_spec(spec):
            assert code == 2
        else:
            assert code in (0, 2), err.getvalue()
            assert os.path.exists(out) == (code == 0)
