import sys
from functools import partial

import numpy as np
import pytest

from relaysim.channel import SystemConfig
from relaysim.errors import InvalidParameterError, is_int, is_number, is_positive
from relaysim.montecarlo import diversity_order, run_ber_points, run_outage_points
from relaysim.numerics import RngStream, sample_complex_gaussian
from relaysim.receiver import closed_form_check


@pytest.mark.parametrize("v,integer,number,positive", [
    (3, True, True, True),
    (np.int64(-2), True, True, False),
    (np.uint64(2**63), True, True, True),
    (0, True, True, False),
    (True, False, False, False),
    (np.True_, False, False, False),
    (1.5, False, True, True),
    (np.float32(2.0), False, True, True),
    (-sys.float_info.max, False, True, False),
    (int(sys.float_info.max), True, True, True),
    (10**400, True, False, False),
    (-10**400, True, False, False),
    (float("nan"), False, False, False),
    (float("inf"), False, False, False),
    ("1", False, False, False),
    (None, False, False, False),
    (1j, False, False, False),
])
def test_parameter_predicates(v, integer, number, positive):
    assert (is_int(v), is_number(v), is_positive(v)) == (integer, number, positive)


def sweep(engine, **bad):
    """A 100-trial outage or BER sweep call, with the keyword arguments ``bad``."""
    run = run_outage_points if engine == "outage" else run_ber_points
    gamma0 = {"gamma0": 1.0} if engine == "outage" else {}
    kwargs = {"trials_per_point": 100, "seed": 1, **gamma0, **bad}
    return partial(run, [(0.0, SystemConfig(2, 2, 2))], ["mmse-receiver"], **kwargs)


# each of these once ran: a float seed read as its integer part, a bool
# counted as 1, or a float count ended in a TypeError inside numpy
@pytest.mark.parametrize("call", [
    pytest.param(partial(RngStream, 1.5), id="seed-float"),
    pytest.param(partial(RngStream, 1, 2.7), id="index-float"),
    pytest.param(partial(SystemConfig, True, 2, 2), id="n_s-bool"),
    pytest.param(partial(SystemConfig, 2, 2, 2, snr=True), id="snr-bool"),
    *(pytest.param(sweep(engine, **bad), id=f"{engine}-{name}")
      for engine in ("outage", "ber")
      for name, bad in [("trials-float", {"trials_per_point": 1.5}),
                        ("trials-bool", {"trials_per_point": True}),
                        ("threads-float", {"threads": 1.5}),
                        ("early-stop-bool", {"early_stop_errors": True})]),
    pytest.param(sweep("outage", gamma0=True), id="outage-gamma0-bool"),
    pytest.param(partial(closed_form_check, 2, 2, 2, 1.0, 1.5, 1), id="closed-form-trials-float"),
    pytest.param(partial(diversity_order, 1.5, 2, 2), id="diversity-order-float"),
    pytest.param(partial(diversity_order, True, 1, 1), id="diversity-order-bool"),
    pytest.param(partial(sample_complex_gaussian, RngStream(1), 2.5, 2), id="shape-float"),
])
def test_library_rejects_what_the_cli_rejects(call):
    with pytest.raises(InvalidParameterError):
        call()
