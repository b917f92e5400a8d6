"""Fixed-seed CLI runs whose CSV bytes are pinned per stream format.

``golden_runs.json`` maps each stream format to small specs and the sha256
of the CSV each one writes.  Together they cover ber, outage and diversity,
all five strategies, both sweep axes, 1x1x1 to 4x4x4 and asymmetric
systems, early stops that fire and short last chunks.  Every spec must
reproduce its CSV at ``--threads`` 1 and 2.  The manifest is not hashed:
its worker count depends on the CPUs.  An entry changes only with a declared
stream-format or CSV-format change, and a new ``STREAM_FORMAT`` needs
entries of its own.
"""

import hashlib
import json
from pathlib import Path

import pytest

from relaysim.cli import EXIT_OK, main
from relaysim.stream import STREAM_FORMAT

TABLE = json.loads(Path(__file__).with_name("golden_runs.json").read_text())
RUNS = TABLE.get(str(STREAM_FORMAT), {})


def csv_sha256(spec: dict, threads: int, directory: Path) -> str:
    config, out = directory / "spec.json", directory / f"threads-{threads}.csv"
    config.write_text(json.dumps(spec))
    argv = [spec["mode"], "--config", str(config), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_stream_format_has_golden_runs():
    assert RUNS, f"no golden runs for stream format {STREAM_FORMAT}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_csv(name, tmp_path):
    run = RUNS[name]
    assert [csv_sha256(run["spec"], threads, tmp_path) for threads in (1, 2)] == \
        [run["csv_sha256"]] * 2
