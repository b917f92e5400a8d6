"""Set-up time of one sweep in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <spec.json>

Times importing relaysim, loading and validating the spec and building the
sweep points, and prints the seconds taken.  Exits 2 if the spec is invalid.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from relaysim import cli  # noqa: E402

spec, diags = cli.load_spec(sys.argv[2])
if diags:
    print("\n".join(diags), file=sys.stderr)
    sys.exit(2)
points = cli._sweep_points(spec)
print(repr(time.perf_counter() - _t0))
