"""Set-up time of one fresh ``secrecy-ascent run``.

usage: python3 perfbench/setup_probe.py <spawn_monotonic> <secrecy-ascent args...>

``spawn_monotonic`` is ``time.monotonic()`` in the parent just before it
started this interpreter (the clock is system-wide). The probe imports the
CLI, lets it parse argv and resolve and build the config, and stops at the
moment the first trial would be dispatched. It prints the elapsed seconds.
"""

import sys
import time
from pathlib import Path

SPAWNED = float(sys.argv[1])
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from secrecy_ascent import cli  # noqa: E402


class _FirstTrial(Exception):
    pass


def _stop(*_args, **_kwargs):
    raise _FirstTrial(time.monotonic())


cli.run_fixed_power_experiment = cli.run_variable_power_experiment = _stop
try:
    cli.main(sys.argv[2:])
except _FirstTrial as reached:
    print(repr(reached.args[0] - SPAWNED))
    sys.exit(0)
sys.exit(1)
