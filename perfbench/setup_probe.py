"""Time one cold start: import edlab, load a config, build its scenario.

Run in a fresh interpreter as ``python3 setup_probe.py SRC SCENARIO [KEY=VALUE ...]``;
prints the seconds from the first statement to the built scenario.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from edlab import cli  # noqa: E402

cli.build_scenario(cli.load_config(None, sys.argv[3:], sys.argv[2]))
print(repr(time.perf_counter() - _START))
