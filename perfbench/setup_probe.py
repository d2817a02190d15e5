"""Times `import ghostfringe` plus `parse_config` of the given files.

Usage: python3 perfbench/setup_probe.py ROOT CONFIG.ini [CONFIG.ini ...]

Run in a fresh interpreter; prints the elapsed seconds. Interpreter start-up
is excluded, import and parsing are what a CLI user pays on every run.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from locate import import_cli  # noqa: E402

cli = import_cli(Path(sys.argv[1]))
for path in sys.argv[2:]:
    cli.parse_config(path)
print(repr(time.perf_counter() - START))
