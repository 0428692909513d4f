"""Host-speed probe: a bare interpreter start that imports the standard
library modules the package uses, and nothing of the package.

    python3 perfbench/hostprobe.py SPAWNED_AT

Prints the seconds since SPAWNED_AT, the parent's time.monotonic() just
before it started this process.  No change to the package can move this
time, so run.py divides every time it reports by it (see run.py).
"""

import sys
import time

import concurrent.futures  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import logging  # noqa: F401

print(time.monotonic() - float(sys.argv[1]))
