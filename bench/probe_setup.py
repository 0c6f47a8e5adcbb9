"""One cold set-up in a fresh interpreter.

Usage: python3 bench/probe_setup.py <workload> <seed>

Runs the same set-up as bench/run.py (import eitkit, write the seeded
config, make the working directory), prints the monotonic clock at the
moment the first verb would start, then removes its working directory.
The parent subtracts its own clock reading taken just before the spawn.
"""

import shutil
import sys
import time
from pathlib import Path

import workloads

if __name__ == "__main__":
    setup = workloads.set_up(Path(__file__).resolve().parent.parent,
                             sys.argv[1], int(sys.argv[2]), tag="probe")
    ready = time.monotonic()
    shutil.rmtree(setup.work)
    print(repr(ready))
