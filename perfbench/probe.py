"""Set-up probe: a fresh process that imports gvlab as a benchmark run does.

Usage: ``python3 perfbench/probe.py <spawn time>``, where the spawn time
is the parent's ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all
processes) just before it started this one.  Prints the seconds from the
spawn until the CLI entry point is ready to run its first unit.
"""

import sys
import time
from pathlib import Path

import loader

if __name__ == "__main__":
    spawned = float(sys.argv[1])
    gvlab, _ = loader.load(Path(__file__).resolve().parent.parent / "src")
    if not callable(gvlab.cli.main):
        sys.exit("gvlab.cli.main is not callable")
    print(time.perf_counter() - spawned)
