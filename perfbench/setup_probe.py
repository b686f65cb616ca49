"""Set up one workload in a fresh interpreter and report how long it took.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports embtrees from the checkout's src/, builds the inputs of the
workload's first pass and prints "ready <seconds>": the process CPU time from
the first statement of this script to the inputs being built.  run.py reports the
median over several probes as setup_s.
"""

import time

START = time.process_time()

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports embtrees)

if __name__ == "__main__":
    workloads.build_pass(sys.argv[1], int(sys.argv[2]), 0)
    print(f"ready {time.process_time() - START!r}", flush=True)
