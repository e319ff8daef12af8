"""Calibration helper: for every line read from standard input, time a fixed
piece of work owned by the benchmark and print the seconds it took.

    python3 perfbench/calibrate.py

The work is interpreted Python and many small numpy calls, the kind of work
that dominates qcap's commands.  It runs in a process of its own so that
numpy stays out of run.py's process, whose memory a child shares until it
executes the interpreter.
"""

import sys
import time

import numpy as np


def calibration_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    m = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(10_000):
        m = (m * 3 + 1) % 5
    return time.perf_counter() - start


for _ in sys.stdin:
    print(repr(calibration_s()), flush=True)
