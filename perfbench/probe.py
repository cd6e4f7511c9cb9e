"""Time one workload's set-up in a fresh process and print it in seconds.

Usage: python3 perfbench/probe.py <workload>

The clock starts before qfeedback is imported and stops when the first job
is ready, so the figure covers the import, strategy and channel
construction and the cold codebook count caches, but neither the
interpreter's own start nor the standard modules only the benchmark uses.
"""

import contextlib  # noqa: F401
import hashlib  # noqa: F401
import os
import random  # noqa: F401
import sys
import time
import traceback  # noqa: F401

started = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports qfeedback)

workloads.setup(sys.argv[1], seed=0)
print(repr(time.perf_counter() - started))
