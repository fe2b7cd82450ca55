"""Time one set-up of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD DEGREE

``run.py`` starts this several times per run, with the package source on
PYTHONPATH.  Prints two numbers: the seconds from before the package import
until the workload is ready for its first job, and the time of the
calibration loop measured right after.
"""

import statistics
import sys
import time

start = time.perf_counter()

import jobs  # noqa: E402  (the import is part of what is timed)

workload, _ = jobs.WORKLOADS[sys.argv[1]]
workload.setup(int(sys.argv[2]))
elapsed = time.perf_counter() - start

from calibrate import calibrate  # noqa: E402

print(elapsed, statistics.median(calibrate() for _ in range(3)))
