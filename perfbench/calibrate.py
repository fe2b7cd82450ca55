"""A fixed calibration loop that measures the machine's current speed.

The speed of a shared machine drifts: on the 2-core machine the baseline
came from, the same job ran at times up to twice as slow as at others, and
a slow spell can last for minutes.  The benchmark therefore runs this loop
right before and right after each job (and right after each set-up) and
reports times in calibrated seconds: measured seconds × CAL_REF_S / the
loop's measured time.  A job that takes 10 loop times reads 10 × CAL_REF_S
on any machine state.

The loop mixes interpreter work with numpy calls on small arrays, as the
package's hot paths do, so that slow spells slow both by about the same
factor.  It is part of the benchmark and must not change between the two
commits a comparison measures.
"""

import time

import numpy as np

# The loop's time on the baseline machine when it ran fastest, in seconds.
CAL_REF_S = 0.012

_ROUNDS = 300
_VALUES = np.arange(64, dtype=np.int32)
_TABLE = np.random.default_rng(0).integers(0, 64, (64, 64)).astype(np.int32)


def calibrate():
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    for i in range(_ROUNDS):
        kept = np.unique(_VALUES[i % 7::3])
        np.isin(_VALUES, kept).sum()
        ids = _VALUES.copy()
        ids[ids == i % 64] = 0
        _TABLE[ids].sum()
        counts = {}
        for k in range(40):
            counts[k] = counts.get(k - 1, 0) + i
    return time.perf_counter() - start
