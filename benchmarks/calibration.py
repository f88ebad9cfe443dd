"""Machine-speed calibration, importable without numpy or json.

Other tenants of a shared machine slow all kinds of work, interpreter loops
and numpy alike, for stretches of seconds to minutes: by up to 1.9x on the
two-core machine the benchmark was defined on, often for a whole 30 s run,
which no estimator over raw times can remove. So timed calls are bracketed
by two runs of a fixed calibration (an interpreter loop and float
formatting, much like sepkit's own work), and their times are scaled by
CAL_REFERENCE_S over the mean of the two: the result is seconds at the
speed at which the calibration takes CAL_REFERENCE_S.

The module imports nothing but ``time``, so that a child interpreter can
calibrate itself around ``import sepkit.cli`` without importing anything
the measured import would otherwise load.
"""

import time

# A choice of unit: near the calibration's fastest time on the two-core
# Intel Xeon the benchmark was defined on, where its median ran 1.2-2x that.
CAL_REFERENCE_S = 0.005
_LOOP = 30000
_FLOATS = [0.1 * i for i in range(10000)]


def seconds() -> float:
    """Time a fixed mix of interpreter work and float formatting (a few ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    ",".join(map(repr, _FLOATS))
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale from raw to reference seconds, from the calibrations around a call."""
    return 2.0 * CAL_REFERENCE_S / (before + after)
