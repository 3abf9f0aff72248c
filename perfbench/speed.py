"""Machine-speed calibration for the end-to-end times.

On a shared virtual machine the speed of the CPU drifts by a third over
minutes while the program's work stays the same, so raw times from runs a
few minutes apart differ by more than any change worth catching.  Each
measured interval is therefore bracketed by a fixed kernel, and the interval
is rescaled to the speed at which that kernel takes REF_CALIBRATION_S:

    reference seconds = measured seconds * REF_CALIBRATION_S / kernel seconds

The kernel is half a pure-Python integer loop and half a loop of small numpy
calls, the two kinds of work latflow does; together they follow the speed of
all three workloads' operations more closely than either alone.  It takes
the minimum of a few repeats, so a preemption does not count as slowness.
A faster or slower program moves the rescaled time by the same share as the
raw one; a faster or slower machine moves both the interval and the kernel,
and the rescaled time stays put.
"""

from __future__ import annotations

from time import perf_counter

# The kernel takes about this long on a 2-CPU cloud virtual machine under
# typical load, so reference seconds read close to wall seconds there.
REF_CALIBRATION_S = 1.0e-3
INT_STEPS = 6_000
MATMUL_STEPS = 140
REPEATS = 3


def _kernel(np) -> None:
    s = 0
    for i in range(INT_STEPS):
        s = (s * 31 + i) % 1000003
    m = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4], [0.2, 0.5, 1.0]])
    v = m
    for _ in range(MATMUL_STEPS):
        v = v @ m
        v = v / np.abs(v).max()


def calibrate() -> float:
    """Seconds the kernel takes now: the fastest of REPEATS runs."""
    # numpy is imported here, not at module level, so that importing this
    # module before ``import latflow.cli`` does not take numpy's import out
    # of a timed import.
    import numpy as np

    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel(np)
        best = min(best, perf_counter() - start)
    return best


def rescale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, in reference
    seconds."""
    return seconds * REF_CALIBRATION_S / kernel_s
