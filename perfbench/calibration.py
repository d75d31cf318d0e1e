"""Machine-speed calibration for reported times.

The benchmark shares its CPU with other tenants. On the 2-vCPU Xeon it was
built on, the same pure-Python loop ran at two speeds about 27 % apart,
switching every few seconds. The same seed then varied by ±15 % in
ops_per_s from run to run. Pinning the CPU is not an option there.

So every reported time is scaled to a reference speed. A fixed
standard-library kernel (exact ``Fraction`` arithmetic and a small dict,
the same kind of interpreter work as the program's exact layers) is timed
just before and just after a stretch of operations. An operation that
took ``t`` seconds while the kernel took ``c`` seconds is reported as
``t * REFERENCE_S / c``. The kernel never touches the program, so a change
to the program cannot move it.

``REFERENCE_S`` is the kernel's median time on the machine above. There,
reported times are close to raw wall time; the raw figures are printed
beside them.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

REFERENCE_S = 0.00065
REPEATS = 3  # the kernel is timed this many times and the fastest kept


def kernel() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        table[(i % 13, i % 7)] = acc
    sorted(table.items())


def calibrate() -> float:
    """Seconds the kernel takes now (the fastest of REPEATS runs)."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
