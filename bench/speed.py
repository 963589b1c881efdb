"""Machine-speed reference for timings taken on a machine shared with other work.

On a host shared with other tenants, the speed of this machine's CPUs drifts
by a factor of up to about 1.5 to 2 over a few seconds, and a ten-second
median does not average that out. A fixed reference task, timed next to each
measured interval, shows how fast the machine ran during it, and timings are
scaled to the speed at which the reference runs REFERENCE_PER_S times a
second.

The reference is a loop of small numpy calls, run on as many threads as the
workload runs its trials on. The workloads are dominated by
the same mix of interpreter work and numpy-call overhead, and of the
references tried (this loop, a pure-Python integer loop, a dict-counting loop
and a 16 MB memory scan), this one tracked their drift best: on the 2-vCPU
Xeon the benchmark was defined on, it cut the quartile spread of 5- and
15-second medians from 0.15-0.37 to 0.04-0.05 of the median on attack-erm and
generic-exhaustive.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# Reference tasks per second at the typical speed of the 2-vCPU Xeon the
# benchmark was defined on; corrected figures read as if measured at that speed.
REFERENCE_PER_S = 200.0
_SMALL = np.arange(64)


def _reference_task(_=None) -> int:
    total = 0
    for i in range(1500):
        total += int((_SMALL * i).sum())
    return total


def reference_rate(threads: int = 1) -> float:
    """Reference tasks per second at the machine's current speed, run as the workload runs its trials.

    With threads > 1 the tasks run on a pool of that many threads, two per
    thread, so that they contend for the interpreter lock across CPUs as the
    harness pool's trials do.
    """
    start = perf_counter()
    if threads == 1:
        _reference_task()
        return 1.0 / (perf_counter() - start)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(_reference_task, range(2 * threads)))
    return 2 * threads / (perf_counter() - start)


def corrected_rate(rate: float, reference: float) -> float:
    """A rate measured while the reference ran `reference` times a second, at reference speed."""
    return rate * REFERENCE_PER_S / reference
