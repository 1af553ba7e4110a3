"""Reference kernel that turns raw timings into nominal-speed timings.

On a shared virtual CPU the same work can take twice as long from one
minute to the next, and CPU time moves with wall time, so neither clock
repeats. The benchmark therefore times this fixed kernel beside every
measured call. The kernel mixes what the workloads do: small numpy
solves and reductions, and an interpreted loop that formats numbers.
On the 2-vCPU machine of the baseline the CPU's speed changes within
milliseconds (the kernel's own time correlates 0.7 with the time ten
kernels later and 0.1 with the time a thousand later), so only samples taken right before and right after a
call say how fast the CPU was during it. A call's scaled time is its
raw time multiplied by NOMINAL_US over the mean of those samples: the
time the call would have taken on a CPU that runs the kernel in
NOMINAL_US. The mean, not the median, because a long call pays for
every slow stretch in proportion to its length, and so does the mean.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The reference speed, fixed for good so that scaled timings from
# different commits compare. perfbench/meta.json records the kernel's
# median on the machine the baseline was taken on.
NOMINAL_US = 100.0

_RNG = np.random.default_rng(20171130)
_MATRICES = [_RNG.uniform(-1.0, 1.0, (5, 5)) + 5.0 * np.eye(5) for _ in range(2)]
_RHS = _RNG.uniform(-1.0, 1.0, 5)
_SHARES = np.array([0.5, 0.15, 0.35])


def kernel() -> float:
    acc = 0.0
    for a in _MATRICES:
        x = np.linalg.solve(a, _RHS)
        acc += float(np.max(np.abs(a @ x - _RHS)))
        acc += float(np.einsum("ij,j->i", a, x).sum())
    s = np.ones((2, 3, 3))
    for j in range(2):
        for i in range(3):
            s[j, i, i] = 0.0
            s[j, i, i] = -(s[j, i] @ _SHARES) / _SHARES[i]
    acc += float(np.sum(s))
    cells = {}
    for k in range(24):
        v = (k * 0.37 + acc) / (k + 1.0)
        cells[k] = f"{v:.3f},{acc:.6g}"
    return acc + len(" ".join(cells.values()))


def time_kernel(reps: int) -> list[float]:
    """Raw kernel times in seconds."""
    out = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


def scale(samples: list[float]) -> float:
    """NOMINAL_US over the mean of the kernel times taken beside one
    call: the factor that converts the call's raw time to nominal speed."""
    return NOMINAL_US * 1e-6 / statistics.fmean(samples)
