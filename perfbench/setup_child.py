"""Fresh-interpreter probe for the benchmark's set-up time.

Reads {"workload", "doc", "grid"} as JSON on stdin, imports the CLI
module the way `ews32` does, runs the workload's first operation on the
document, and prints one JSON line once that operation returns. The
parent times from spawn to that line.

The probe also times a pure-Python kernel on its own CPU, before the
imports and after the operation, and reports the kernel's total time
(which the parent subtracts) and the factor that scales the probe to a
CPU running the kernel in NOMINAL_US. Numpy is not imported when the
first samples are taken, hence a kernel without it.
"""

import json
import os
import sys
import time

NOMINAL_US = 30.0
KERNEL_REPS = 20


def kernel() -> int:
    acc = 0.0
    parts = []
    for k in range(60):
        v = (k * 0.37 + acc) / (k + 1.0)
        acc += v
        parts.append(f"{v:.3f}")
    return len(",".join(parts))


def time_kernel() -> list:
    out = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


samples = time_kernel()
t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import ews32.cli  # noqa: E402,F401

import_ms = (time.perf_counter() - t0) * 1e3

import ops  # noqa: E402

request = json.load(sys.stdin)
workload = request["workload"]
ops.OPS[workload](ops.prepare(workload, request["doc"], request["grid"]))
samples += time_kernel()
report = {
    "import_ms": import_ms,
    "kernel_s": sum(samples),
    "scale": NOMINAL_US * 1e-6 * len(samples) / sum(samples),
}
sys.stdout.write(json.dumps(report) + "\n")
sys.stdout.flush()
