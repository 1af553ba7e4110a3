"""Benchmark entry point.

    python3 perfbench/run.py --workload {report,sweep,figure} --seed N \\
        --seconds S --trace {0,1}

Builds nothing: it imports ews32 from src/ of the checkout it sits in.
Prints one detail line (raw timings, scale factor, sample counts,
fail_ratio), then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits 2 without a
result when the ews32 sources are missing.
"""

import os

# Single-threaded BLAS and OpenMP for this process and its set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _ews32_from_checkout() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        import ews32
    except ImportError:
        return False
    return Path(ews32.__file__).resolve().is_relative_to(SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report", "sweep", "figure"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not _ews32_from_checkout():
        print(f"perfbench: no ews32 package under {SRC}", file=sys.stderr)
        return 2

    import workloads

    detail, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
