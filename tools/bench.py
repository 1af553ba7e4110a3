"""Alternating parent/change perfbench runs, summarised as a BENCH file.

    python3 tools/bench.py --parent REV [--change REV] [--pairs 10] \\
        [--seconds 6] [--calls 100] --out BENCH_N.json report:7 sweep:7 ...

Each positional case is WORKLOAD:SEED. Both sides are clean copies made
with `git archive`: of --parent, and of --change or, without it, of the
working tree's tracked and untracked, not ignored, files. So neither copy
holds a bytecode cache, and every process runs under
PYTHONDONTWRITEBYTECODE=1, so that none writes one.

For each case, --pairs pairs of `python3 perfbench/run.py --workload W
--seed S --seconds T` runs, one per side, the side that runs first
alternating from pair to pair. Then, unless --calls is 0, as many pairs
of fresh processes per side that run perfbench's warm-up and exactly
--calls calls through workloads.measure(..., limit=--calls), read the
peak RSS, and then run the same calls again one at a time under
tracemalloc, each call's peak read above the traced memory at its start.
An equal-time run gives a faster side more calls and so more of the
benchmark's own records; a fixed call count does not.

The output holds the machine and the versions (the OpenBLAS kernel in
use among them), every run, and per workload, seed and metric each
side's quartiles, the change/parent ratio of the medians and the number
of pairs in which the change read better (ties count for neither).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
SIDES = ("parent", "change")

# A fresh process's fixed-call readings; argv is workload, seed, calls.
FIXED_CALLS = """
import json, resource, sys, tracemalloc
sys.path.insert(0, "perfbench")
import run  # single-threaded BLAS, as in a perfbench run
if not run._ews32_from_checkout():
    sys.exit("no ews32 package under src/")
import workloads
workload, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workloads.warm_up(workload, seed)
calls = [workloads.measure(workload, workloads.items(workload, seed), float("inf"), limit=n)]
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
tracemalloc.start()
stream, peaks = workloads.items(workload, seed), []
for _ in range(n):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    calls.append(workloads.measure(workload, stream, float("inf"), limit=1))
    peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024.0)
peaks.sort()
attempted, failed = sum(c.attempted for c in calls), sum(c.failed for c in calls)
print(json.dumps({
    "correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
    "metrics": {"peak_rss_mb": rss_mb, "call_tracemalloc_peak_kb": peaks[n // 2],
                "call_tracemalloc_peak_kb_max": peaks[-1]},
}))
"""
FIXED_METRICS = ("peak_rss_mb", "call_tracemalloc_peak_kb", "call_tracemalloc_peak_kb_max")


def quartiles(values) -> dict:
    """The quartiles of values (two or more), linearly interpolated."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, better: dict) -> dict:
    """{workload: {seed: {metric: summary}}} of runs, each a dict with the
    keys workload, seed, pair, side and metrics, one run per side and pair;
    better maps each metric to summarise to "lower" or "higher"."""
    by_case: dict = {}
    for run in runs:
        pairs = by_case.setdefault((run["workload"], str(run["seed"])), {})
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out: dict = {}
    for (workload, seed), pairs in by_case.items():
        sides = [pairs[pair] for pair in sorted(pairs)]
        case = out.setdefault(workload, {}).setdefault(seed, {})
        for metric, direction in better.items():
            parent = [side["parent"][metric] for side in sides]
            change = [side["change"][metric] for side in sides]
            sign = 1 if direction == "higher" else -1
            parent_q, change_q = quartiles(parent), quartiles(change)
            case[metric] = {
                "parent": parent_q,
                "change": change_q,
                "change_over_parent": change_q["median"] / parent_q["median"],
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(sides),
            }
    return out


def _openblas() -> tuple[str, str]:
    """The configuration string and the kernel in use of the OpenBLAS
    that numpy loaded in this process, or "unknown"."""
    import numpy  # noqa: F401 -- loads numpy's OpenBLAS into this process

    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    for path in sorted({line.split()[-1] for line in lines if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if config is None or corename is None:
                    continue
                for function in (config, corename):
                    function.argtypes, function.restype = [], ctypes.c_char_p
                return config().decode(), corename().decode()
    return "unknown", "unknown"


def machine() -> dict:
    import numpy

    cpuinfo = Path("/proc/cpuinfo")
    fields = {}
    for line in cpuinfo.read_text().splitlines() if cpuinfo.exists() else []:
        key, _, value = line.partition(":")
        fields.setdefault(key.strip(), value.strip())
    flags = fields.get("flags", "").split()
    config, kernel = _openblas()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": fields.get("model name", platform.processor() or "unknown"),
        "cpu_flags": " ".join(flag for flag in ("avx2", "avx512f", "fma") if flag in flags),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config,
        "openblas_kernel": kernel,
    }


def _git(*args: str, env=None) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _working_tree(scratch: Path) -> str:
    """A tree object of the working tree's tracked and untracked, not
    ignored, files, made through an index of its own."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def _copy(tree_ish: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", tree_ish], cwd=ROOT, capture_output=True, check=True
    )
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _result(command: list[str], copy: Path) -> dict:
    """The JSON object on the last line a command run in copy prints."""
    done = subprocess.run(command, cwd=copy, env=ENV, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode} in {copy}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["metrics"] = {k: v["value"] if isinstance(v, dict) else v for k, v in result["metrics"].items()}
    return result


def alternate(cases, pairs: int, copies: dict, command) -> list[dict]:
    """One run per side and pair of each (workload, seed) case, the
    parent first in odd pairs; command(workload, seed) is the argv."""
    runs = []
    for workload, seed in cases:
        for pair in range(1, pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = _result(command(workload, seed), copies[side])
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, **result})
                shown = ", ".join(f"{k} {v:.6g}" for k, v in result["metrics"].items())
                print(f"{workload}:{seed} pair {pair} {side}: correct {result['correct']}, {shown}",
                      file=sys.stderr)
    return runs


def _case(text: str) -> tuple[str, int]:
    workload, _, seed = text.partition(":")
    if workload not in ("report", "sweep", "figure") or not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="+", type=_case, metavar="WORKLOAD:SEED")
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", help="git revision of the change side (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--calls", type=int, default=100, help="calls per fixed-call process (0: none)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0 or args.calls < 0:
        parser.error("need --pairs >= 2, --seconds > 0 and --calls >= 0")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="ews32-bench-") as tmp:
        scratch = Path(tmp)
        revisions = {"parent": _git("rev-parse", args.parent)}
        if args.change is None:
            tree = _working_tree(scratch)
            revisions["change"] = f"working tree (tree {tree})"
        else:
            tree = revisions["change"] = _git("rev-parse", args.change)
        copies = {side: scratch / side for side in SIDES}
        _copy(revisions["parent"], copies["parent"])
        _copy(tree, copies["change"])

        def perfbench(workload, seed):
            return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds)]

        def fixed(workload, seed):
            return [sys.executable, "-c", FIXED_CALLS, workload, str(seed), str(args.calls)]

        runs = alternate(args.cases, args.pairs, copies, perfbench)
        fixed_runs = alternate(args.cases, args.pairs, copies, fixed) if args.calls else []

    bench = {
        "about": (
            f"perfbench of the parent ({revisions['parent']}) and the change ({revisions['change']}), "
            f"each run from a clean git archive copy under PYTHONDONTWRITEBYTECODE=1: {args.pairs} "
            f"pairs of {args.seconds:g} s runs per case, the side that runs first alternating. Each "
            "metric gives each side's quartiles, the change/parent ratio of medians and the pairs in "
            "which the change read better."
        ),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "parent": revisions["parent"],
        "change": revisions["change"],
        "machine": machine(),
        "workloads": summarize(runs, better),
        "runs": runs,
    }
    if fixed_runs:
        bench["fixed_calls"] = {
            "about": (
                f"fresh processes, {args.pairs} pairs per case: perfbench's warm-up, then exactly "
                f"{args.calls} calls through workloads.measure(..., limit={args.calls}) and the peak "
                "RSS (peak_rss_mb); then the same calls again one at a time under tracemalloc, each "
                "call's peak above the traced memory at its start, which covers the document, the op "
                "and its oracle check (the median call's and the largest)"
            ),
            "calls": args.calls,
            "workloads": summarize(fixed_runs, dict.fromkeys(FIXED_METRICS, "lower")),
            "runs": fixed_runs,
        }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
