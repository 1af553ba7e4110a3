"""Closed-loop workloads: one process, one thread, one call at a time,
each call waiting for the previous one.

report  One op is one distinct generated scenario document through
        scenario_from_mapping -> run_report -> format_report. One
        document in eight breaks an assumption and must end in
        ValidationError. Statics does the most work, no two ops share a
        share table, and the rejection path runs.
sweep   One op is one grid point. Each call sweeps one template (the
        reference scenario, then generated ones) over the 4,000-point
        ROADMAP grid and formats the CSV. Substitution and the sweep
        loop dominate and one share table serves 4,000 tensors: the
        opposite of report for any per-table caching or batching.
figure  One op is render_figure for one generated valid scenario. SVG
        string building and boundary_value (800 calls per op) dominate.

A timed run measures with tracing off. A traced run alternates
untraced and traced passes over a fixed list of ops, so its call
counts per op repeat exactly; the cli layer is traced on a separate
pass that drives ews32.cli.main in-process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ews32
import ews32.cli
import gen
import ops
import oracle
import refkernel
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "setup_child.py"

SETUP_LAUNCHES = 11
# Warm-up ops come from an index range no run reaches.
WARMUP_START = 10**6
# Border margin below which the oracle does not hold a sweep point's
# classification against the program (relative to the matrix scale).
NEAR_BORDER = 1e-9


@dataclass(frozen=True)
class Spec:
    docs: Callable[[int, int], dict]  # (seed, index) -> document
    points: int  # ops per call
    kernel_reps: int  # kernel timings before, and again after, each call
    warmup: int  # untimed calls before measuring
    trace_calls: int  # fixed calls per traced pass
    cli_calls: int  # calls driven through ews32.cli.main in a traced run
    # Percentile of tail_us: the highest with at least ten of a run's
    # calls beyond it. A run fits thousands of report or figure calls but
    # only about forty sweep calls, so the sweep tail is the median.
    tail_pct: int


SPECS = {
    "report": Spec(gen.report_doc, 1, 2, 16, 256, 16, 99),
    "sweep": Spec(gen.sweep_template, len(gen.grid_points()), 60, 1, 2, 1, 50),
    "figure": Spec(gen.figure_doc, 1, 8, 8, 64, 8, 99),
}


def items(workload: str, seed: int, start: int = 0):
    """(index, document, prepared input) for consecutive indices."""
    spec = SPECS[workload]
    for index in itertools.count(start):
        doc = spec.docs(seed, index)
        yield index, doc, ops.prepare(workload, doc, gen.GRID_SPEC)


def _attempt(op, inp):
    try:
        return op(inp)
    except Exception as exc:  # every outcome, rejections included, is checked later
        return exc


# ---------------------------------------------------------------- checks

def _shares(doc):
    return np.asarray(doc["theta"], dtype=float), np.asarray(doc["theta_sector"], dtype=float)


def check_report(index: int, doc: dict, out) -> int:
    """Failed ops (0 or 1) of one report against the dense oracle."""
    if gen.invalid_kind(index) is not None:
        return 0 if isinstance(out, ews32.ValidationError) else 1
    if isinstance(out, BaseException):
        return 1
    report, text = out
    theta, sector = _shares(doc)
    g = oracle.substitution(theta, sector, gen.template_sigma(doc))
    ryb, ss = oracle.statics(theta, sector, g)
    s_prime, u_prime, sign_t = oracle.ratio_vector(g)
    ok = (
        oracle.close(report.rybczynski, ryb)
        and oracle.close(report.stolper_samuelson, ss)
        and report.output_signs.entries == oracle.signs(ryb)
        and report.reward_signs.entries == oracle.signs(ss)
        and report.signs_agree
        and oracle.close([report.vector.s_prime, report.vector.u_prime], [s_prime, u_prime])
        and report.vector.sign_t == sign_t
        and report.subregion.value[0] == ("P" if sign_t > 0 else "M")
        and len(report.responses) == len(doc["shocks"])
        and f"subregion: {report.subregion.value}\n" in text
        and "numeric and tabled signs agree: yes\n" in text
    )
    a = oracle.system(theta, sector, g)
    for shock, (_, response) in zip(doc["shocks"], report.responses):
        x = np.linalg.solve(a, oracle.rhs(shock.get("price", 0.0), shock.get("endowments", (0.0, 0.0, 0.0))))
        ok = ok and oracle.close(response.w_hat, x[:3]) and oracle.close(response.x_hat, x[3:])
    return 0 if ok else 1


_OFFDIAG = (  # every free off-diagonal as (key, sector, row, column)
    ("land_capital_1", 0, 0, 1), ("land_labor_1", 0, 0, 2), ("capital_labor_1", 0, 1, 2),
    ("land_capital_2", 1, 0, 1), ("land_labor_2", 1, 0, 2), ("capital_labor_2", 1, 1, 2),
)
_TABLES = {
    region.value: (
        np.array(ews32.sign_pattern_lookup(region, "rybczynski").entries),
        np.array(ews32.sign_pattern_lookup(region, "stolper_samuelson").entries),
    )
    for region in ews32.Subregion
}


def check_sweep(index: int, doc: dict, out) -> int:
    """Failed grid points of one sweep call: every point's tensor and
    validity, every classified point's (S', U'), denominator sign,
    tabled signs against the dense solve, and the strong-result flag."""
    n = SPECS["sweep"].points
    if isinstance(out, BaseException):
        return n
    rows, csv = out
    if len(rows) != n or csv.count("\n") != n + 1 or not csv.startswith("land_capital_1,"):
        return n
    theta, sector = _shares(doc)
    sigma = gen.grid_sigma(doc)
    valid = oracle.tensor_valid(sigma, theta)

    got = np.array([[r[key] for key, *_ in _OFFDIAG] for r in rows], dtype=float)
    want = np.stack([sigma[:, s, i, j] for _, s, i, j in _OFFDIAG], axis=1)
    bad = ~np.all(np.isclose(got, want, rtol=oracle.RTOL, atol=oracle.ATOL), axis=1)
    status_ok = np.array([r["status"] == "ok" for r in rows])
    bad |= status_ok & ~valid

    idx = np.flatnonzero(valid)
    g = oracle.substitution(theta, sector, sigma[idx])
    ryb, ss = oracle.statics(theta, sector, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_prime, u_prime, sign_t = oracle.ratio_vector(g)
    near = (
        np.min(np.abs(ryb), axis=(1, 2)) <= NEAR_BORDER * np.max(np.abs(ryb), axis=(1, 2))
    ) | (np.abs(g[:, 2, 0]) <= NEAR_BORDER * np.max(np.abs(g), axis=(1, 2)))
    classified = status_ok[idx]
    bad[idx[~classified & ~near]] = True

    c = np.flatnonzero(classified & ~near)
    crow = [rows[i] for i in idx[c]]
    tables = [_TABLES[r["subregion"]] for r in crow]
    if crow:
        ryb_signs = np.array([t[0] for t in tables])
        ss_signs = np.array([t[1] for t in tables])
        row_ok = (
            np.isclose([r["s_prime"] for r in crow], s_prime[c], rtol=oracle.RTOL, atol=oracle.ATOL)
            & np.isclose([r["u_prime"] for r in crow], u_prime[c], rtol=oracle.RTOL, atol=oracle.ATOL)
            & (np.array([r["sign_t"] for r in crow]) == sign_t[c])
            & np.all(ryb_signs == np.sign(ryb[c]), axis=(1, 2))
            & np.all(ss_signs == np.sign(ss[c]), axis=(1, 2))
            & (np.array([r["strong_result"] for r in crow]) == oracle.strong(ryb[c]))
        )
        bad[idx[c[~row_ok]]] = True
    return int(bad.sum())


_VECTOR = re.compile(r'<circle class="vector" cx="(-?[0-9.]+)" cy="(-?[0-9.]+)"')


def check_figure(index: int, doc: dict, out) -> int:
    """Failed ops (0 or 1): the vector marker sits where the oracle's
    (S', U') maps in the default window, with all seven anchors drawn."""
    if isinstance(out, BaseException):
        return 1
    theta, sector = _shares(doc)
    g = oracle.substitution(theta, sector, gen.template_sigma(doc))
    s_prime, u_prime, _ = oracle.ratio_vector(g)
    px, py = oracle.figure_point(s_prime, u_prime)
    m = _VECTOR.search(out)
    ok = (
        m is not None
        and abs(float(m[1]) - px) <= 1e-3
        and abs(float(m[2]) - py) <= 1e-3
        and out.count('<circle class="anchor"') == 7
        and f"<title>{doc['name']}</title>" in out
        and out.endswith("</svg>\n")
    )
    return 0 if ok else 1


CHECKS = {"report": check_report, "sweep": check_sweep, "figure": check_figure}


# ---------------------------------------------------------------- timing

@dataclass
class Calls:
    """Raw time and scale factor of each call, kept in flat arrays so the
    benchmark's own memory hardly grows with the number of calls."""

    raw: array = field(default_factory=lambda: array("d"))
    scale: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0

    def scaled(self) -> np.ndarray:
        return np.asarray(self.raw) * np.asarray(self.scale)


def measure(workload: str, stream, deadline: float, limit: int | None = None) -> Calls:
    """Run calls from `stream` until the deadline (or `limit` calls),
    timing the kernel beside each and checking each output after."""
    spec, op, check = SPECS[workload], ops.OPS[workload], CHECKS[workload]
    calls = Calls()
    for index, doc, inp in stream:
        samples = refkernel.time_kernel(spec.kernel_reps)
        t0 = perf_counter()
        out = _attempt(op, inp)
        t1 = perf_counter()
        samples += refkernel.time_kernel(spec.kernel_reps)
        calls.raw.append(t1 - t0)
        calls.scale.append(refkernel.scale(samples))
        calls.attempted += spec.points
        calls.failed += check(index, doc, out)
        if perf_counter() >= deadline or (limit is not None and len(calls.raw) >= limit):
            break
    return calls


def warm_up(workload: str, seed: int) -> None:
    spec = SPECS[workload]
    measure(workload, items(workload, seed, WARMUP_START), float("inf"), spec.warmup)


def launch(workload: str, doc: dict) -> tuple[float, float, float]:
    """Raw seconds from spawning a fresh interpreter until its first op
    returns (less the probe's own kernel timings), that interpreter's
    raw ews32.cli import time in ms, and the probe's scale factor."""
    payload = json.dumps({"workload": workload, "doc": doc, "grid": gen.FIRST_POINT_SPEC})
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=120) != 0:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    probe = json.loads(line)
    return elapsed - probe["kernel_s"], probe["import_ms"], probe["scale"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: np.ndarray, pct: int) -> tuple[float, int]:
    """The pct percentile within each block of consecutive calls just
    large enough to hold ten calls beyond it (1,000 for p99), and the
    median over blocks, with the number of blocks. A minute-long burst of
    interference from other tenants then moves only the blocks it hits,
    where it would move a whole-run p99 by a factor of two."""
    block = round(10 * 100 / (100 - pct))
    blocks = np.array_split(values, max(1, len(values) // block))
    return float(np.median([np.percentile(b, pct) for b in blocks])), len(blocks)


def timed_run(workload: str, seed: int, seconds: float):
    spec = SPECS[workload]
    setup = [launch(workload, spec.docs(seed, 0)) for _ in range(SETUP_LAUNCHES)]
    warm_up(workload, seed)
    calls = measure(workload, items(workload, seed), perf_counter() + seconds)
    scaled = calls.scaled()
    raw = np.array(calls.raw)
    total_ops = spec.points * len(raw)
    tail_s, tail_blocks = tail(scaled, spec.tail_pct)
    metrics = {
        "ops_per_s": (total_ops / scaled.sum(), "1/s"),
        "p50_us": (np.percentile(scaled, 50) / spec.points * 1e6, "us"),
        "tail_us": (tail_s / spec.points * 1e6, "us"),
        "call_p50_ms": (np.median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(t * sc for t, _, sc in setup), "s"),
    }
    detail = {
        "calls": len(raw),
        "tail_percentile": spec.tail_pct,
        "tail_blocks": tail_blocks,
        "ops": total_ops,
        "fail_ratio": calls.failed / calls.attempted,
        "raw": {
            "ops_per_s": total_ops / raw.sum(),
            "p50_us": np.percentile(raw, 50) / spec.points * 1e6,
            "tail_us": tail(raw, spec.tail_pct)[0] / spec.points * 1e6,
            "call_p50_ms": np.median(raw) * 1e3,
        },
        "kernel_median_us": refkernel.NOMINAL_US / float(np.median(calls.scale)),
        "nominal_kernel_us": refkernel.NOMINAL_US,
        "scale_median": float(np.median(scaled / raw)),
        "setup_s_raw": [t for t, *_ in setup],
        "setup_scales": [sc for *_, sc in setup],
    }
    return calls, metrics, detail


def _cli_argv(workload: str, doc_path: Path, out_dir: Path) -> list[str]:
    if workload == "report":
        return ["report", str(doc_path)]
    if workload == "sweep":
        return ["sweep", str(doc_path), "--grid", gen.GRID_SPEC, "-o", str(out_dir / "out.csv")]
    return ["figure", str(doc_path), "-o", str(out_dir / "out.svg")]


def cli_pass(workload: str, seed: int) -> tuple[Tracer, int, int]:
    """Drive the first ops through ews32.cli.main in-process, traced;
    returns the tracer, ops attempted, and ops whose exit code was
    wrong."""
    spec = SPECS[workload]
    tracer = Tracer()
    failed = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        for index in range(spec.cli_calls):
            doc = spec.docs(seed, index)
            doc_path = out_dir / "doc.json"
            doc_path.write_text(json.dumps(doc), encoding="utf-8")
            sink = io.StringIO()
            with tracer, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = ews32.cli.main(_cli_argv(workload, doc_path, out_dir))
            expected = 2 if workload == "report" and gen.invalid_kind(index) else 0
            failed += spec.points * (code != expected)
    return tracer, spec.cli_calls * spec.points, failed


def traced_run(workload: str, seed: int, seconds: float):
    spec = SPECS[workload]
    setup = [launch(workload, spec.docs(seed, 0)) for _ in range(SETUP_LAUNCHES)]
    fixed = list(itertools.islice(items(workload, seed), spec.trace_calls))
    warm_up(workload, seed)
    deadline = perf_counter() + seconds
    tracer = Tracer()
    plain, traced = [], []
    while not traced or perf_counter() < deadline:
        plain.append(measure(workload, iter(fixed), float("inf")))
        with tracer:
            traced.append(measure(workload, iter(fixed), float("inf")))
    ok_rows = 0
    if workload == "sweep":
        for _, doc, inp in fixed:
            ok_rows += sum(r["status"] == "ok" for r in ops.sweep(inp)[0])
    cli_tracer, cli_ops, cli_failed = cli_pass(workload, seed)

    plain_s = sum(c.scaled().sum() for c in plain)
    traced_s = sum(c.scaled().sum() for c in traced)
    scale = float(np.median(np.concatenate([c.scale for c in traced])))
    cli_scale = refkernel.scale(refkernel.time_kernel(15))
    traced_ops = spec.points * spec.trace_calls * len(traced)
    layer = tracer.metrics(traced_ops, scale, [name for name in LAYERS if name != "cli"])
    layer.update(cli_tracer.metrics(cli_ops, cli_scale, ["cli"]))
    metrics = {k: (v, "calls/op" if k.endswith(".calls") else "us/op") for k, v in layer.items()}
    metrics["sweep.ok_ratio"] = (ok_rows / (spec.points * len(fixed)) if workload == "sweep" else 0.0, "ratio")
    metrics["cli.import_ms"] = (statistics.median(ms * sc for _, ms, sc in setup), "ms")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    calls = Calls(
        attempted=sum(c.attempted for c in plain + traced) + cli_ops,
        failed=sum(c.failed for c in plain + traced) + cli_failed,
    )
    detail = {
        "passes": len(traced),
        "ops_per_pass": spec.points * spec.trace_calls,
        "fail_ratio": calls.failed / calls.attempted,
        "scale_median": scale,
        "cli_ops": cli_ops,
    }
    return calls, metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result) for printing."""
    calls, metrics, detail = (traced_run if trace else timed_run)(workload, seed, seconds)
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    result = {
        "correct": calls.failed == 0 and calls.attempted > 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result
