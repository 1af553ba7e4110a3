"""Tests for the benchmark itself: generator, oracle, checks and tracer.

Run with: python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import ews32  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_S_PRIME = 0.7093023255813954


@pytest.mark.parametrize("make", [gen.report_doc, gen.sweep_template, gen.figure_doc])
def test_generator_is_deterministic_per_seed(make):
    for index in (1, 2, 7, 15):
        assert make(5, index) == make(5, index)
        assert make(5, index) != make(6, index)
    assert make(5, 1) != make(5, 2)


def test_invalid_documents_break_their_assumption():
    seen = set()
    for index in range(64):
        doc = gen.report_doc(3, index)
        kind = gen.invalid_kind(index)
        theta = np.asarray(doc["theta"])
        sigma = doc["sigma"]
        if kind is None:
            assert np.allclose(theta.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            assert oracle.ranked(theta)
            assert oracle.tensor_valid(sigma, theta)
            assert np.allclose(np.asarray(sigma), np.swapaxes(sigma, 1, 2))
            continue
        seen.add(kind)
        if kind == "nonstochastic":
            assert np.max(np.abs(theta.sum(axis=0) - 1.0)) > 1e-3
        elif kind == "ranking":
            assert not oracle.ranked(theta)
        elif kind == "allen":
            assert not oracle.tensor_valid(sigma, theta)
        else:
            assert np.max(np.abs(np.asarray(sigma) - np.swapaxes(sigma, 1, 2))) > 0.1
        with pytest.raises(ews32.ValidationError):
            ews32.scenario_from_mapping(doc)
    assert seen == set(gen.INVALID_KINDS)


def test_oracle_on_reference_scenario():
    doc = gen.REFERENCE_DOC
    theta = np.asarray(doc["theta"])
    g = oracle.substitution(theta, doc["theta_sector"], gen.template_sigma(doc))
    s_prime, _, sign_t = oracle.ratio_vector(g)
    assert s_prime == pytest.approx(REFERENCE_S_PRIME, rel=1e-12)
    assert sign_t == 1

    report, text = ops.report(doc)
    assert report.subregion is ews32.Subregion.P2
    assert workloads.check_report(0, doc, (report, text)) == 0


def test_checks_catch_wrong_outputs():
    doc = gen.report_doc(2, 0)
    report, text = ops.report(doc)
    assert workloads.check_report(0, doc, (report, text)) == 0
    bent = report.rybczynski.copy()
    bent[0, 0] *= 1.0 + 1e-6
    assert workloads.check_report(0, doc, (dataclasses.replace(report, rybczynski=bent), text)) == 1
    assert workloads.check_report(0, doc, ews32.ValidationError("rejected")) == 1
    assert workloads.check_report(gen.INVALID_EVERY - 1, doc, (report, text)) == 1

    fig_doc = gen.figure_doc(2, 0)
    svg = ops.figure(ops.prepare("figure", fig_doc, gen.GRID_SPEC))
    assert workloads.check_figure(0, fig_doc, svg) == 0
    other = gen.figure_doc(2, 1)
    assert workloads.check_figure(0, other, svg) == 1


def test_reference_sweep_checks_clean():
    doc = gen.sweep_template(1, 0)
    rows, csv = ops.sweep(ops.prepare("sweep", doc, gen.GRID_SPEC))
    assert len(rows) == 4000
    assert sum(r["status"] == "ok" for r in rows) == 798
    assert workloads.check_sweep(0, doc, (rows, csv)) == 0
    rows[5] = dict(rows[5], status="ok" if rows[5]["status"] != "ok" else "rejected (symmetry)")
    assert workloads.check_sweep(0, doc, (rows, csv)) == 1


def _traced(fn):
    tracer = Tracer()
    with tracer:
        fn()
    return {f"{layer}.{name}": n for (layer, name), n in tracer.calls.items()}


def test_tracer_counts_per_report():
    calls = _traced(lambda: ops.report(gen.REFERENCE_DOC))
    assert calls["substitution.validate_aes"] == 3
    assert calls["statics.solve_responses"] == 6
    assert calls["statics.assemble_system"] == 3
    assert calls["statics.determinant_delta"] == 2
    assert calls["geometry.line_coefficients"] == 2
    assert calls["shares.check_intensity_ranking"] == 4
    assert calls["statics.rybczynski_matrix"] == 1


def test_tracer_counts_per_sweep_point_and_figure():
    inp = ops.prepare("sweep", gen.sweep_template(1, 0), gen.GRID_SPEC)
    calls = _traced(lambda: ops.sweep(inp))
    assert calls["substitution.validate_aes"] / 4000 == pytest.approx(1.19, abs=0.01)
    assert calls["sweep.sweep"] == 1 and calls["sweep.format_csv"] == 1

    scenario = ops.prepare("figure", gen.figure_doc(1, 0), gen.GRID_SPEC)
    calls = _traced(lambda: ops.figure(scenario))
    assert calls["geometry.boundary_value"] == 800
    assert calls["figure.render_figure"] == 1


def test_tracer_restores_the_library():
    import ews32.scenario

    before = (ews32.run_report, ews32.scenario.run_report, sys.modules["ews32.sweep"].sweep)
    with Tracer():
        assert ews32.run_report is not before[0]
        assert ews32.scenario.run_report is not before[1]
    assert (ews32.run_report, ews32.scenario.run_report, sys.modules["ews32.sweep"].sweep) == before


def test_tail_ignores_a_burst_in_a_minority_of_blocks():
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 2.0, 5000)
    steady, blocks = workloads.tail(values, 99)
    assert blocks == 5
    values[1000:1100] = 10.0  # one burst inside the second block
    assert workloads.tail(values, 99)[0] == pytest.approx(steady, rel=0.01)
    assert np.percentile(values, 99) > 5.0
    assert workloads.tail(values[:30], 50) == (np.median(values[:30]), 1)
