"""The summary arithmetic of tools/bench.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench", Path(__file__).parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_quartiles_interpolate_between_runs():
    assert bench.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench.quartiles([2.0, 1.0]) == {"q1": 1.25, "median": 1.5, "q3": 1.75}


def _runs(workload, seed, parent, change):
    """Runs of each pair in the order bench.alternate makes them: the
    parent first in odd pairs."""
    runs = []
    for pair, metrics in enumerate(zip(parent, change), start=1):
        sides = list(zip(bench.SIDES, metrics))
        for side, values in sides if pair % 2 else sides[::-1]:
            runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, "metrics": values})
    return runs


def test_summary_of_synthetic_runs():
    # Pair 3 ties on both metrics, so it counts for neither side.
    parent = [{"rss": 10.0, "rate": 100.0}, {"rss": 12.0, "rate": 90.0}, {"rss": 11.0, "rate": 95.0},
              {"rss": 13.0, "rate": 80.0}, {"rss": 9.0, "rate": 70.0}]
    change = [{"rss": 9.0, "rate": 110.0}, {"rss": 11.5, "rate": 80.0}, {"rss": 11.0, "rate": 95.0},
              {"rss": 12.0, "rate": 85.0}, {"rss": 9.5, "rate": 75.0}]
    other = [{"rss": 1.0, "rate": 1.0}, {"rss": 3.0, "rate": 3.0}]
    runs = _runs("report", 23, parent, change) + _runs("figure", 7, other, other[::-1])
    summary = bench.summarize(runs, {"rss": "lower", "rate": "higher"})

    assert set(summary) == {"report", "figure"} and set(summary["report"]) == {"23"}
    rss, rate = summary["report"]["23"]["rss"], summary["report"]["23"]["rate"]
    assert rss["parent"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
    assert rss["change"] == {"q1": 9.5, "median": 11.0, "q3": 11.5}
    assert (rss["change_over_parent"], rss["change_better_pairs"], rss["pairs"]) == (1.0, 3, 5)
    assert rate["parent"] == {"q1": 80.0, "median": 90.0, "q3": 95.0}
    assert rate["change"] == {"q1": 80.0, "median": 85.0, "q3": 95.0}
    assert rate["change_over_parent"] == pytest.approx(85.0 / 90.0)
    assert (rate["change_better_pairs"], rate["pairs"]) == (3, 5)
    # Reversed values: the same quartiles, one pair won a side.
    rss = summary["figure"]["7"]["rss"]
    assert rss["parent"] == rss["change"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert (rss["change_over_parent"], rss["change_better_pairs"], rss["pairs"]) == (1.0, 1, 2)
    assert summary["figure"]["7"]["rate"]["change_better_pairs"] == 1
