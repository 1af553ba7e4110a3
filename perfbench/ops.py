"""One operation of each workload, through the public calls the CLI verbs
make. Every call is looked up on the ews32 package when it runs, so the
tracer's rebinding reaches it.
"""

from __future__ import annotations

import ews32


def report(doc: dict):
    """`ews32 report`: parse and validate, run the pipeline, format."""
    report = ews32.run_report(ews32.scenario_from_mapping(doc))
    return report, ews32.format_report(report)


def sweep(item):
    """`ews32 sweep` on a prepared (scenario, grid) pair."""
    scenario, grid = item
    rows = ews32.sweep(scenario, grid)
    return rows, ews32.format_csv(rows)


def figure(scenario):
    """`ews32 figure` on a prepared scenario."""
    return ews32.render_figure(scenario)


def prepare(workload: str, doc: dict, grid_spec: str):
    """Turn a generated document into the input of one operation."""
    if workload == "report":
        return doc
    scenario = ews32.scenario_from_mapping(doc)
    if workload == "sweep":
        return scenario, ews32.parse_grid(grid_spec)
    return scenario


OPS = {"report": report, "sweep": sweep, "figure": figure}
