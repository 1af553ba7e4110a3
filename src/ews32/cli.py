"""Command-line interface.

Verbs: validate, report, figure, sweep. Exit codes: 0 success, 2 for
invalid input (bad file, failed assumption), 1 for internal errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import Ews32Error, ValidationError
from .figure import render_figure
from .scenario import format_report, load_scenario, run_report
from .sweep import format_csv, parse_grid, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ews32",
        description=(
            "Economy-wide substitution, subregion classification, and "
            "output/price sign patterns for a three-factor two-good economy"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a scenario file against all assumptions")
    p.add_argument("file")

    p = sub.add_parser("report", help="full pipeline report for a scenario")
    p.add_argument("file")

    p = sub.add_parser("figure", help="render the ratio-vector plane to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True, help="output SVG path")

    p = sub.add_parser("sweep", help="classify a grid of Allen elasticities")
    p.add_argument("file")
    p.add_argument(
        "--grid",
        required=True,
        help="comma-separated key=lo:hi:count clauses, e.g. land_capital_1=-2:2:5",
    )
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.file)
        if args.verb == "validate":
            print(f"scenario {scenario.name!r}: all assumptions hold")
            return 0
        if args.verb == "report":
            sys.stdout.write(format_report(run_report(scenario)))
            return 0
        if args.verb == "figure":
            Path(args.out).write_text(render_figure(scenario), encoding="utf-8")
            print(f"wrote {args.out}")
            return 0
        if args.verb == "sweep":
            rows = sweep(scenario, parse_grid(args.grid))
            Path(args.out).write_text(format_csv(rows), encoding="utf-8")
            accepted = int(np.count_nonzero(rows.status == "ok"))
            print(f"wrote {args.out}: {len(rows)} rows, {accepted} classified")
            return 0
        raise AssertionError(f"unhandled verb {args.verb!r}")
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Ews32Error as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
