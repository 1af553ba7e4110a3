"""Scenario files and end-to-end reports.

A scenario is a JSON document carrying the share structure, an Allen
tensor (or the "cobb-douglas" preset), and optional shocks. Building a
Scenario validates it and derives g, the ratio vector and its subregion
once; a report runs the rest of the pipeline on it: sign patterns,
numeric elasticities, and the oracle cross-checks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError
from .geometry import LineCoeffs, Subregion, _locate, line_coefficients
from .shares import ShareTable, build_share_table
from .statics import (
    DeltaReport,
    ResponseVector,
    ShockVector,
    SignPattern,
    _checked_statics,
    sign_pattern_lookup,
    strong_rybczynski,
)
from .substitution import (
    AesTensor,
    EwsMatrix,
    EwsRatioVector,
    cobb_douglas_aes,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_ratio_vector,
)

COBB_DOUGLAS_TAG = "cobb-douglas"

# Characters XML 1.0 cannot hold, which the figure would write verbatim:
# C0 controls other than tab, LF and CR, lone surrogates, U+FFFE, U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class Scenario:
    """A named model instance, checked and derived when built.

    Its ShareTable is ranked by construction. Building the Scenario
    derives the border lines, then g through epsilon_from_aes (which
    checks the Allen tensor and its completion, then analyses the
    completion), the ratio vector and its subregion, and keeps them,
    with the vector's offsets to the lines that run_report's factored
    cofactors read; aes stays as given, and shocks as a tuple. It raises
    ParseError for a name that is not a non-empty string XML 1.0 can
    hold, then ParseError for a table that is not a ShareTable, an aes
    that is not an AesTensor or shocks that are not a tuple or list of
    ShockVectors, then InvalidAes, DegenerateT, Infeasible or OnLine, in
    that order.
    """

    name: str
    table: ShareTable
    aes: AesTensor
    shocks: tuple[ShockVector, ...] = ()
    lines: LineCoeffs = field(init=False)
    ews: EwsMatrix = field(init=False)
    vector: EwsRatioVector = field(init=False)
    subregion: Subregion = field(init=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = self.name
        if not isinstance(name, str) or not name or _NOT_XML.search(name):
            raise ParseError(
                f"scenario name must be a non-empty string XML 1.0 can hold, got {name!r}"
            )
        table, aes, shocks, keep = self.table, self.aes, self.shocks, object.__setattr__
        if not isinstance(table, ShareTable):
            raise ParseError(f"scenario table must be a ShareTable, got {type(table).__name__}")
        if not isinstance(aes, AesTensor):
            raise ParseError(f"scenario aes must be an AesTensor, got {type(aes).__name__}")
        if not isinstance(shocks, (tuple, list)) or not all(
            isinstance(shock, ShockVector) for shock in shocks
        ):
            raise ParseError(f"scenario shocks must be a tuple or list of ShockVectors: {shocks!r}")
        keep(self, "shocks", tuple(shocks))
        keep(self, "lines", line_coefficients(table))
        keep(self, "ews", ews_from_epsilon(epsilon_from_aes(aes, table), table))
        keep(self, "vector", ews_ratio_vector(self.ews))
        region, offsets = _locate(self.vector, self.lines, table)
        keep(self, "subregion", region)
        keep(self, "_offsets", offsets)


@dataclass(frozen=True)
class Report:
    """Everything the pipeline derives from one scenario (signs_agree is always True)."""

    scenario_name: str
    ews: EwsMatrix
    vector: EwsRatioVector
    subregion: Subregion
    strong_result: bool
    output_signs: SignPattern
    reward_signs: SignPattern
    rybczynski: np.ndarray
    stolper_samuelson: np.ndarray
    delta: DeltaReport
    signs_agree: bool
    max_residual: float
    responses: tuple[tuple[ShockVector, ResponseVector], ...]


def scenario_from_mapping(doc: dict, default_name: str = "scenario") -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    known = {"name", "theta", "theta_sector", "sigma", "shocks"}
    unknown = set(doc) - known
    if unknown:
        raise ParseError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("theta", "theta_sector", "sigma"):
        if key not in doc:
            raise ParseError(f"scenario is missing required key {key!r}")

    table = build_share_table(doc["theta"], doc["theta_sector"])

    sigma = doc["sigma"]
    if isinstance(sigma, str):
        if sigma != COBB_DOUGLAS_TAG:
            raise ParseError(
                f"unknown sigma preset {sigma!r}; the only preset is {COBB_DOUGLAS_TAG!r}"
            )
        aes = cobb_douglas_aes(table)
    else:
        aes = AesTensor(sigma=sigma)

    shocks = []
    raw_shocks = doc.get("shocks", [])
    if not isinstance(raw_shocks, list):
        raise ParseError("shocks must be a list of objects")
    for k, raw in enumerate(raw_shocks):
        if not isinstance(raw, dict) or set(raw) - {"price", "endowments"}:
            raise ParseError(f"shock {k} must be an object with keys price/endowments")
        shocks.append(ShockVector(raw.get("price", 0.0), raw.get("endowments", (0.0, 0.0, 0.0))))
    return Scenario(name=doc.get("name", default_name), table=table, aes=aes, shocks=tuple(shocks))


def load_scenario(path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    # RecursionError: nesting deeper than the decoder's recursion limit.
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"scenario file is not valid UTF-8 JSON: {exc}") from exc
    return scenario_from_mapping(doc, default_name=Path(path).stem)


def run_report(scenario: Scenario) -> Report:
    """Run the full pipeline: _checked_statics holds the closed-form
    elasticities against the dense checks and their signs against the
    tabled signs of the subregion, then solves every shock, all in one
    solve call; its first failing check names the error."""
    region = scenario.subregion
    statics, responses = _checked_statics(
        scenario.table,
        scenario.ews,
        scenario.vector,
        scenario.lines,
        scenario._offsets,
        region,
        scenario.shocks,
    )
    # np.max propagates a NaN residual; the builtin max can drop it.
    max_residual = float(np.max([r.residual for r in responses], initial=0.0))

    return Report(
        scenario_name=scenario.name,
        ews=scenario.ews,
        vector=scenario.vector,
        subregion=region,
        strong_result=strong_rybczynski(region),
        output_signs=sign_pattern_lookup(region, "rybczynski"),
        reward_signs=sign_pattern_lookup(region, "stolper_samuelson"),
        rybczynski=statics.rybczynski,
        stolper_samuelson=statics.stolper_samuelson,
        delta=statics.delta,
        signs_agree=True,
        max_residual=max_residual,
        responses=tuple(zip(scenario.shocks, responses)),
    )


_ROW = "  %+.6f  %+.6f  %+.6f\n"
_SIGNS = "  %s %s %s\n"
# Every ShareTable is ranked, a built Scenario's tensor is valid, and
# run_report raises unless the signs agree.
_REPORT = (
    "scenario: %s\n"
    "ranking checks: intensity pass, middle factor pass\n"
    "allen tensor valid: yes\n"
    "economy-wide substitution (rows/cols land, capital, labor):\n"
    + _ROW * 3
    + "ratio vector: s'=%.6f u'=%.6f denominator sign %s (quadrant %s)\n"
    "subregion: %s\n"
    "strong output response: %s\n"
    "output-response signs (sectors x factors):\n"
    + _SIGNS * 2
    + "real-reward signs (deflators x factors):\n"
    + _SIGNS * 2
    + "output elasticities:\n"
    + _ROW * 2
    + "real-reward elasticities:\n"
    + _ROW * 2
    + "system determinant: %.9g\n"
    "numeric and tabled signs agree: yes\n"
)
_RESPONSE = (
    "shock price=%+.4f endowments=(%+.4f, %+.4f, %+.4f)\n"
    "  rewards (%+.6f, %+.6f, %+.6f)  outputs (%+.6f, %+.6f)\n"
)


def format_report(report: Report) -> str:
    """Plain-text rendering of a report."""
    v = report.vector
    signs = report.output_signs.entries + report.reward_signs.entries
    text = _REPORT % (
        report.scenario_name,
        *report.ews.g.ravel().tolist(),
        v.s_prime,
        v.u_prime,
        "+" if v.sign_t > 0 else "-",
        v.quadrant,
        report.subregion.value,
        "yes" if report.strong_result else "no",
        *["+" if s > 0 else "-" for row in signs for s in row],
        *report.rybczynski.ravel().tolist(),
        *report.stolper_samuelson.ravel().tolist(),
        report.delta.value,
    )
    if not report.responses:
        return text
    values = []
    for shock, response in report.responses:
        values += (shock.price_shock, *shock.endowment_shocks, *response.w_hat, *response.x_hat)
    return (
        text
        + "worst solve residual: %.3e\n" % report.max_residual
        + _RESPONSE * len(report.responses) % tuple(values)
    )
