"""Scenario files and end-to-end reports.

A scenario is a JSON document carrying the share structure, an Allen
tensor (or the "cobb-douglas" preset), and optional shocks. Building a
Scenario validates it and derives g, the ratio vector and its subregion
once; a report runs the rest of the pipeline on it: sign patterns,
numeric elasticities, and the oracle cross-checks.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError
from .geometry import LineCoeffs, Subregion, classify_subregion, line_coefficients
from .shares import ShareTable, build_share_table
from .statics import (
    DeltaReport,
    ResponseVector,
    ShockVector,
    SignPattern,
    _contradicts_tables,
    _sign_mismatch,
    _signs,
    comparative_statics,
    sign_pattern_lookup,
    solve_responses,
    strong_rybczynski,
)
from .substitution import (
    AesTensor,
    EwsMatrix,
    EwsRatioVector,
    _checked_epsilon,
    cobb_douglas_aes,
    ews_from_epsilon,
    ews_ratio_vector,
    require_valid_aes,
)

COBB_DOUGLAS_TAG = "cobb-douglas"

# Characters XML 1.0 cannot hold, which the figure would write verbatim:
# C0 controls other than tab, LF and CR, lone surrogates, U+FFFE, U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class Scenario:
    """A named model instance, checked and derived when built.

    Construction derives the border lines (checking the ranking), checks
    the Allen tensor, then derives g, the ratio vector and its
    subregion, and keeps them: it raises RankingViolation, InvalidAes,
    DegenerateT, Infeasible or OnLine, in that order of checking.
    """

    name: str
    table: ShareTable
    aes: AesTensor
    shocks: tuple[ShockVector, ...] = ()
    lines: LineCoeffs = field(init=False)
    ews: EwsMatrix = field(init=False)
    vector: EwsRatioVector = field(init=False)
    subregion: Subregion = field(init=False)

    def __post_init__(self):
        table, keep = self.table, object.__setattr__
        keep(self, "lines", line_coefficients(table))
        require_valid_aes(self.aes, table)
        keep(self, "ews", ews_from_epsilon(_checked_epsilon(self.aes, table), table))
        keep(self, "vector", ews_ratio_vector(self.ews))
        keep(self, "subregion", classify_subregion(self.vector, self.lines, table))


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


def _finite_numbers(value) -> bool:
    # Leaf by leaf, because numpy reads true as 1.0 and "1.5" as 1.5.
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(map(_finite_numbers, value))
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _as_float_grid(value, shape, what: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be numeric: {exc}") from exc
    if arr.shape != shape:
        raise ParseError(f"{what} must have shape {shape}, got {arr.shape}")
    if not _finite_numbers(value):
        raise ParseError(f"{what} must hold finite numbers, not booleans or strings")
    return arr


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

    name = doc.get("name", default_name)
    if not isinstance(name, str) or not name or _NOT_XML.search(name):
        raise ParseError(f"scenario name must be a non-empty string XML 1.0 can hold, got {name!r}")

    theta = _as_float_grid(doc["theta"], (3, 2), "theta")
    theta_sector = _as_float_grid(doc["theta_sector"], (2,), "theta_sector")
    table = build_share_table(theta, theta_sector)

    sigma = doc["sigma"]
    if isinstance(sigma, str):
        if sigma != COBB_DOUGLAS_TAG:
            raise ParseError(
                f"unknown sigma preset {sigma!r}; the only preset is {COBB_DOUGLAS_TAG!r}"
            )
        aes = cobb_douglas_aes(table)
    else:
        aes = AesTensor(sigma=_as_float_grid(sigma, (2, 3, 3), "sigma"))

    shocks = []
    raw_shocks = doc.get("shocks", [])
    if not isinstance(raw_shocks, list):
        raise ParseError("shocks must be a list of objects")
    for k, raw in enumerate(raw_shocks):
        if not isinstance(raw, dict) or set(raw) - {"price", "endowments"}:
            raise ParseError(f"shock {k} must be an object with keys price/endowments")
        price = float(_as_float_grid(raw.get("price", 0.0), (), "price"))
        endow = _as_float_grid(raw.get("endowments", (0.0, 0.0, 0.0)), (3,), "endowments")
        shocks.append(
            ShockVector(price_shock=price, endowment_shocks=tuple(float(v) for v in endow))
        )
    return Scenario(name=name, table=table, aes=aes, shocks=tuple(shocks))


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
    """Run the full pipeline; ClosedFormMismatch unless the signs of the
    closed-form elasticities are the tabled signs of the subregion."""
    region = scenario.subregion
    statics = comparative_statics(scenario.table, scenario.ews, scenario.vector, scenario.lines)
    signs = _signs(np.concatenate((statics.rybczynski, statics.stolper_samuelson)))
    disagree, tabled = _contradicts_tables(signs, (region,), 0)
    if disagree:
        raise _sign_mismatch(region, signs, tabled)

    responses = tuple(
        (shock, solve_responses(statics.system, shock)) for shock in scenario.shocks
    )
    # np.max propagates a NaN residual; the builtin max can drop it.
    max_residual = float(np.max([r.residual for _, r in responses], initial=0.0))

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
        responses=responses,
    )


def _sign_row(row) -> str:
    return " ".join("+" if v > 0 else "-" for v in row)


def _matrix_rows(arr: np.ndarray) -> list[str]:
    return ["  ".join(f"{v:+.6f}" for v in row) for row in np.asarray(arr).tolist()]


def format_report(report: Report) -> str:
    """Plain-text rendering of a report."""
    lines = [f"scenario: {report.scenario_name}"]
    # A built Scenario has passed both checks.
    lines.append("ranking checks: intensity pass, middle factor pass")
    lines.append("allen tensor valid: yes")
    lines.append("economy-wide substitution (rows/cols land, capital, labor):")
    lines += ["  " + row for row in _matrix_rows(report.ews.g)]
    v = report.vector
    lines.append(
        f"ratio vector: s'={v.s_prime:.6f} u'={v.u_prime:.6f} "
        f"denominator sign {'+' if v.sign_t > 0 else '-'} (quadrant {v.quadrant})"
    )
    lines.append(f"subregion: {report.subregion.value}")
    lines.append(f"strong output response: {'yes' if report.strong_result else 'no'}")
    lines.append("output-response signs (sectors x factors):")
    lines += ["  " + _sign_row(r) for r in report.output_signs.entries]
    lines.append("real-reward signs (deflators x factors):")
    lines += ["  " + _sign_row(r) for r in report.reward_signs.entries]
    lines.append("output elasticities:")
    lines += ["  " + row for row in _matrix_rows(report.rybczynski)]
    lines.append("real-reward elasticities:")
    lines += ["  " + row for row in _matrix_rows(report.stolper_samuelson)]
    lines.append(f"system determinant: {report.delta.value:.9g}")
    lines.append(f"numeric and tabled signs agree: {'yes' if report.signs_agree else 'NO'}")
    if report.responses:
        lines.append(f"worst solve residual: {report.max_residual:.3e}")
        for shock, response in report.responses:
            lines.append(
                f"shock price={shock.price_shock:+.4f} "
                f"endowments=({', '.join(f'{e:+.4f}' for e in shock.endowment_shocks)})"
            )
            w = ", ".join(f"{x:+.6f}" for x in response.w_hat)
            x = ", ".join(f"{x:+.6f}" for x in response.x_hat)
            lines.append(f"  rewards ({w})  outputs ({x})")
    return "\n".join(lines) + "\n"
