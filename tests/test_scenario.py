import json

import numpy as np
import pytest

from ews32 import (
    LABOR,
    LAND,
    AesTensor,
    DegenerateT,
    InvalidAes,
    ParseError,
    RankingViolation,
    Scenario,
    Subregion,
    cobb_douglas_aes,
    epsilon_from_aes,
    format_report,
    load_scenario,
    render_figure,
    run_report,
    sample_valid_aes,
    scenario_from_mapping,
)
from ews32 import scenario as scenario_module
from ews32 import substitution

from conftest import REFERENCE_SECTOR, REFERENCE_THETA

REFERENCE_DOC = {
    "name": "reference",
    "theta": REFERENCE_THETA,
    "theta_sector": REFERENCE_SECTOR,
    "sigma": "cobb-douglas",
    "shocks": [
        {"price": 1.0},
        {"endowments": [1.0, 0.0, 0.0]},
    ],
}


def write_scenario(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def degenerate_t_doc(table):
    """The reference document on a sampled tensor whose sector-1
    land-labor elasticity zeroes t = g[labor, land], the sum over
    sectors j of lam[labor, j] * theta[land, j] * sigma[j, land, labor];
    the diagonals are completed by homogeneity."""
    lam, theta = table.lam, table.theta
    sigma = sample_valid_aes(table, 0).sigma.copy()
    sigma[0, LAND, LABOR] = sigma[0, LABOR, LAND] = (
        -lam[LABOR, 1] * theta[LAND, 1] * sigma[1, LAND, LABOR] / (lam[LABOR, 0] * theta[LAND, 0])
    )
    for j in range(2):
        for i in range(3):
            sigma[j, i, i] = 0.0
            sigma[j, i, i] = -(sigma[j, i] @ theta[:, j]) / theta[i, j]
    return dict(REFERENCE_DOC, name="t-zero", sigma=sigma.tolist())


def test_file_round_trip(tmp_path, reference_table):
    path = write_scenario(tmp_path, REFERENCE_DOC)
    scenario = load_scenario(path)
    assert scenario.name == "reference"
    assert np.allclose(scenario.table.theta, reference_table.theta)
    assert len(scenario.shocks) == 2
    assert scenario.shocks[0].price_shock == 1.0
    assert scenario.shocks[1].endowment_shocks == (1.0, 0.0, 0.0)


def test_default_name_is_file_stem(tmp_path):
    doc = dict(REFERENCE_DOC)
    doc.pop("name")
    path = write_scenario(tmp_path, doc, name="north-sea.json")
    assert load_scenario(path).name == "north-sea"


def test_preset_expands_to_cobb_douglas(reference_table):
    scenario = scenario_from_mapping(dict(REFERENCE_DOC))
    assert np.allclose(
        scenario.aes.sigma, cobb_douglas_aes(reference_table).sigma, atol=1e-15
    )


def test_explicit_sigma_accepted(reference_table):
    doc = dict(REFERENCE_DOC)
    doc["sigma"] = cobb_douglas_aes(reference_table).sigma.tolist()
    scenario = scenario_from_mapping(doc)
    assert run_report(scenario).subregion is Subregion.P2


def test_parse_errors(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(bad_json)

    missing = dict(REFERENCE_DOC)
    missing.pop("sigma")
    with pytest.raises(ParseError):
        scenario_from_mapping(missing)

    unknown = dict(REFERENCE_DOC)
    unknown["elasticities"] = 1
    with pytest.raises(ParseError):
        scenario_from_mapping(unknown)

    bad_preset = dict(REFERENCE_DOC)
    bad_preset["sigma"] = "leontief"
    with pytest.raises(ParseError):
        scenario_from_mapping(bad_preset)

    bad_shape = dict(REFERENCE_DOC)
    bad_shape["theta"] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ParseError):
        scenario_from_mapping(bad_shape)

    bad_shock = dict(REFERENCE_DOC)
    bad_shock["shocks"] = [{"tariff": 1.0}]
    with pytest.raises(ParseError):
        scenario_from_mapping(bad_shock)

    # Shock values must be finite JSON numbers, not strings or booleans.
    for shock in (
        {"price": "abc"},
        {"price": "1.0"},
        {"price": True},
        {"price": float("nan")},
        {"endowments": [float("inf"), 0, 0]},
        {"endowments": [False, 0, 0]},
    ):
        bad_value = dict(REFERENCE_DOC)
        bad_value["shocks"] = [shock]
        with pytest.raises(ParseError):
            scenario_from_mapping(bad_value)

    nan_json = tmp_path / "nan.json"
    nan_json.write_text(json.dumps(dict(REFERENCE_DOC, shocks=[{"price": float("nan")}])))
    with pytest.raises(ParseError):
        load_scenario(nan_json)


def test_unranked_scenario_rejected():
    doc = dict(REFERENCE_DOC)
    doc["theta"] = [[0.20, 0.50], [0.50, 0.15], [0.30, 0.35]]
    with pytest.raises(RankingViolation):
        scenario_from_mapping(doc)


def test_invalid_sigma_rejected(reference_table):
    sigma = cobb_douglas_aes(reference_table).sigma.copy()
    sigma[0, 0, 0] = 1.0
    doc = dict(REFERENCE_DOC)
    doc["sigma"] = sigma.tolist()
    with pytest.raises(InvalidAes):
        scenario_from_mapping(doc)
    # A Scenario is valid by type, however it is built.
    with pytest.raises(InvalidAes):
        Scenario(name="direct", table=reference_table, aes=AesTensor(sigma=sigma))
    # The library entry point validates on its own.
    with pytest.raises(InvalidAes):
        epsilon_from_aes(AesTensor(sigma=sigma), reference_table)


def test_degenerate_vector_is_refused_at_construction(reference_table):
    sigma = np.array(degenerate_t_doc(reference_table)["sigma"])
    with pytest.raises(DegenerateT, match="^labor-land substitution is numerically zero"):
        Scenario(name="direct", table=reference_table, aes=AesTensor(sigma=sigma))


def test_scenario_validates_and_derives_g_once(monkeypatch):
    calls = {"validate_aes": 0, "ews_from_epsilon": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(substitution, "validate_aes")
    counted(scenario_module, "ews_from_epsilon")
    scenario = scenario_from_mapping(dict(REFERENCE_DOC))
    first = run_report(scenario)
    render_figure(scenario)
    second = run_report(scenario)
    assert calls == {"validate_aes": 1, "ews_from_epsilon": 1}
    assert first.ews is second.ews is scenario.ews


def test_run_report_reference():
    report = run_report(scenario_from_mapping(dict(REFERENCE_DOC)))
    assert report.subregion is Subregion.P2
    assert report.strong_result
    assert report.signs_agree
    assert report.vector.s_prime == pytest.approx(0.7093023255813954, rel=1e-12)
    assert report.vector.u_prime == pytest.approx(0.7497995188452286, rel=1e-12)
    assert report.vector.quadrant == 1
    assert report.delta.value == pytest.approx(-0.16003959742616733, rel=1e-12)
    assert report.max_residual < 1e-9
    assert len(report.responses) == 2


def test_report_internal_consistency():
    report = run_report(scenario_from_mapping(dict(REFERENCE_DOC)))
    # The numeric matrices carry exactly the tabled signs.
    for row, signs in zip(report.rybczynski, report.output_signs.entries):
        assert tuple(1 if v > 0 else -1 for v in row) == signs
    for row, signs in zip(report.stolper_samuelson, report.reward_signs.entries):
        assert tuple(1 if v > 0 else -1 for v in row) == signs
    # Output responses to a pure price shock match the solved system.
    price_shock, response = report.responses[0]
    assert price_shock.price_shock == 1.0
    assert response.w_hat == pytest.approx(report.stolper_samuelson[0], abs=1e-12)


def test_format_report_smoke():
    report = run_report(scenario_from_mapping(dict(REFERENCE_DOC)))
    text = format_report(report)
    assert "scenario: reference" in text
    assert "subregion: P2" in text
    assert "strong output response: yes" in text
    assert "numeric and tabled signs agree: yes" in text
    assert "quadrant 1" in text
    assert text.endswith("\n")
