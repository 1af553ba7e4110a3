import json
from xml.etree import ElementTree

import pytest

import ews32.cli
from ews32 import ConsistencyError, Subregion
from ews32.cli import main
from ews32.statics import RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS

from test_scenario import REFERENCE_DOC, degenerate_t_doc, write_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(REFERENCE_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture
def unranked_file(tmp_path):
    doc = dict(REFERENCE_DOC)
    doc["theta"] = [[0.20, 0.50], [0.50, 0.15], [0.30, 0.35]]
    path = tmp_path / "unranked.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", scenario_file]) == 0
    assert "all assumptions hold" in capsys.readouterr().out


def test_validate_unranked(unranked_file, capsys):
    assert main(["validate", unranked_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:")


def test_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "io error" in capsys.readouterr().err


def test_report(scenario_file, capsys):
    assert main(["report", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "subregion: P2" in out
    assert "numeric and tabled signs agree: yes" in out


def test_figure(scenario_file, tmp_path, capsys):
    out = tmp_path / "plane.svg"
    assert main(["figure", scenario_file, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("<svg ")
    assert f"wrote {out}" in capsys.readouterr().out


def test_sweep(scenario_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["sweep", scenario_file, "--grid", "land_capital_1=-3:3:7", "-o", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8
    assert "7 rows, 4 classified" in capsys.readouterr().out


def test_sweep_bad_grid(scenario_file, tmp_path, capsys):
    code = main(["sweep", scenario_file, "--grid", "bogus=-1:1:3", "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_internal_error_exit_code(scenario_file, capsys, monkeypatch):
    def boom(scenario):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr(ews32.cli, "run_report", boom)
    assert main(["report", scenario_file]) == 1
    assert "internal error: routes disagree" in capsys.readouterr().err


@pytest.mark.parametrize("price, code", [(1e307, 0), (5e307, 2), (1e308, 2)])
def test_report_refuses_a_shock_whose_response_overflows(tmp_path, capsys, price, code):
    path = tmp_path / "huge-shock.json"
    path.write_text(json.dumps(dict(REFERENCE_DOC, shocks=[{"price": price}])), encoding="utf-8")
    assert main(["report", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "numeric and tabled signs agree: yes" in out
    else:
        assert err.startswith(f"invalid input: the response to ShockVector(price_shock={price!r},")


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 3000 + b"]" * 3000],
    ids=["not-utf8", "nested-past-recursion-limit"],
)
def test_unreadable_document_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: scenario file is not valid UTF-8 JSON")


@pytest.mark.parametrize("table", [RYBCZYNSKI_SIGNS, STOLPER_SAMUELSON_SIGNS], ids=["ryb", "ss"])
def test_report_exits_1_on_a_wrong_table(scenario_file, capsys, monkeypatch, table):
    (top, bottom) = table[Subregion.P2]
    monkeypatch.setitem(table, Subregion.P2, ((-top[0],) + top[1:], bottom))
    assert main(["report", scenario_file]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: computed signs contradict the tabled signs of P2: ")


@pytest.mark.parametrize(
    "name", ["a\u0001b", "a\ud800b", "a\uffffb"], ids=["c0", "surrogate", "ffff"]
)
@pytest.mark.parametrize("verb", ["validate", "report", "figure"])
def test_name_xml_cannot_hold_is_a_parse_error(tmp_path, capsys, name, verb):
    # json.dumps writes each as a \u escape, so the file itself is ASCII.
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(REFERENCE_DOC, name=name)), encoding="utf-8")
    out = tmp_path / "plane.svg"
    assert main([verb, str(path)] + (["-o", str(out)] if verb == "figure" else [])) == 2
    assert capsys.readouterr().err.startswith("invalid input: scenario name ")
    assert not out.exists()


def test_name_with_tab_and_newline_still_renders(tmp_path):
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(REFERENCE_DOC, name="a\tb\nc\u00e9")), encoding="utf-8")
    out = tmp_path / "plane.svg"
    assert main(["figure", str(path), "-o", str(out)]) == 0
    ElementTree.parse(out)


@pytest.mark.parametrize("verb", ["validate", "report", "figure", "sweep"])
def test_every_verb_refuses_a_degenerate_vector(tmp_path, capsys, reference_table, verb):
    path = write_scenario(tmp_path, degenerate_t_doc(reference_table))
    out = tmp_path / "out"
    options = {
        "figure": ["-o", str(out)],
        "sweep": ["--grid", "land_capital_1=-2:2:5", "-o", str(out)],
    }
    assert main([verb, str(path), *options.get(verb, [])]) == 2
    assert capsys.readouterr() == (
        "",
        "invalid input: labor-land substitution is numerically zero; "
        "the ratio vector is undefined\n",
    )
    assert not out.exists()
