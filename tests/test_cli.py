import contextlib
import copy
import io
import itertools
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ews32.cli
from ews32 import (
    ConsistencyError,
    Subregion,
    build_share_table,
    cobb_douglas_aes,
    load_scenario,
    parse_grid,
    render_figure,
    sample_valid_aes,
    sweep,
)
from ews32.cli import main
from ews32.substitution import IDENTITY_TOL

from conftest import (
    DET_OVERFLOW_DOC,
    QC_EDGE_SIGMA,
    REFERENCE_SECTOR,
    REFERENCE_THETA,
    ROUNDED_SIGMAS,
    patch_wrong_table,
    random_ranked_table,
    reference_csv,
)
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


def test_report(scenario_file, tmp_path, capsys):
    assert main(["report", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "\nsubregion: P2\n" in out
    assert "\nstrong output response: yes\n" in out
    assert "\nnumeric and tabled signs agree: yes\n" in out
    # Shocks written as JSON integers read as the same numbers.
    integers = dict(REFERENCE_DOC, shocks=[{"price": 1}, {"endowments": [1, 0, 0]}])
    assert main(["report", str(write_scenario(tmp_path, integers))]) == 0
    assert capsys.readouterr() == (out, "")


def test_figure(scenario_file, tmp_path, capsys):
    out = tmp_path / "plane.svg"
    assert main(["figure", scenario_file, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("<svg ")
    assert f"wrote {out}" in capsys.readouterr().out
    ElementTree.parse(out)


def test_file_output_matches_return(scenario_file, tmp_path):
    # render_figure returns the SVG; the CLI writes it.
    out = tmp_path / "plane.svg"
    assert main(["figure", scenario_file, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == render_figure(load_scenario(scenario_file))


def test_sweep(scenario_file, tmp_path, capsys):
    # The benchmark's 4,000-point grid: the file is the cell-by-cell
    # reference CSV of the library's rows, and the CLI's classified count
    # is the number of rows that end in ok.
    spec = "land_capital_1=-2:2:20,land_labor_1=-2:2:20,capital_labor_2=-2:2:10"
    out = tmp_path / "perf.csv"
    assert main(["sweep", scenario_file, "--grid", spec, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == reference_csv(sweep(load_scenario(scenario_file), parse_grid(spec)))
    classified = text.count(",ok\n")
    assert capsys.readouterr() == (f"wrote {out}: 4000 rows, {classified} classified\n", "")


def test_sweep_bad_grid(scenario_file, tmp_path, capsys):
    code = main(["sweep", scenario_file, "--grid", "bogus=-1:1:3", "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


REJECTED = "rejected (own-negativity/quasi-concavity)"


@pytest.mark.parametrize(
    "spec, axes, classified",
    [
        # One key in each sector, whose tensors the sweep builds and checks
        # per sector.
        (
            "land_capital_1=-3:3:7,capital_labor_2=0.5:1.5:3",
            {"land_capital_1": [-3, -2, -1, 0, 1, 2, 3], "capital_labor_2": [0.5, 1, 1.5]},
            12,
        ),
        # Two keys in each sector, so the sweep joins two multi-key sector
        # stacks; the 4 rows that join a valid tensor of each are classified.
        (
            "land_capital_1=-3:1:2,land_labor_1=0.5:1:2,land_labor_2=0.5:1:2,capital_labor_2=-2:1:2",
            {
                "land_capital_1": [-3, 1],
                "land_labor_1": [0.5, 1],
                "land_labor_2": [0.5, 1],
                "capital_labor_2": [-2, 1],
            },
            4,
        ),
        # One key: a negative land-capital elasticity leaves sector 1's
        # tensor invalid.
        ("land_capital_1=-2:2:5", {"land_capital_1": [-2, -1, 0, 1, 2]}, 3),
        ("land_capital_1=-3:3:7", {"land_capital_1": [-3, -2, -1, 0, 1, 2, 3]}, 4),
        # Sector 2's tensors are valid but sector 1's are not, so no point is.
        (
            "land_capital_1=-3:-2:2,capital_labor_2=0.5:1.5:3",
            {"land_capital_1": [-3, -2], "capital_labor_2": [0.5, 1, 1.5]},
            0,
        ),
    ],
    ids=["two-keys", "four-keys", "one-key", "mixed", "none"],
)
def test_each_grid_row_is_the_row_of_its_one_point_sweep(
    scenario_file, tmp_path, capsys, spec, axes, classified
):
    # A grid's rows, in grid key order, are byte for byte the rows of
    # one-point sweeps at each point, whether the digit writer certifies
    # the grid's values and each point's or one of them falls back to "%".
    # Every point not classified is refused by the Allen-tensor checks.
    out = tmp_path / "grid.csv"
    assert main(["sweep", scenario_file, "--grid", spec, "-o", str(out)]) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines(keepends=True)
    points = list(itertools.product(*axes.values()))
    assert capsys.readouterr().out == f"wrote {out}: {len(points)} rows, {classified} classified\n"
    statuses = [row.rsplit(",", 1)[1] for row in rows]
    assert statuses.count("ok\n") == classified
    assert statuses.count(f"{REJECTED}\n") == len(points) - classified
    one = tmp_path / "point.csv"
    alone = []
    for point in points:
        grid = ",".join(f"{key}={v}:{v}:1" for key, v in zip(axes, point))
        assert main(["sweep", scenario_file, "--grid", grid, "-o", str(one)]) == 0
        first, row = one.read_text(encoding="utf-8").splitlines(keepends=True)
        assert first == header
        alone.append(row)
    assert rows == alone


def test_internal_error_exit_code(scenario_file, capsys, monkeypatch):
    def boom(scenario):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr(ews32.cli, "run_report", boom)
    assert main(["report", scenario_file]) == 1
    assert "internal error: routes disagree" in capsys.readouterr().err


@pytest.mark.parametrize("price, code", [(1e307, 0), (5e307, 2), (1e308, 2)])
def test_report_refuses_a_shock_whose_response_overflows(tmp_path, capsys, price, code):
    # Alone or as the second of three shocks: a refusal writes no report,
    # and its one line names that shock, as when each shock had its own
    # solve.
    message = (
        f"invalid input: the response to ShockVector(price_shock={price!r}, "
        "endowment_shocks=(0.0, 0.0, 0.0)) overflows floating point\n"
    )
    alone = [{"price": price}]
    for shocks in (alone, [{"price": 1.0}, *alone, {"endowments": [1, 0, 0]}]):
        path = write_scenario(tmp_path, dict(REFERENCE_DOC, shocks=shocks))
        assert main(["report", str(path)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert "numeric and tabled signs agree: yes" in out and err == ""
        else:
            assert (out, err) == ("", message)


NOT_JSON = "scenario file is not valid UTF-8 JSON"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", NOT_JSON),
        (b"[" * 3000 + b"]" * 3000, NOT_JSON),
        (b"[1]", "scenario document must be a JSON object"),
        (json.dumps(dict(REFERENCE_DOC, shocks={})).encode(), "shocks must be a list of objects"),
        (
            json.dumps(dict(REFERENCE_DOC, theta_sector=[0.6, "0.4"])).encode(),
            "theta_sector must hold finite numbers, not booleans or strings",
        ),
        (
            json.dumps(dict(REFERENCE_DOC, sigma=[[-1.0, 1.0, 1.0]] * 3)).encode(),
            "sigma must have shape (2, 3, 3), got (3, 3)",
        ),
    ],
    ids=[
        "not-utf8",
        "nested-past-recursion-limit",
        "not-an-object",
        "shocks-not-a-list",
        "string-share",
        "flat-sigma",
    ],
)
def test_unreadable_document_is_a_parse_error(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"invalid input: {message}") and err.count("\n") == 1
    # After NOT_JSON the one line goes on with the decoder's own words.
    assert message == NOT_JSON or err == f"invalid input: {message}\n"


@pytest.mark.parametrize("row", [0, 2], ids=["ryb", "ss"])
def test_report_exits_1_on_a_wrong_table(scenario_file, capsys, monkeypatch, row):
    patch_wrong_table(monkeypatch, Subregion.P2, row)
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


@pytest.mark.parametrize("verb", ["validate", "report", "figure", "sweep"])
def test_every_verb_refuses_a_tensor_whose_completion_fails(tmp_path, capsys, verb):
    # The tensor as stated passes every check; the completion that every
    # verb would analyse fails quasi-concavity, as the sweep finds at the
    # template's own point.
    path = write_scenario(tmp_path, dict(REFERENCE_DOC, name="qc-edge", sigma=QC_EDGE_SIGMA))
    out = tmp_path / "out"
    point = "land_capital_1=-0.5384615384615385:-0.5384615384615385:1"
    options = {"figure": ["-o", str(out)], "sweep": ["--grid", point, "-o", str(out)]}
    assert main([verb, str(path), *options.get(verb, [])]) == 2
    assert capsys.readouterr() == (
        "",
        "invalid input: Allen tensor invalid: quasi-concavity (sector 1)\n",
    )
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e155, 1e158])
def test_an_overflowing_tensor_writes_one_line_to_stderr(tmp_path, reference_table, scale):
    # The Cobb-Douglas reference with every elasticity scaled: past about
    # 1e154 the Allen and g minors overflow (ROADMAP item 11). Each verb,
    # as a user runs it, writes its one message and no numpy warning.
    sigma = (np.asarray(cobb_douglas_aes(reference_table).sigma) * scale).tolist()
    path = write_scenario(tmp_path, dict(REFERENCE_DOC, sigma=sigma))
    out = str(tmp_path / "out")
    options = {"figure": ["-o", out], "sweep": ["--grid", "land_capital_1=1:1:1", "-o", out]}
    env = {"PYTHONPATH": str(Path(ews32.cli.__file__).parents[1])}
    for verb in ("validate", "report", "sweep", "figure"):
        done = subprocess.run(
            [sys.executable, "-m", "ews32.cli", verb, str(path), *options.get(verb, [])],
            capture_output=True,
            text=True,
            env=env,
        )
        prefix = {1: "internal error: ", 2: "invalid input: "}[done.returncode]
        assert done.stderr.startswith(prefix) and done.stderr.count("\n") == 1, done.stderr



def test_an_overflowing_determinant_writes_one_line_to_stderr(tmp_path):
    # The dense determinant overflows where the closed forms do not: the
    # report exits 1 with its one message and no numpy warning ahead of it.
    path = write_scenario(tmp_path, DET_OVERFLOW_DOC)
    env = {"PYTHONPATH": str(Path(ews32.cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ews32.cli", "report", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("internal error: determinant routes disagree: dense -inf, ")
    assert done.stderr.count("\n") == 1, done.stderr

SWAPPED_DOC = dict(REFERENCE_DOC, theta=[row[::-1] for row in REFERENCE_DOC["theta"]])
INTENSITY_MESSAGE = (
    "factor-intensity ranking violated: need strict "
    "land-share ratio > labor-share ratio > capital-share ratio across sectors"
)


@pytest.mark.parametrize(
    "second_fault, message",
    [
        ({"theta_sector": [1.5, -0.5]}, "every sector share must lie strictly between 0 and 1"),
        ({"theta_sector": [0.6, 0.5]}, "sector shares must sum to 1, got 1.1"),
        ({"sigma": "leontief"}, INTENSITY_MESSAGE),
        ({"sigma": [[[0.0] * 3] * 3] * 2}, INTENSITY_MESSAGE),
        ({}, INTENSITY_MESSAGE),
    ],
    ids=["out-of-range-share", "sector-sum", "unknown-preset", "invalid-allen-tensor", "ranking"],
)
def test_share_faults_are_reported_first(tmp_path, capsys, second_fault, message):
    # Range, then column sums, then the ranking, all before sigma is read.
    path = write_scenario(tmp_path, dict(SWAPPED_DOC, **second_fault))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")


@pytest.mark.parametrize(
    "doc, point, subregion",
    [
        (REFERENCE_DOC, "land_capital_1=1:1:1", "P2"),
        (
            dict(REFERENCE_DOC, name="seed-201", sigma=ROUNDED_SIGMAS[201]),
            "land_capital_1=2.944402469:2.944402469:1",
            "P3",
        ),
    ],
    ids=["reference", "seed-201"],
)
def test_a_valid_document_passes_every_verb(tmp_path, capsys, doc, point, subregion):
    # validate and report accept the document, and a one-point sweep at
    # the template's own point classifies it as the report does.
    path = str(write_scenario(tmp_path, doc))
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == (f"scenario '{doc['name']}': all assumptions hold\n", "")
    assert main(["report", path]) == 0
    report, err = capsys.readouterr()
    assert err == "" and f"\nsubregion: {subregion}\nstrong output response: yes\n" in report
    csv = tmp_path / "point.csv"
    assert main(["sweep", path, "--grid", point, "-o", str(csv)]) == 0
    assert capsys.readouterr() == (f"wrote {csv}: 1 rows, 1 classified\n", "")
    assert csv.read_text(encoding="utf-8").endswith(f",+,{subregion},true,ok\n")


def _run(argv):
    """main's exit code, stdout and stderr, without pytest fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def perturbed_docs(draw):
    """A ranked table and a sampled valid tensor, written the way a user
    might: every entry rounded to 10 significant digits, or each own
    elasticity moved by up to the identity tolerance."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    sigma = sample_valid_aes(table, draw(seeds)).sigma.copy()
    if draw(st.booleans()):
        sigma = np.array([float(f"{v:.10g}") for v in sigma.ravel()]).reshape(sigma.shape)
    else:
        for j in range(2):
            for i in range(3):
                sigma[j, i, i] += draw(st.floats(-IDENTITY_TOL, IDENTITY_TOL))
    return {
        "name": "perturbed",
        "theta": table.theta.tolist(),
        "theta_sector": table.theta_sector.tolist(),
        "sigma": sigma.tolist(),
        "shocks": [{"price": 1.0}, {"endowments": [1.0, 0.0, 0.0]}],
    }


@given(perturbed_docs())
@example(dict(REFERENCE_DOC, name="seed-201", sigma=ROUNDED_SIGMAS[201]))
@example(dict(REFERENCE_DOC, name="seed-252", sigma=ROUNDED_SIGMAS[252]))
@settings(max_examples=300)
def test_a_document_that_validates_never_exits_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = _run(["validate", str(path)])
        if code != 0:
            assert (code, err.startswith("invalid input: ")) == (2, True)
            return
        code, report, err = _run(["report", str(path)])
        assert (code, err) == (0, "")
        # The template's own point, through the sweep.
        value = doc["sigma"][0][0][1]
        csv = Path(tmp) / "grid.csv"
        grid = f"land_capital_1={value!r}:{value!r}:1"
        code, _, err = _run(["sweep", str(path), "--grid", grid, "-o", str(csv)])
        assert (code, err) == (0, "")
        row = dict(zip(*(line.split(",") for line in csv.read_text().splitlines())))
        assert row["status"] == "ok"
        assert f"subregion: {row['subregion']}\n" in report


# What a mutation writes in place of a leaf or under an unknown key:
# booleans, strings, null, NaN and the infinities, small lists, objects.
_JUNK = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


def _paths(node, path=()):
    """The path of node and of every value inside it, as tuples of dict
    keys and list indices."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_docs(draw):
    """The reference document or one on a sample_valid_aes tensor, with
    one to three mutations: a leaf replaced, a key deleted or an unknown
    key added, anywhere in the document; or a document that is not an
    object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_JUNK.filter(lambda v: not isinstance(v, dict)), st.integers()))
    if draw(st.booleans()):
        doc = copy.deepcopy(REFERENCE_DOC)
    else:
        table = build_share_table(REFERENCE_THETA, REFERENCE_SECTOR)
        sigma = sample_valid_aes(table, draw(st.integers(0, 999))).sigma
        doc = dict(copy.deepcopy(REFERENCE_DOC), name="sampled", sigma=sigma.tolist())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        dicts = [p for p in paths if isinstance(_at(doc, p), dict)]
        keyed = [p for p in paths[1:] if isinstance(_at(doc, p[:-1]), dict)]
        leaves = [p for p in paths[1:] if not isinstance(_at(doc, p), (dict, list))]
        kind = draw(st.sampled_from(["replace", "delete", "add"]))
        if kind == "replace" and leaves:
            path = draw(st.sampled_from(leaves))
            _at(doc, path[:-1])[path[-1]] = draw(_JUNK)
        elif kind == "delete" and keyed:
            path = draw(st.sampled_from(keyed))
            del _at(doc, path[:-1])[path[-1]]
        else:
            target = _at(doc, draw(st.sampled_from(dicts)))
            target[draw(st.text(min_size=1, max_size=5))] = draw(_JUNK)
    return doc


@given(mutated_docs())
@settings(max_examples=150)
def test_a_mutated_document_exits_0_or_2_on_every_verb(doc):
    """Every verb ends a mutated document in exit 0 or exit 2, with the
    same outcome and message as validate, and raises no exception and
    emits no warning on the way.

    This is the malformed-document half of the whole-document contract
    fuzz. Mutations stop at wrong types, non-finite literals and missing
    or unknown keys. Extreme magnitudes and placements near a border
    line are left out on purpose: they still end some valid documents in
    exit 1. Past about 1e40 the float dense oracle can lose the sign of an
    elasticity, and near a line the sign check can call a tie where
    classification did not.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = str(Path(tmp) / "out")
        runs = [
            ["validate", str(path)],
            ["report", str(path)],
            ["figure", str(path), "-o", out],
            ["sweep", str(path), "--grid", "land_capital_1=1:1:1", "-o", out],
        ]
        outcomes = []
        for argv in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, stdout, err = _run(argv)
            assert caught == []
            if code == 2:
                assert stdout == "" and err.startswith("invalid input: ")
            else:
                assert (code, err) == (0, "")
            outcomes.append((code, err))
        assert outcomes == [outcomes[0]] * len(runs)
