import dataclasses
import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ews32 import (
    AsymptotePole,
    ParseError,
    Scenario,
    ValidationError,
    boundary_value,
    render_figure,
    sample_valid_aes,
    scenario_from_mapping,
)
from ews32.figure import BOUNDARY_SAMPLES, DEFAULT_SIZE, DEFAULT_WINDOW, MARGIN, _transform
from ews32.geometry import ON_LINE_TOL

from conftest import random_ranked_table
from test_scenario import REFERENCE_DOC


@pytest.fixture
def reference_scenario():
    return scenario_from_mapping(dict(REFERENCE_DOC))


def pixel_y(u: float) -> float:
    (_, _), (uy0, uy1) = DEFAULT_WINDOW
    _, height = DEFAULT_SIZE
    return MARGIN + (uy1 - u) / (uy1 - uy0) * (height - 2.0 * MARGIN)


def test_render_is_deterministic(reference_scenario):
    assert render_figure(reference_scenario) == render_figure(reference_scenario)


def test_document_structure(reference_scenario):
    svg = render_figure(reference_scenario)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert "<title>reference</title>" in svg
    assert svg.count('class="anchor"') == 7
    assert svg.count('class="vector"') == 1
    # One label per boundary anchor.
    for name in ("R land 1", "R land 2", "R capital 1", "R capital 2", "R labor 1", "R labor 2"):
        assert name in svg


def test_vector_sits_above_the_boundary(reference_scenario):
    # The reference vector has u' above the boundary height at its s';
    # in pixel space that means a smaller y than the boundary's.
    svg = render_figure(reference_scenario)
    match = re.search(r'class="vector" cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    assert match is not None
    cy = float(match.group(2))
    run = run_vector(reference_scenario)
    assert cy == pytest.approx(pixel_y(run[1]), abs=0.01)
    assert cy < pixel_y(boundary_value(run[0], reference_scenario.table))


def run_vector(scenario):
    from ews32 import epsilon_from_aes, ews_from_epsilon, ews_ratio_vector

    eps = epsilon_from_aes(scenario.aes, scenario.table)
    v = ews_ratio_vector(ews_from_epsilon(eps, scenario.table))
    return v.s_prime, v.u_prime


def test_name_is_escaped(reference_scenario):
    scenario = dataclasses.replace(reference_scenario, name="R&D <x>")
    root = ElementTree.fromstring(render_figure(scenario))
    assert root.find("{http://www.w3.org/2000/svg}title").text == "R&D <x>"


def test_window_override_changes_geometry(reference_scenario):
    wide = render_figure(reference_scenario, window=((-8.0, 8.0), (-12.0, 6.0)))
    assert wide != render_figure(reference_scenario)
    assert wide.count('class="anchor"') == 7


@pytest.mark.parametrize(
    "window",
    [
        ((1.0, 1.0), (-1.0, 1.0)),  # zero abscissa span
        ((-4.0, 4.0), (2.5, 2.5)),  # zero ordinate span
        ((float("nan"), 1.0), (-1.0, 1.0)),
        ((-4.0, 4.0), (-10.0, float("nan"))),
        ((-4.0, float("inf")), (-1.0, 1.0)),
        ((-4.0, 4.0), (float("-inf"), 4.0)),
        ((-1e308, 1e308), (-1.0, 1.0)),  # finite bounds, overflowing span
        ((0.0, 1e-310), (-1.0, 1.0)),  # subnormal span, overflowing pixel scale
        ((-4.0, 4.0), (1.0, 1.0 + 5e-324)),
        ((-4.0, 4.0), (0.0, 1e-305)),  # finite pixel scale, border-line ends overflow
        ((-4.0, 4.0),),  # one range
        ((-4.0, 4.0), (-1.0, 1.0), (0.0, 1.0)),  # three ranges
        ((-4.0, 4.0), ("0", "1")),  # bounds that are not numbers
        ((0, 10**400), (0, 1)),  # an int past the float range
    ],
)
def test_window_must_have_finite_nonzero_spans(reference_scenario, window):
    with pytest.raises(ValidationError, match=re.escape(repr(window))):
        render_figure(reference_scenario, window=window)


def test_reversed_window_renders(reference_scenario):
    svg = render_figure(reference_scenario, window=((4.0, -4.0), (4.0, -10.0)))
    assert svg.count('class="anchor"') == 7
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("window", [((-4.0, 4.0), (0.0, 1e-300)), ((-4.0, 4.0), (0.0, 1e-303))])
def test_tiny_span_maps_only_drawn_samples(reference_scenario, window):
    # Boundary samples far outside a tiny window would overflow the pixel
    # transform, and the RuntimeWarning filter turns that into a failure.
    svg = render_figure(reference_scenario, window=window)
    assert "nan" not in svg and "inf" not in svg


def reference_boundary(table, window) -> list[str]:
    """The boundary polylines of the figure, sample by sample with scalar
    boundary_value calls: a run of in-window samples is cut where the
    curve leaves the padded window and kept if it has two or more."""
    (sx0, sx1), (uy0, uy1) = window
    to_svg = _transform(window)
    pad = 0.5 * (uy1 - uy0)
    out = []

    def emit(run):
        coords = " ".join(f"{px:.3f},{py:.3f}" for px, py in run)
        out.append(f'<polyline fill="none" stroke="#000000" stroke-width="1.8" points="{coords}" />')

    for lo, hi in ((sx0, -1.0 - 1e-6), (-1.0 + 1e-6, sx1)):
        if hi <= lo:
            continue
        run = []
        step = (hi - lo) / (BOUNDARY_SAMPLES - 1)
        for k in range(BOUNDARY_SAMPLES):
            s = lo + k * step
            u = boundary_value(s, table)
            if uy0 - pad <= u <= uy1 + pad:
                run.append(to_svg(s, u))
            else:
                if len(run) > 1:
                    emit(run)
                run = []
        if len(run) > 1:
            emit(run)
    return out


# Document lines ahead of the boundary: svg, title, background, clip
# path, frame, group, two axes and two asymptotes.
_LINES_BEFORE_BOUNDARY = 10


@st.composite
def figure_cases(draw):
    """A sampled valid scenario on a random ranked table, and a finite
    window with distinct bounds on each axis, in either order."""
    seeds = st.integers(0, 2**32 - 1)
    table = random_ranked_table(np.random.default_rng(draw(seeds)))
    scenario = Scenario(name="drawn", table=table, aes=sample_valid_aes(table, draw(seeds)))
    abscissa = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e3, 1e3))
    ordinate = st.one_of(st.floats(-12.0, 12.0), st.floats(-1e3, 1e3))
    window = tuple(
        tuple(draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
        for bound in (abscissa, ordinate)
    )
    return scenario, window


@given(figure_cases())
def test_render_matches_scalar_reference(case):
    scenario, window = case
    try:
        boundary = reference_boundary(scenario.table, window)
    except AsymptotePole:
        with pytest.raises(AsymptotePole):
            render_figure(scenario, window=window)
        return
    svg = render_figure(scenario, window=window)
    rest = [line for line in svg.splitlines() if not line.startswith("<polyline ")]
    want = rest[:_LINES_BEFORE_BOUNDARY] + boundary + rest[_LINES_BEFORE_BOUNDARY:]
    assert svg == "\n".join(want) + "\n"


@given(st.integers(0, 2**32 - 1), st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_boundary_value_on_an_array_matches_scalar_calls(seed, abscissas):
    table = random_ranked_table(np.random.default_rng(seed))
    s = np.array([x for x in abscissas if abs(x + 1.0) > ON_LINE_TOL])
    got = boundary_value(s, table)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    want = np.array([boundary_value(float(x), table) for x in s])
    assert got.tobytes() == want.tobytes()


def test_boundary_value_refuses_what_it_cannot_read_or_hold(reference_table):
    for value in ("x", "0.5", [0.5, math.nan], math.inf, True, [[0.5], [0.5, 1.0]]):
        with pytest.raises(ParseError, match="^s_prime must hold finite numbers"):
            boundary_value(value, reference_table)
    # Finite abscissas whose heights overflow a float.
    for value in (1.7e308, np.array([0.5, -1.7e308])):
        with pytest.raises(ValidationError, match="overflows floating point") as caught:
            boundary_value(value, reference_table)
        assert type(caught.value) is ValidationError


def test_boundary_value_array_pole(reference_table):
    assert isinstance(boundary_value(0.5, reference_table), float)
    for near in (-1.0, -1.0 + 0.5 * ON_LINE_TOL, -1.0 - 0.5 * ON_LINE_TOL):
        with pytest.raises(AsymptotePole):
            boundary_value(np.array([0.5, near, 2.0]), reference_table)
    with pytest.raises(AsymptotePole):
        boundary_value(np.array([[3.0], [-1.0]]), reference_table)
    boundary_value(np.array([0.5, -1.0 - 4 * ON_LINE_TOL]), reference_table)
