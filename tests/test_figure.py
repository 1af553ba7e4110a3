import dataclasses
import math
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ews32 import (
    AsymptotePole,
    Ews32Error,
    ParseError,
    Scenario,
    ValidationError,
    boundary_value,
    render_figure,
    sample_valid_aes,
    scenario_from_mapping,
)
from ews32 import figure
from ews32.figure import (
    BOUNDARY_SAMPLES,
    DEFAULT_SIZE,
    DEFAULT_WINDOW,
    MARGIN,
    _DEFAULT_FRAME,
    _frame,
    _points_text,
    _polylines,
)
from ews32.geometry import ON_LINE_TOL

from conftest import percent_polylines, percent_text, random_ranked_table
from test_digits import check_writes_what_percent_writes_or_refuses, value_lists
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


# Every character XML 1.0 can hold, the markup characters drawn often.
_NOT_XML = "".join(map(chr, [*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF]))
xml_names = st.text(
    st.one_of(
        st.sampled_from("&<>\"'"),
        st.characters(exclude_categories=("Cs",), exclude_characters=_NOT_XML),
    ),
    min_size=1,
)


@given(xml_names)
@example("R&D <x>")
@example("&amp; &lt;&gt; \"q\" 'a'")
def test_the_name_is_escaped_as_html_escapes_text(name):
    import html

    svg = render_figure(scenario_from_mapping(dict(REFERENCE_DOC, name=name)))
    escaped = html.escape(name, quote=False)
    assert re.search("<title>([^<]*)</title>", svg)[1] == escaped
    assert svg.endswith(f'font-family="sans-serif">{escaped}</text>\n</svg>\n')


def test_no_verb_imports_html():
    # The figure escapes the name itself: html's entity table would cost
    # every ews32 process about 0.4 MB.
    env = {"PYTHONPATH": str(Path(figure.__file__).parents[1])}
    code = "import sys, ews32.cli; print('html' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


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


@pytest.mark.parametrize("window", [((1e308, 1.6e308), (-1.0, 1.0)), ((-1.6e308, -1e308), (-1.0, 1.0))])
def test_a_boundary_that_overflows_is_refused_as_such(reference_scenario, window):
    # The axes and asymptotes map into float range; the boundary's
    # heights at these abscissas do not.
    with pytest.raises(ValidationError) as caught:
        render_figure(reference_scenario, window=window)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == "a boundary height overflows floating point"


def test_the_head_lines_are_checked_before_the_boundary(reference_scenario):
    # Both faults at once: the asymptote u' = -ratio maps out of float
    # range under the tiny ordinate span, and the boundary overflows at
    # the window's far edge. The head lines are checked first.
    window = ((1e308, 1.6e308), (0.0, 1e-310))
    with pytest.raises(ValidationError, match="overflows floating point"):
        boundary_value(1.6e308, reference_scenario.table)
    with pytest.raises(ValidationError) as caught:
        render_figure(reference_scenario, window=window)
    assert str(caught.value) == f"figure window {window!r} maps a point out of float range"


def test_reversed_window_renders(reference_scenario):
    svg = render_figure(reference_scenario, window=((4.0, -4.0), (4.0, -10.0)))
    assert svg.count('class="anchor"') == 7
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize(
    "window",
    [((-1.0000005, -0.9999995), (-10.0, 4.0)), ((-0.9999995, -1.0000005), (-10.0, 4.0))],
    ids=["sorted", "reversed"],
)
def test_a_window_inside_the_pole_gap_draws_no_boundary(reference_scenario, window):
    # Each branch is sampled up to 1e-6 short of the pole at s' = -1, so
    # a window whose abscissas lie inside that gap samples neither branch.
    svg = render_figure(reference_scenario, window=window)
    ElementTree.fromstring(svg)
    assert svg.count("<polyline") == 0
    assert svg.count('class="anchor"') == 7


def _polyline_points(svg: str) -> list[np.ndarray]:
    """The (px, py) points of each boundary polyline of the document."""
    return [
        np.array([point.split(",") for point in points.split()], dtype=float)
        for points in re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    ]


@pytest.mark.parametrize(
    "window",
    [DEFAULT_WINDOW, ((-10.0, -2.0), (-10.0, 4.0)), ((-0.5, 3.0), (-3.0, 2.0))],
    ids=["default", "left-of-pole", "right-of-pole"],
)
def test_a_reversed_window_draws_the_boundary_of_its_sorted_twin(reference_scenario, window):
    # Each range in either order draws the sorted window's polylines,
    # mirrored where the window is: each point at the same place in the
    # frame, up to the rounding of the pixel coordinates. The points lie
    # in the frame padded by half its height up and down, as the mask
    # pads the window. (A branch is sampled up to the pole, so a point
    # may lie left or right of the frame, where the clip path hides it.)
    width, height = DEFAULT_SIZE
    pad = 0.5 * (height - 2.0 * MARGIN)
    want = _polyline_points(render_figure(reference_scenario, window=window))
    assert want
    (s0, s1), (u0, u1) = window
    for flip_s, flip_u in [(True, False), (False, True), (True, True)]:
        reversed_window = ((s1, s0) if flip_s else (s0, s1), (u1, u0) if flip_u else (u0, u1))
        got = _polyline_points(render_figure(reference_scenario, window=reversed_window))
        assert len(got) == len(want)
        for xy, sorted_xy in zip(got, want):
            mirrored = np.column_stack(
                (
                    width - sorted_xy[:, 0] if flip_s else sorted_xy[:, 0],
                    height - sorted_xy[:, 1] if flip_u else sorted_xy[:, 1],
                )
            )
            assert xy.shape == mirrored.shape
            assert np.abs(xy - mirrored).max() <= 2e-3
            assert (MARGIN - pad - 1e-3 <= xy[:, 1]).all()
            assert (xy[:, 1] <= height - MARGIN + pad + 1e-3).all()


@st.composite
def tiny_span_windows(draw):
    """A window with one span of 10**-k, 250 <= k <= 320, at a random
    offset and in either order; the other axis spans the default range."""
    offset = draw(st.one_of(st.just(0.0), st.floats(-12.0, 12.0)))
    span = (offset, offset + 10.0 ** -draw(st.integers(250, 320)))
    tiny = span[:: draw(st.sampled_from([1, -1]))]
    return (tiny, DEFAULT_WINDOW[1]) if draw(st.booleans()) else (DEFAULT_WINDOW[0], tiny)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("window", [((-4.0, 4.0), (0.0, 1e-300)), ((-4.0, 4.0), (0.0, 1e-303))])
def test_tiny_span_maps_only_drawn_samples(reference_scenario, window):
    # Boundary samples far outside a tiny window would overflow the pixel
    # transform, and the RuntimeWarning filter turns that into a failure.
    svg = render_figure(reference_scenario, window=window)
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(tiny_span_windows())
@example(((0.0, 1e-300), (-10.0, 4.0)))
def test_tiny_span_windows_map_only_drawn_samples(window):
    # The same check over drawn windows: either axis, either order, any offset.
    # The pixel coordinates of a tiny abscissa span have hundreds of
    # digits, so its polylines are written through "%.3f".
    scenario = scenario_from_mapping(dict(REFERENCE_DOC))
    try:
        svg = render_figure(scenario, window=window)
    except ValidationError as refused:
        assert repr(window) in str(refused)
    else:
        assert "nan" not in svg and "inf" not in svg


@settings(max_examples=300)
@given(value_lists(), st.data())
# The product rounds to a half-integer, but "%.3f" rounds 0.0005 up.
@example([0.0005], None)
def test_points_text_is_exactly_percent_format(values, data):
    check_writes_what_percent_writes_or_refuses("%.3f", values, data)


def one_run(xy: np.ndarray) -> str | None:
    return _points_text(xy, [len(xy)])


def test_points_text_certifies_only_what_it_can_round():
    assert one_run(np.array([[0.0, -0.0], [-0.0004, 1.2344]])) == "0.000,-0.000 -0.000,1.234"
    assert one_run(np.array([[999999.9994, -999999.9994]])) == "999999.999,-999999.999"
    # 0.0005 is a little over its decimal, but 1000 times it rounds to 0.5.
    for value in (0.0625, 12.0625, 0.0005, 999999.9996, 1e6, 1e300, math.inf, math.nan):
        assert one_run(np.array([[1.0, value]])) is None
        assert one_run(np.array([[value, 1.0]])) is None
    below, above = math.nextafter(0.0005, 0.0), math.nextafter(0.0005, 1.0)
    assert one_run(np.array([[below, -above]])) == "0.000,-0.001"


def test_points_text_ends_each_run_with_a_newline():
    xy = np.array([[0.0, 1.0], [2.5, -3.25], [10.0, 20.0], [-0.0, 7.0], [1e3, 2e3], [4.0, 5.0]])
    assert _points_text(xy, [2, 4, 6]) == (
        "0.000,1.000 2.500,-3.250\n10.000,20.000 -0.000,7.000\n1000.000,2000.000 4.000,5.000"
    )
    assert _points_text(xy, [3, 6]) == (
        "0.000,1.000 2.500,-3.250 10.000,20.000\n-0.000,7.000 1000.000,2000.000 4.000,5.000"
    )
    assert _points_text(xy, [6]) == percent_text(xy, [6])
    # One coordinate it cannot certify refuses the whole text, and
    # _polylines writes every run with "%.3f" instead.
    xy[4, 1] = 0.0625
    assert _points_text(xy, [2, 4, 6]) is None
    assert _polylines(xy, [2, 4, 6]) == percent_polylines(xy, [2, 4, 6])


def spy_points_text(monkeypatch) -> list:
    """The (xy, ends, text) of each _points_text call the figure makes."""
    calls = []

    def spy(xy, ends):
        calls.append((xy, np.asarray(ends), _points_text(xy, ends)))
        return calls[-1][2]

    monkeypatch.setattr(figure, "_points_text", spy)
    return calls


def test_figures_take_the_exact_formatter(reference_scenario, monkeypatch):
    """All polylines of a default-window figure are written by one
    certified _points_text call, a run per polyline; only a tiny span's
    polyline falls back to "%.3f"."""
    calls = spy_points_text(monkeypatch)
    rng = np.random.default_rng(21)
    scenarios = [reference_scenario]
    for seed in range(50):
        table = random_ranked_table(rng)
        scenarios.append(Scenario(name="drawn", table=table, aes=sample_valid_aes(table, seed)))
    for scenario in scenarios:
        calls.clear()
        polylines = render_figure(scenario).count("<polyline ")
        [(_, ends, text)] = calls
        assert len(ends) == polylines > 0
        assert text is not None
    calls.clear()
    render_figure(reference_scenario, window=((0.0, 1e-300), (-10.0, 4.0)))
    assert [text for _, _, text in calls] == [None]


def test_one_points_text_call_holds_both_branches(reference_scenario, monkeypatch):
    calls = spy_points_text(monkeypatch)
    svg = render_figure(reference_scenario)
    [(xy, ends, text)] = calls
    # One run left of the pole's pixel column, one right of it.
    pole = _DEFAULT_FRAME.to_svg(-1.0, 0.0)[0]
    left, right = np.split(xy[:, 0], ends[:-1])
    assert len(ends) == 2 and left.max() < pole < right.min()
    assert svg.count("<polyline ") == 2 and percent_polylines(xy, ends) in svg
    assert text == percent_text(xy, ends)


def reference_boundary(table, window) -> list[str]:
    """The boundary polylines of the figure, sample by sample with scalar
    boundary_value calls: a run of in-window samples is cut where the
    curve leaves the padded window and kept if it has two or more. Each
    range is sampled low to high, in whichever order the window gives it."""
    to_svg = _frame(window).to_svg
    (sx0, sx1), (uy0, uy1) = (sorted(bounds) for bounds in window)
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


def outcome(scenario, window) -> str | tuple:
    """The figure's SVG text, or the type and message of its refusal."""
    try:
        return render_figure(scenario, window=window)
    except Ews32Error as refused:
        return type(refused), str(refused)


@st.composite
def edge_windows(draw):
    """A window with at least one edge range, each range in either order:
    the default range, one inside the pole gap, a span of 1e-300 (drawn
    through "%.3f"), one of 1e-305 or 1e-310 (whose pixels overflow), or
    a range from +0.0 or -0.0."""
    zero = st.sampled_from([0.0, -0.0])
    tiny = st.sampled_from([1e-300, 1e-305, 1e-310])
    nonzero = st.floats(-12.0, 12.0).filter(bool)
    edges = st.one_of(
        st.just((-1.0000005, -0.9999995)), st.tuples(zero, tiny), st.tuples(zero, nonzero)
    )
    ranges = [draw(edges), draw(st.one_of(edges, st.sampled_from(DEFAULT_WINDOW)))]
    if draw(st.booleans()):
        ranges.reverse()
    return tuple(r[:: draw(st.sampled_from([1, -1]))] for r in ranges)


def spy_frames(patch) -> list:
    """The windows of the frames that render_figure builds, from now on."""
    windows, real = [], figure._frame

    def spy(window):
        windows.append(window)
        return real(window)

    patch.setattr(figure, "_frame", spy)
    return windows


@settings(max_examples=60)
@given(figure_cases(), st.one_of(st.none(), edge_windows()))
def test_the_frame_cannot_be_seen_in_the_output(case, edge_window):
    # The default window's frame, built at import, and the frame of an
    # equal window passed as another object give the same text; any other
    # window gives the same text, or the same refusal, on every figure,
    # and the polylines of the scalar reference.
    scenario, window = case
    window = edge_window or window
    equal = [list(bounds) for bounds in DEFAULT_WINDOW]
    with pytest.MonkeyPatch.context() as patch:
        built = spy_frames(patch)
        default = render_figure(scenario)
        assert not built
        assert render_figure(scenario, window=equal) == default
        assert built == [equal]
    drawn = outcome(scenario, window)
    assert outcome(scenario, window) == drawn
    if isinstance(drawn, str):
        boundary = [line for line in drawn.splitlines() if line.startswith("<polyline ")]
        assert boundary == reference_boundary(scenario.table, window)


def test_a_frame_is_read_only_and_reached_only_by_a_valid_window(reference_scenario):
    for frame in (_DEFAULT_FRAME, _frame(((0, 1), (-10, 4)))):
        for array in (frame.s, frame.px):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            frame.px[0] = 0.0
    # True equals 1, but is no number of a window.
    window = ((0, True), (-10, 4))
    for draw in (_frame, lambda window: render_figure(reference_scenario, window=window)):
        with pytest.raises(ValidationError, match=re.escape(repr(window))):
            draw(window)


def test_one_frame_per_window_and_one_boundary_call_per_figure(monkeypatch):
    rng = np.random.default_rng(32)
    scenarios = []
    for seed in range(20):
        table = random_ranked_table(rng)
        scenarios.append(Scenario(name="drawn", table=table, aes=sample_valid_aes(table, seed)))
    calls = []
    heights = figure._overflow_checked_height

    def spy(s_prime, table):
        calls.append(s_prime)
        return heights(s_prime, table)

    monkeypatch.setattr(figure, "_overflow_checked_height", spy)
    built = spy_frames(monkeypatch)
    for scenario in scenarios:
        render_figure(scenario)
    assert len(calls) == 20
    # Every call samples the default frame's abscissas, built at import.
    assert all(s is _DEFAULT_FRAME.s for s in calls)
    assert not built


_LARGEST = np.finfo(float).max


@st.composite
def wide_windows(draw):
    """A window whose abscissa range reaches far from the pole, up to the
    largest float either way, in either order; its ordinate range is the
    default one or reaches as far as the heights near the pole."""
    far = st.one_of(
        st.floats(-_LARGEST, _LARGEST),
        st.sampled_from([-_LARGEST, _LARGEST, -1e308, 1e308, -3e10, 3e10, -1e12]),
    )
    bounds = (draw(far), draw(st.floats(-12.0, 12.0)))[:: draw(st.sampled_from([1, -1]))]
    reach = 10.0 ** draw(st.floats(0.0, 308.0))
    heights = draw(st.sampled_from([DEFAULT_WINDOW[1], (-reach, reach)]))
    return bounds, heights


@settings(max_examples=150)
@given(figure_cases(), st.one_of(st.none(), edge_windows(), wide_windows()))
def test_the_frame_samples_need_no_abscissa_checks(case, other_window):
    # Every sample of a frame is finite and off the pole, so the heights
    # the figure takes with only the overflow check are boundary_value's,
    # bit for bit, or end in its error.
    scenario, window = case
    window = other_window or window
    heights, calls = figure._overflow_checked_height, []

    def spy(s_prime, table):
        calls.append(s_prime)
        return heights(s_prime, table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figure, "_overflow_checked_height", spy)
        outcome(scenario, window)
    try:
        frame = _frame(window)
    except ValidationError:
        assert not calls
        return
    # The figure sampled the abscissas of the window's frame, bit for bit.
    assert all(s.tobytes() == frame.s.tobytes() for s in calls)
    assert np.isfinite(frame.s).all()
    assert (np.abs(frame.s + 1.0) > ON_LINE_TOL).all()
    # Each branch keeps to its side of the pole.
    assert all(((row < -1.0) == (row[0] < -1.0)).all() for row in frame.s)

    def evaluate(height):
        try:
            return height(frame.s, scenario.table).tobytes()
        except Ews32Error as refused:
            return type(refused), str(refused)

    assert evaluate(heights) == evaluate(boundary_value)


@pytest.mark.parametrize(
    "window",
    [((-3e10, 4.0), (-10.0, 4.0)), ((-1e100, 4.0), (-10.0, 4.0)), ((-1e12, 1e12), (-1e12, 1e12))],
)
def test_a_wide_window_samples_no_point_past_its_branch(reference_scenario, window):
    # lo + k * step over so wide a span rounds the last samples of the
    # left branch onto the pole or across it. Clipped to their branch,
    # they end at its end, and no polyline crosses the pole's pixel column
    # (to the rounding of a pixel coordinate).
    svg = render_figure(reference_scenario, window=window)
    assert svg.count('class="anchor"') == 7
    frame = _frame(window)
    assert frame.s[0].max() == -1.0 - 1e-6
    pole = frame.to_svg(-1.0, 0.0)[0]
    for points in _polyline_points(svg):
        assert points[:, 0].max() <= pole + 1e-3 or points[:, 0].min() >= pole - 1e-3


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
