"""Byte-identity of the three user-facing outputs.

The report text, the sweep CSV and the SVG figure are pinned for the
reference scenario and for a handful of sampled ones, so a refactor that
changes any computed digit, or the order in which checks run and name
their failures, shows up here.
"""

import hashlib

import numpy as np
import pytest

from ews32 import (
    build_share_table,
    format_csv,
    format_report,
    parse_grid,
    render_figure,
    run_report,
    sample_valid_aes,
    scenario_from_mapping,
    sweep,
)

from conftest import REFERENCE_SECTOR, REFERENCE_THETA, random_ranked_table
from test_scenario import REFERENCE_DOC

GRID = "land_capital_1=-2:2:9,capital_labor_2=-2:2:7"

REFERENCE_REPORT = """\
scenario: reference
ranking checks: intensity pass, middle factor pass
allen tensor valid: yes
economy-wide substitution (rows/cols land, capital, labor):
  -0.563158  +0.223684  +0.339474
  +0.293103  -0.608621  +0.315517
  +0.390909  +0.277273  -0.668182
ratio vector: s'=0.709302 u'=0.749800 denominator sign + (quadrant 1)
subregion: P2
strong output response: yes
output-response signs (sectors x factors):
  + - +
  - + +
real-reward signs (deflators x factors):
  + - -
  + - +
output elasticities:
  +1.129814  -0.584784  +0.454969
  -0.744722  +1.602175  +0.142546
real-reward elasticities:
  +0.783918  -2.209897  -0.172784
  +1.783918  -1.209897  +0.827216
system determinant: -0.160039597
numeric and tabled signs agree: yes
worst solve residual: 4.324e-16
shock price=+1.0000 endowments=(+0.0000, +0.0000, +0.0000)
  rewards (+0.783918, -2.209897, -0.172784)  outputs (+2.099381, -3.149072)
shock price=+0.0000 endowments=(+1.0000, +0.0000, +0.0000)
  rewards (-0.264825, -0.162969, +0.448165)  outputs (+1.129814, -0.744722)
"""

# sha256 of (report, sweep CSV, SVG) per scenario; the reference report
# is pinned in full above.
GOLDEN = {
    "reference": (
        None,
        "fb3433d4bfc346a488335694589f75b06f3bd65fa9dbd5f1bf25d6a604e557df",
        "3d761dd602de3e2ea6e59c7c3b6aeef348eb8f7c22e50888f04d44ba96d612e7",
    ),
    "sampled-0": (
        "330400e8ed45b7df21b0a8b2715e6756f35d795da5c45a946d94680ef40fdc2a",
        "90563d1837dd1b516ac7530c206fc541352733731875b9576833cf1980de9e9f",
        "ea99a532e2be461c21ccbd5f53b5194d49e4daeca1f9677b6ce1585736a3c26c",
    ),
    "sampled-1": (
        "b001f5f4d2c0f17f93918b1a14f4bea07dd433cd747565214d2a9fc30687d65c",
        "302af8c7a0a6b6145526131087edca6392fc5890608f65591847194530642e5c",
        "6e0cd5d93d0187ae34df98e01029300bce912a42e9aa4b04bd370d700cbf983d",
    ),
    "sampled-2": (
        "78db5b8de3ce2a74231a5c4fbeebed5b97e36bce3d5d715e77ee27e1d90c22e9",
        "dfe45fc5b4cd25c6be9350c02bc748aa1b74bfaebeceb62d95d300ea411b68a2",
        "3bdf0e69464853f1eb6ea72e92c8059f322674673e4bf862cb814028b3236749",
    ),
    "sampled-3": (
        "74ae81cd4a16f86ad051607da0f4266d39910e35b06f0a50a080970f16f8a3fb",
        "42c3098060c2c48a8eb6d5b71d5ced8cbf115065073c210f8bf0200d9dddf151",
        "a04a05893028cdd6502a85ab349c2be2a3cd8daa4af584dc0bbcb87238844c24",
    ),
    "sampled-4": (
        "f3d3f67dac44d568d87056f36dbd7c0b1bc81ac039e4cf4d3bac67e4ac26e0b4",
        "6b490da8c9b0630e110b49cc4374d617a415e05c2f3c7d78116e342a8ac19468",
        "e697d57351c22fc9796ad26ace7616d4f316766aa2e582d0223c0a5fafb7cd1c",
    ),
}


# sha256 of the SVG under windows other than the default, with the
# number of boundary polylines each draws. The hyperbola is monotone on
# each branch, so the cases are clipping at either end of a branch, a
# branch with no sample in the window, and a branch the window skips.
WINDOWS = {
    # Both branches clipped at the top and the bottom of the window.
    "wide": (((-8.0, 8.0), (-12.0, 6.0)), 2),
    # Both branches clipped near the pole, where the curve is steepest.
    "near-pole": (((-1.5, -0.5), (-50.0, 50.0)), 2),
    # The left branch lies below -labor_to_capital < 0: no polyline.
    "upper-band": (((-3.0, 3.0), (1.0, 3.0)), 1),
    # The window starts right of the pole, so the left branch is skipped.
    "right-of-pole": (((-0.5, 6.0), (-3.0, 2.0)), 1),
    # A tiny abscissa span maps the right branch to pixel abscissas with
    # hundreds of digits, which the polyline writes through "%.3f".
    "tiny-span": (((0.0, 1e-300), (-10.0, 4.0)), 1),
}
GOLDEN_WINDOWS = {
    "reference": {
        "wide": "9337b8f97ba9d78f9d18cdd6e5da11b128cd28addf7bc2cf0c1b913fa3493440",
        "near-pole": "10e907b83ff2acd7d382d1336a47914e726d8050d68155cd32a03a8b26d41efe",
        "upper-band": "f3adf4bc1077cd568ee5733491b6b9fe8aa773adda86e3c3742f5e743986e4d6",
        "right-of-pole": "1c287da286c77ab9e1fc23f2b7a9e0eaecf326f9b26162a33bd9468cf9a69eb3",
        "tiny-span": "821a20f79a505f715951a65da93cd30c0f0c698872fa9aee773e3ea83f4cda70",
    },
    "sampled-1": {
        "wide": "314c95e8a645696049b9745dedf02c0ea13c31226c0fe80b2a4a26257c8a6db0",
        "near-pole": "146cb2ea8ee2abf995fcbf2c4496b1d459bf2232a22b9e3468f85981cc3b31f0",
        "upper-band": "c668de07a1ddfb0e84e729355cac880a84fd1d90e664d78f43e39132b865fb56",
        "right-of-pole": "31fa758daac01cb2c4bcbad45bb51add77293b755cbeaa560673407dbf5e55bc",
        "tiny-span": "d74160e78850515aee4f4d3bac86e93ac4aeea4e8262c2015c4db84c0f2de246",
    },
    "sampled-2": {
        "wide": "2ddd8e1c0dc576e4c7670d13875b80a7693e5709ac25fc4c13f14d6a57b29c9d",
        "near-pole": "f7a7d90eb9d8f7f8dac1d4dff50ff945e6d52d983c4003494ec2582d97addf04",
        "upper-band": "b32d3b785023bf15dadfb56c3832d7106f59743ad0c53a919629d2a929decc94",
        "right-of-pole": "2a5a70c829524c44f60ea4e1f6c5649c481ba7832ede72eb907d82f468caa73d",
        "tiny-span": "8041170fe27d1b636b7f1ccefb2442de78f56d1e2e920d3337ea56936c360e92",
    },
}


# sha256 of the report text with the first k of SHOCKS, for k in
# SHOCK_COUNTS, on the reference document and on one sampled tensor over
# a random ranked table: the responses and the worst residual of several
# shocks, price and endowment ones mixed, solved for one system.
SHOCKS = [
    {"price": 1.0},
    {"endowments": [0.5, -0.25, 0.125]},
    {"price": -0.3, "endowments": [0.0, 1.0, -2.0]},
    {"price": 2.5e-3},
    {"endowments": [-1e3, 0.0, 7.0]},
    {"price": -12.0, "endowments": [0.2, 0.2, 0.2]},
]
GOLDEN_SHOCKS = {
    "reference": {
        0: "0f6c254b0793aea0b87b11180fdd3fcea206b58f00ca4e46827ad60974682cf3",
        1: "ef37a847d44264fead5726ff31d5e6fa1ad94b5e519dcdad288516ee8aaf8d0c",
        3: "431a761a3ca595341296581b5cd59781d7d99b67efec5a1a7d531d22b4ebac58",
        6: "dc60a48892f145585e442d365c8b3ffe87b885c41a3c902c69b18ab849348772",
    },
    "random": {
        0: "7a3aa3a4feb8d3b7a697c5e806ca5cd7654c96a75eadd922d4bf36737e4bf773",
        1: "2f547f09f41d81c3abcdb49ef06c2505a45dedd1a589df0ef1112271550dbdcc",
        3: "7614293b211bd41c47019329a19c966f09e190637fac4bbba7c3732fab2c6e73",
        6: "1e62ff58259d433fb17326fa22c047c727581c8dcf827cd3f0bb6cc5e7ebe379",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sampled_doc(index: int) -> dict:
    """A sampled Allen tensor on the reference table (index 0) or on a
    seeded random ranked table, with one price and one endowment shock."""
    if index == 0:
        table = build_share_table(REFERENCE_THETA, REFERENCE_SECTOR)
    else:
        table = random_ranked_table(np.random.default_rng(900 + index))
    return {
        "name": f"sampled-{index}",
        "theta": table.theta.tolist(),
        "theta_sector": table.theta_sector.tolist(),
        "sigma": sample_valid_aes(table, seed=100 + index).sigma.tolist(),
        "shocks": [
            {"price": 0.5 - 0.25 * index},
            {"endowments": [0.1 * index, -0.2, 0.3]},
        ],
    }


def shocks_doc(base: str, count: int) -> dict:
    """The reference document, or a sampled tensor on a random ranked
    table, carrying the first count of SHOCKS."""
    if base == "reference":
        doc = dict(REFERENCE_DOC)
    else:
        table = random_ranked_table(np.random.default_rng(1700))
        doc = {
            "theta": table.theta.tolist(),
            "theta_sector": table.theta_sector.tolist(),
            "sigma": sample_valid_aes(table, seed=1701).sigma.tolist(),
        }
    return dict(doc, name=f"{base}-{count}-shocks", shocks=SHOCKS[:count])


def scenario_doc(name: str) -> dict:
    return dict(REFERENCE_DOC) if name == "reference" else sampled_doc(int(name.split("-")[1]))


def report_text(doc: dict) -> str:
    return format_report(run_report(scenario_from_mapping(doc)))


@pytest.mark.blas_kernel_bits
def test_reference_report_text():
    assert report_text(dict(REFERENCE_DOC)) == REFERENCE_REPORT


# One test per output, so that a report pin that fails (they hold only on
# some BLAS kernels, see ROADMAP item 12) hides no CSV or SVG pin.
@pytest.mark.blas_kernel_bits
@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if GOLDEN[name][0] is not None))
def test_report_byte_identical(name):
    assert _sha(report_text(scenario_doc(name))) == GOLDEN[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_byte_identical(name):
    csv = format_csv(sweep(scenario_from_mapping(scenario_doc(name)), parse_grid(GRID)))
    assert _sha(csv) == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_svg_byte_identical(name):
    assert _sha(render_figure(scenario_from_mapping(scenario_doc(name)))) == GOLDEN[name][2]


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("name", sorted(GOLDEN_WINDOWS))
def test_figure_windows_byte_identical(name, window):
    bounds, polylines = WINDOWS[window]
    svg = render_figure(scenario_from_mapping(scenario_doc(name)), window=bounds)
    assert svg.count("<polyline ") == polylines
    assert _sha(svg) == GOLDEN_WINDOWS[name][window]


# Without shocks these reports pass on every kernel probed; with shocks
# they print bits that only the AVX-512 kernels give.
@pytest.mark.parametrize(
    "base, count",
    [
        pytest.param(base, count, marks=[pytest.mark.blas_kernel_bits] if count else [])
        for base in sorted(GOLDEN_SHOCKS)
        for count in (0, 1, 3, 6)
    ],
)
def test_multi_shock_report_byte_identical(base, count):
    report = format_report(run_report(scenario_from_mapping(shocks_doc(base, count))))
    assert _sha(report) == GOLDEN_SHOCKS[base][count]
