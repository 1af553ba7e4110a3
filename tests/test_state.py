"""The package keeps no state after import: every verb leaves each
module-level global of ews32 as import left it."""

import sys

import numpy as np
import pytest

import ews32.cli  # noqa: F401 -- the CLI's module holds globals too
from ews32 import (
    ValidationError,
    format_csv,
    format_report,
    parse_grid,
    render_figure,
    run_report,
    scenario_from_mapping,
    sweep,
)
from ews32.figure import DEFAULT_WINDOW

from conftest import ROUNDED_SIGMAS
from test_scenario import REFERENCE_DOC


def _arrays(value):
    """The arrays a global holds itself or in a nest of tuples, named
    tuples among them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for item in value for array in _arrays(item)]
    return []


def _globals():
    """Each module-level global of ews32's modules, by (module, name)."""
    return {
        (module, name): value
        for module in sorted(sys.modules)
        if module == "ews32" or module.startswith("ews32.")
        for name, value in vars(sys.modules[module]).items()
    }


def _snapshot(state):
    """What a global may not change: which object it is, and for each
    array it holds, its bytes and whether it is writeable; for a dict,
    list or set, its text as well."""
    return {
        key: (
            id(value),
            [(array.tobytes(), array.flags.writeable) for array in _arrays(value)],
            repr(value) if isinstance(value, (dict, list, set)) else None,
        )
        for key, value in state.items()
    }


@pytest.mark.parametrize(
    "window",
    [DEFAULT_WINDOW, ((-10.0, -2.0), (-10.0, 4.0)), ((4.0, -4.0), (4.0, -10.0))],
    ids=["default", "custom", "reversed"],
)
def test_no_verb_changes_a_global(window):
    state = _globals()
    before = _snapshot(state)
    assert {key for key, value in state.items() if hasattr(value, "cache_info")} == set()
    scenario = scenario_from_mapping(
        dict(REFERENCE_DOC, shocks=[{"price": 1.0}, {"endowments": [1.0, 0.0, 0.0]}])
    )
    svg = render_figure(scenario)
    format_report(run_report(scenario))
    format_csv(sweep(scenario, parse_grid("land_capital_1=-3:3:7,capital_labor_2=0.5:1.5:3")))
    seed_201 = scenario_from_mapping(dict(REFERENCE_DOC, sigma=ROUNDED_SIGMAS[201]))
    render_figure(seed_201, window=window)
    refused = ((0, True), (-10, 4))
    with pytest.raises(ValidationError):
        render_figure(scenario, window=refused)
    # state keeps each global alive, so no id is reused.
    assert _snapshot(_globals()) == before
    # A figure in another window leaves the default window's figure as it was.
    assert render_figure(scenario) == svg
