"""Economy-wide substitution analysis for a three-factor, two-good
competitive economy: share validation, Allen-elasticity aggregation,
subregion classification of the normalized substitution vector, and
output/price sign patterns cross-checked against a dense solver."""

import types

from .errors import (
    AsymptotePole,
    ClosedFormMismatch,
    ConsistencyError,
    DegenerateT,
    Ews32Error,
    GenerationExhausted,
    InconsistentLevels,
    Infeasible,
    InvalidAes,
    NonPositiveLevels,
    NonStochasticColumns,
    OnLine,
    OutOfRangeShare,
    ParseError,
    RankingViolation,
    SingularSystem,
    UnmatchedSignature,
    ValidationError,
)
from .figure import render_figure
from .geometry import (
    AnchorSet,
    LineCoeffs,
    OrderingReport,
    Subregion,
    anchor_points,
    boundary_value,
    classify_subregion,
    line_coefficients,
    verify_anchor_ordering,
)
from .scenario import (
    Report,
    Scenario,
    format_report,
    load_scenario,
    run_report,
    scenario_from_mapping,
)
from .shares import (
    CAPITAL,
    FACTOR_NAMES,
    LABOR,
    LAND,
    ShareTable,
    build_share_table,
)
from .statics import (
    CofactorReport,
    ComparativeStatics,
    DeltaReport,
    ResponseVector,
    ShockVector,
    SignPattern,
    assemble_system,
    cofactors,
    comparative_statics,
    determinant_delta,
    sign_pattern_lookup,
    solve_responses,
    solve_shocks,
    strong_rybczynski,
)
from .substitution import (
    AesTensor,
    EwsMatrix,
    EwsRatioVector,
    ValidityReport,
    aggregate_substitution,
    cobb_douglas_aes,
    epsilon_from_aes,
    ews_from_epsilon,
    ews_from_stu,
    ews_ratio_vector,
    require_valid_aes,
    sample_valid_aes,
    validate_aes,
)
from .sweep import SweepRows, format_csv, parse_grid, sweep

__version__ = "0.1.0"

# The public names are exactly those imported above.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
