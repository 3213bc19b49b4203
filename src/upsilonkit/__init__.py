"""Exact computation of Upsilon and secondary Upsilon invariants of
formal knot Floer complexes."""

from .bounds import GenusBoundReport, GenusReport, diagonal_width, gc_bound_from_pl, genus_report
from .catalog import (
    CATALOG_NAMES,
    acyclic_box,
    add_acyclic_box,
    box_complex,
    catalog,
    figure6_complex,
    figure8_complex,
    nk_complex,
    stairway,
    torus_knot_complex,
    torus_knot_steps,
    unknot,
)
from .complexes import (
    BoundaryTerm,
    CycleCoset,
    Generator,
    InvalidComplexError,
    ModelComplex,
    SliceElement,
    ValidationReport,
    direct_sum,
    dual,
    tensor,
    tensor_power,
)
from .exact import (
    NEG_INF,
    POS_INF,
    DomainError,
    PLFunction,
    as_rational,
    format_rational,
)
from .expr import ExprParseError, build, parse_and_build, parse_expression
from .textio import ComplexParseError, parse_complex, serialize_complex
from .upsilon import (
    ConsistencyError,
    PivotData,
    breakpoint_candidates,
    delta_upsilon_prime,
    gamma_at,
    gamma_pl,
    pivot_points,
    upsilon,
)
from .upsilon2 import (
    Upsilon2Result,
    ZSets,
    check_subadditivity,
    upsilon2,
    upsilon2_scalar,
    z_sets,
)

__version__ = "0.1.0"
