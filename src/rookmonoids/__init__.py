"""Computational toolkit for orthogonal and symplectic rook monoids.

Builds the monoids by exhaustive enumeration, computes their Green
structure and ideals, enumerates every congruence at small degree, and
checks the predicted congruence families against the brute-force lattice.
"""

from .congruences import (
    DEFAULT_GROUP_LIMIT,
    Partition,
    PermGroup,
    congruence_closure,
    congruence_lattice,
    is_congruence,
    join,
    lattice_to_dot,
    normal_subgroups,
    partition_from_json,
    symmetric_group,
)
from .core import (
    DEFAULT_ELEMENT_LIMIT,
    DEFAULT_TABLE_LIMIT,
    ELEMENT_LIMIT_ENV,
    FAMILIES,
    InvariantViolation,
    MonoidUniverse,
    PartialInjection,
    ResourceLimitError,
    TYPE_I,
    TYPE_II,
    admissible_subsets,
    compose,
    conjugation_escape_witness,
    element_from_json,
    element_to_json,
    enumerate_universe,
    format_element_text,
    identity_map,
    idempotent_of,
    in_unit_group,
    invert,
    is_admissible,
    is_idempotent,
    is_member,
    parse_element_text,
    predicted_size,
    theta,
    type_of,
    universe_to_json,
    zero_map,
)
from .families import (
    ClassificationReport,
    FamilySpec,
    build_family,
    predicted_congruences,
    verify_classification,
)
from .green import (
    GreenData,
    IdealDescriptor,
    class_count_formulas,
    enumerate_ideals,
    green_partition,
    green_report,
    h_class_group,
    h_coordinate,
    j_order_dot,
    maximal_subgroup,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
