"""Flag-transitive point-imprimitive 2-designs at desk scale.

Modules:

- ``perm``: exact permutation groups (Schreier-Sims, orbits of points
  and point sets, invariant partitions).
- ``design``: incidence structures and 2-design verification.
- ``feasibility``: integer enumeration of numerically feasible parameter
  tuples and the polynomial bounds on block size and point count.
- ``construct``: the built-in designs (the 36-point flag-regular design,
  the binary hyperplane-complement family, four 96-point designs).
- ``autgrp``: automorphism groups, canonical forms, isomorphism testing,
  and the 36-point uniqueness census.
- ``cli``: the ``ftdesigns`` command-line front end.
"""

from .autgrp import (
    AutResult,
    CanonicalForm,
    CensusReport,
    ResourceCapExceeded,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    uniqueness_census_36,
)
from .construct import (
    construction_36,
    construction_36_cosets,
    design_96,
    orbit_design,
    projective_design,
    semilinear_group_15,
    twisted_diagonal_group,
)
from .design import (
    Design,
    DesignError,
    DesignParameters,
    GeneratorNotAutomorphism,
    IntersectionProfile,
    NotTwoDesignError,
    PointCapExceeded,
    check_2_design,
    flag_orbit_count,
    flags,
    format_design_text,
    intersection_profile,
    is_automorphism,
    is_flag_transitive,
    parse_design_text,
    tuple_of,
)
from .feasibility import (
    BoundReport,
    FeasibleTuple,
    bound_report,
    condition_failures,
    enumerate_lx,
    feasible_tuples,
    g_hyperbola_max,
    g_value,
)
from .perm import (
    BlockSystem,
    BlockSystemCapExceeded,
    CycleParseError,
    GroupError,
    PermGroup,
    Permutation,
    format_cycles,
    format_group_text,
    parse_cycles,
    parse_group_text,
)

__all__ = [
    "AutResult",
    "BlockSystem",
    "BlockSystemCapExceeded",
    "BoundReport",
    "CanonicalForm",
    "CensusReport",
    "CycleParseError",
    "Design",
    "DesignError",
    "DesignParameters",
    "FeasibleTuple",
    "GeneratorNotAutomorphism",
    "GroupError",
    "IntersectionProfile",
    "NotTwoDesignError",
    "PermGroup",
    "Permutation",
    "PointCapExceeded",
    "ResourceCapExceeded",
    "are_isomorphic",
    "automorphism_group",
    "bound_report",
    "canonical_form",
    "check_2_design",
    "condition_failures",
    "construction_36",
    "construction_36_cosets",
    "design_96",
    "enumerate_lx",
    "feasible_tuples",
    "flag_orbit_count",
    "flags",
    "format_cycles",
    "format_design_text",
    "format_group_text",
    "g_hyperbola_max",
    "g_value",
    "intersection_profile",
    "is_automorphism",
    "is_flag_transitive",
    "orbit_design",
    "parse_cycles",
    "parse_design_text",
    "parse_group_text",
    "projective_design",
    "semilinear_group_15",
    "tuple_of",
    "twisted_diagonal_group",
    "uniqueness_census_36",
]

__version__ = "0.1.0"
