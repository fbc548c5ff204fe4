"""Same-size conjugacy class sets U(G) for small simple groups.

The package computes conjugacy-class invariants of concretely
constructed permutation groups from scratch (no external algebra
system), provides a symbolic feasibility analyzer for candidate U-sets,
and ships a verification harness that recomputes a battery of published
values, culminating in the characterization of PSL(2,11) by its U-set.
"""

__version__ = "0.1.0"

from .perm import (
    BSGS,
    DEFAULT_CAP,
    GroupTooLargeError,
    PermGroup,
    Permutation,
)
from .gf import Field, field_create
from .construct import (
    alternating_group,
    classical_order,
    projectivize,
    psl_group,
    sl_generators,
)
from .invariants import (
    ConjClass,
    InvariantProfile,
    centralizer_count,
    conjugacy_classes,
    profile,
)
from .patterns import (
    USetPattern,
    enumerate_collision_assignments,
    feasibility_check,
    instantiate_pattern,
    is_prime_power,
    match_pattern,
    solve_psl2_order,
)
from .catalog import Catalog, CatalogEntry, default_catalog, load_generator_file
from .verify import CheckResult, VerificationReport, run_verification

__all__ = [
    "BSGS",
    "Catalog",
    "CatalogEntry",
    "CheckResult",
    "ConjClass",
    "DEFAULT_CAP",
    "Field",
    "GroupTooLargeError",
    "InvariantProfile",
    "PermGroup",
    "Permutation",
    "USetPattern",
    "VerificationReport",
    "alternating_group",
    "centralizer_count",
    "classical_order",
    "conjugacy_classes",
    "default_catalog",
    "enumerate_collision_assignments",
    "feasibility_check",
    "field_create",
    "instantiate_pattern",
    "is_prime_power",
    "load_generator_file",
    "match_pattern",
    "profile",
    "projectivize",
    "psl_group",
    "run_verification",
    "sl_generators",
    "solve_psl2_order",
]
