"""Groups the tests use that the package does not build, and named
package groups that several tests share."""

from usets.construct import alternating_group, m11_group, psl_group
from usets.perm import PermGroup, Permutation

#: Degrees 11 to 40; building their chains re-closes levels whose
#: representatives changed, which the generated property cases (degree
#: 10 at most) reach less often.
CHAIN_GROUPS = {
    "M11": m11_group,
    "PSL(3,4)": lambda: psl_group(3, 4),
    "PSL(4,3)": lambda: psl_group(4, 3),
    "Alt(12)": lambda: alternating_group(12),
}


def symmetric_group(n: int) -> PermGroup:
    """S_n on n points, generated by (0 1) and the n-cycle (0 1 ... n-1)."""
    if n == 1:
        return PermGroup([Permutation.identity(1)])
    return PermGroup([Permutation.from_cycles(n, (0, 1)),
                      Permutation.from_cycles(n, tuple(range(n)))])
