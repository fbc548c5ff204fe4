"""Groups the tests use that the package does not build."""

from usets.perm import PermGroup, Permutation


def symmetric_group(n: int) -> PermGroup:
    """S_n on n points, generated by (0 1) and the n-cycle (0 1 ... n-1)."""
    if n == 1:
        return PermGroup([Permutation.identity(1)])
    return PermGroup([Permutation.from_cycles(n, (0, 1)),
                      Permutation.from_cycles(n, tuple(range(n)))])
