"""Groups the tests use that the package does not build, direct and
wreath products of groups, named package groups that several tests share,
an independent orbit walk, a Leibniz determinant, the group's elements
read off the package's class walk, and the test of a report revision
against a pinned report."""

import itertools
import json

from usets import invariants
from usets.construct import alternating_group, m11_group, psl_group
from usets.perm import DEFAULT_CAP, PermGroup, Permutation

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


def direct_product(*factors: PermGroup) -> PermGroup:
    """The direct product of the factors on disjoint points: each factor's
    generators move its own block of points, after the blocks of the
    factors before it, and fix every other point."""
    degree, offset, gens = sum(f.degree for f in factors), 0, []
    for f in factors:
        for g in f.generators:
            images = list(range(degree))
            images[offset:offset + f.degree] = [offset + i for i in g.images]
            gens.append(Permutation(images))
        offset += f.degree
    return PermGroup(gens)


def wreath_c2(group: PermGroup) -> PermGroup:
    """G wr C2 on two copies of G's n points: each generator of G moving
    the first copy, and the swap of point i with point n + i."""
    n = group.degree
    gens = [Permutation(list(g.images) + list(range(n, 2 * n))) for g in group.generators]
    return PermGroup(gens + [Permutation([*range(n, 2 * n), *range(n)])])


def orbit_labels(degree, gens):
    """For each point, the smallest point of its orbit under the image
    tuples ``gens``, by a breadth-first walk from each smallest point."""
    label = list(range(degree))
    for start in range(degree):
        if label[start] != start:
            continue
        frontier = [start]
        while frontier:
            new_pts = []
            for pt in frontier:
                for g in gens:
                    img = g[pt]
                    if label[img] == img and img != start:
                        label[img] = start
                        new_pts.append(img)
            frontier = new_pts
    return label


def det(field, m):
    """The determinant of the square matrix ``m`` over ``field`` by the
    Leibniz formula, the sum over all permutations s of sign(s) times
    m[0][s(0)] ... m[n-1][s(n-1)]; a test oracle, n! terms."""
    n, total = len(m), 0
    for s in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term = field.mul[term][m[i][s[i]]]
        inversions = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        total = field.add[total][field.neg[term] if inversions % 2 else term]
    return total


def group_elements(group, cap=DEFAULT_CAP):
    """The group's elements as a set of image tuples, flattened from the
    classes of ``invariants._classes``, the one walk that lists a group."""
    return {z for members in invariants._classes(group, cap) for z in members}


def assert_revision(pin, revised, declared):
    """Assert that the report ``revised`` differs from the pinned report
    ``pin`` only in the rows whose check ids are ``declared``.  Both are
    JSON text as ``VerificationReport.to_json`` writes it (a pin has no
    timestamp line).  The version is the same; every pinned row whose id
    is not declared is still there, byte for byte and in the same
    relative order; every new id is declared; and the summary is the
    tally of the revised rows."""
    old, new = (dict(json.loads(text, object_pairs_hook=list)) for text in (pin, revised))
    assert new["version"] == old["version"]
    declared = set(declared)

    def kept(report):  # each row as the JSON of its (key, value) pairs, in written order
        return [json.dumps(row) for row in report["results"]
                if dict(row)["check_id"] not in declared]
    pinned_ids = {dict(row)["check_id"] for row in old["results"]}
    new_ids = [dict(row)["check_id"] for row in new["results"]]
    assert set(new_ids) - pinned_ids <= declared, "a new check id is not declared"
    assert kept(new) == kept(old), "an undeclared row changed, moved or went"
    tally = {"pass": 0, "fail": 0, "not_checked": 0}
    for row in new["results"]:
        tally[dict(row)["status"]] += 1
    assert dict(new["summary"]) == tally
