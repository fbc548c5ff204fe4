"""Groups the tests use that the package does not build, direct and
wreath products of groups, random elements of S_k wr S_m and S_a x S_b
and of products of catalog groups, named package groups that several
tests share, the class sizes of A_n, S_n and PSL(2,q) in closed form, a
digest of a group's chain and its stored inverses by orbit point, an
independent orbit walk, a Leibniz determinant, the group's elements and
class sizes read off the package's class walk, the sampler's class
sizes, the README's command lines and the test of a report revision
against a pinned report.

``wrap`` replaces a package function for one test with one that is
handed the original, and the tests plant and watch package calls
through it: ``spy`` records each call's arguments, ``forbid`` makes a
call fail the test, and ``plant_centralizer`` changes the |C(x)| that
``invariants._centralizer`` finds."""

import functools
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

from hypothesis import strategies as st

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


def generated(degree, *generators):
    """The group generated by permutations given as lists of cycles."""
    return PermGroup([Permutation.from_cycles(degree, *cycles) for cycles in generators])


def c2_6_x_s3():
    """C2^6 x S3: each S3 class times the 64 central elements of C2^6."""
    return generated(15, *([(2 * i, 2 * i + 1)] for i in range(6)), [(12, 13)], [(12, 13, 14)])


def d100():
    """D100 of order 200: {1, r^50}, the pairs {r^k, r^-k}, two reflection
    classes."""
    return PermGroup([Permutation.from_cycles(100, tuple(range(100))),
                      Permutation([-p % 100 for p in range(100)])])


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


#: (k, m) with km <= 12 and |S_k wr S_m| = k!^m m! <= 5*10^4, and (a, b)
#: with a + b <= 10 and |S_a x S_b| = a! b! <= 5*10^4.
WREATH_SHAPES = [(k, m) for k in range(2, 7) for m in range(2, 7)
                 if k * m <= 12 and math.factorial(k) ** m * math.factorial(m) <= 50_000]
PRODUCT_SHAPES = [(a, b) for a in range(1, 10) for b in range(1, 11 - a)
                  if math.factorial(a) * math.factorial(b) <= 50_000]


@st.composite
def wreath_or_product_elements(draw):
    """2-3 random elements of S_k wr S_m, which maps point ik + j to
    s(i)k + t_i(j), or of S_a x S_b, which permutes the first a points and
    the last b among themselves; they generate a group of order at most
    5*10^4, often with a centre, many classes per cycle type and an
    imprimitive or intransitive action."""
    wreath = draw(st.booleans())
    x, y = draw(st.sampled_from(WREATH_SHAPES if wreath else PRODUCT_SHAPES))
    elements = []
    for _ in range(draw(st.integers(2, 3))):
        if wreath:
            images = []
            for block in draw(st.permutations(range(y))):
                images += [block * x + j for j in draw(st.permutations(range(x)))]
        else:
            images = draw(st.permutations(range(x)))
            images += [x + j for j in draw(st.permutations(range(y)))]
        elements.append(Permutation(images))
    return elements


#: Products of catalog groups, of orders 3 600 to 28 224.
CATALOG_PRODUCTS = {
    "A5xA5": lambda: direct_product(alternating_group(5), alternating_group(5)),
    "A5wrC2": lambda: wreath_c2(alternating_group(5)),
    "A5xPSL(2,7)": lambda: direct_product(alternating_group(5), psl_group(2, 7)),
    "A6xA5": lambda: direct_product(alternating_group(6), alternating_group(5)),
    "PSL(2,7)xPSL(2,7)": lambda: direct_product(psl_group(2, 7), psl_group(2, 7)),
}


@functools.cache
def catalog_product(name):
    """The group ``CATALOG_PRODUCTS[name]``, built once per run."""
    return CATALOG_PRODUCTS[name]()


@st.composite
def catalog_product_elements(draw):
    """2-3 uniform elements of one of ``CATALOG_PRODUCTS``, each composed
    of one transversal element per level of its chain, deepest level
    first, as the sampler draws; they generate a subgroup of it, often
    the whole product, with many classes per cycle type."""
    bsgs = catalog_product(draw(st.sampled_from(sorted(CATALOG_PRODUCTS)))).bsgs
    elements = []
    for _ in range(draw(st.integers(2, 3))):
        g = Permutation.identity(bsgs.degree)
        for level in reversed(bsgs.transversals):
            g = g * Permutation(draw(st.sampled_from(level)))
        elements.append(g)
    return elements


def sampled_class_sizes(group):
    """The sorted class sizes of the sampler's class table, with a budget
    that never trips."""
    table = {}
    invariants._sampled_class_sizes(group.bsgs, invariants._Budget(10 ** 9), table)
    return sorted(group.order() // count for same in table.values() for _, count, _ in same)


def walked_class_sizes(group):
    """The sorted class sizes of the class walk."""
    return sorted(map(len, invariants._classes(group, DEFAULT_CAP)))


def cycle_types(n):
    """Each cycle type of S_n as (parts, z), the parts descending and z =
    prod length^mult mult! the order of its centraliser in S_n."""
    def partitions(rest, largest):
        if rest == 0:
            yield []
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield [part] + tail

    for parts in partitions(n, n):
        z = 1
        for length, mult in Counter(parts).items():
            z *= length ** mult * math.factorial(mult)
        yield parts, z


def alternating_class_sizes(n):
    """Class sizes of A_n from cycle types: n!/z for each even cycle type,
    split into two halves when the parts are distinct and odd."""
    sizes = []
    for parts, z in cycle_types(n):
        if (n - len(parts)) % 2:
            continue
        size = math.factorial(n) // z
        if len(set(parts)) == len(parts) and all(p % 2 for p in parts):
            sizes += [size // 2, size // 2]
        else:
            sizes.append(size)
    return sorted(sizes)


def symmetric_class_sizes(n):
    """Class sizes of S_n from cycle types: n!/z for each, none split."""
    return sorted(math.factorial(n) // z for _, z in cycle_types(n))


def psl2_class_sizes(q):
    """Class sizes of PSL(2,q), q a prime power, in closed form (Dornhoff,
    *Group Representation Theory* A, 1971, the chapter on SL(2,q)).  For q
    even: 1, q^2 - 1, then (q-2)/2 classes of size q(q+1) and q/2 of size
    q(q-1).  For q odd and q = e (mod 4), e = +-1: 1, two classes of size
    (q^2-1)/2 and one of size q(q+e)/2, then (q-4-e)/4 classes of size
    q(q+1) and (q-2+e)/4 of size q(q-1)."""
    if q % 2 == 0:
        sizes = [1, q * q - 1] + [q * (q + 1)] * ((q - 2) // 2) + [q * (q - 1)] * (q // 2)
    else:
        e = 1 if q % 4 == 1 else -1
        sizes = [1, (q * q - 1) // 2, (q * q - 1) // 2, q * (q + e) // 2]
        sizes += [q * (q + 1)] * ((q - 4 - e) // 4) + [q * (q - 1)] * ((q - 2 + e) // 4)
    return sorted(sizes)


def words_and_swaps(group, seed, count, longest):
    """``count`` pairs of image tuples from ``random.Random(seed)``: a word
    of 1 to ``longest - 1`` of the group's generators, so a member, and
    that word followed by the transposition of two random points, which
    the group does not hold unless it has that transposition."""
    gens, n = [g.images for g in group.generators], group.degree
    rng, pairs = random.Random(seed), []
    for _ in range(count):
        word = tuple(range(n))
        for gen in rng.choices(gens, k=rng.randrange(1, longest)):
            word = tuple(gen[x] for x in word)
        a, b = rng.sample(range(n), 2)
        pairs.append((word, tuple(b if x == a else a if x == b else x for x in word)))
    return pairs


def chain_digest(group):
    """sha256 of the group's chain: its base, its strong generators in
    order and every transversal element in order, each as a tuple of
    images whatever its internal form."""
    bsgs = group.bsgs
    chain = (bsgs.base, tuple(g.images for g in bsgs.strong_generators),
             tuple(tuple(u) for level in bsgs.transversals for u in level))
    return hashlib.sha256(repr(chain).encode()).hexdigest()


def stored_inverses(level):
    """The (gamma, u^-1) pairs of a chain level's point-indexed inverses
    (:attr:`usets.perm.BSGS.inverses`), the points of the level's orbit
    ascending, as its transversal is ordered."""
    return [(gamma, uinv) for gamma, uinv in enumerate(level) if uinv is not None]


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
    return {tuple(z) for members in invariants._classes(group, cap) for z in members}


def readme_command_lines():
    """The ``usets ...`` lines of the README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("usets ")]


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


def wrap(monkeypatch, owner, name, around):
    """Replace ``owner.<name>``, until ``monkeypatch`` undoes it, with a
    function whose call ``f(*args)`` returns ``around(real, *args)``,
    ``real`` the function it replaces."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: around(real, *args))


def spy(monkeypatch, owner, name):
    """The list of the argument tuples of every call to ``owner.<name>``
    until ``monkeypatch`` undoes it, each call passed through."""
    calls = []

    def record(real, *args):
        calls.append(args)
        return real(*args)
    wrap(monkeypatch, owner, name, record)
    return calls


def forbid(monkeypatch, owner, name, reason):
    """Make every call to ``owner.<name>``, until ``monkeypatch`` undoes
    it, raise ``AssertionError(reason)``."""
    def refuse(_real, *_args):
        raise AssertionError(reason)
    wrap(monkeypatch, owner, name, refuse)


def plant_centralizer(monkeypatch, change, hit):
    """``invariants._centralizer`` with each |C(x)| it finds replaced by
    ``change(|C(x)|)`` where ``hit(bsgs, x, x_len)`` holds, its C(x)
    generators kept."""
    def planted(real, bsgs, x, x_len, budget):
        order, cent = real(bsgs, x, x_len, budget)
        return (change(order) if hit(bsgs, x, x_len) else order), cent
    wrap(monkeypatch, invariants, "_centralizer", planted)
