"""Conjugacy-class invariants of a permutation group.

For a finite group G with distinct class sizes n_1 < n_2 < ... the
objects computed here are:

* the class size multiset cs(G) and the ascending distinct-size vector
  V(G), whose length minus one is the *conjugate type rank*;
* u(n) = number of elements whose class has size n, equal to n times the
  number of classes of that size;
* the same-size class set U(G) = set of distinct u values (distinct
  sizes can share a count, so U may be smaller than the size vector);
* the prime divisor set of |G|.

A class size is |G|/|C_G(x)|, so :func:`profile` needs one representative
per class and its centraliser order, not the elements of G.  It draws
uniform random elements from the group's :class:`usets.perm.BSGS` (one
transversal element per level, from a fixed-seed generator, so runs
repeat exactly) and takes each draw's powers too.  One backtrack
search over the chain, :func:`_conjugacy_search`, which reads its stored
inverses and orbit labels as they are (:func:`usets.perm._join_orbits`
labels those and the orbits of the subgroups it grows) and strips by
:mod:`usets.perm`'s kernel, does the rest:
:func:`_conjugator` sets it up once per conjugacy test, pruned by the
known centraliser of the representative, and :func:`_centralizer` once
per level of its subgroup search for C_G(x) that needs a search.  The
search refutes each child by the chain's orbit labels before it assigns
or composes anything for it, follows levels whose image is already fixed
without a test, and accepts a leaf only if it conjugates on every point:
that leaf test is the exact check.  A :class:`_Budget` counts search
nodes, refuted children included, and draws.

The sampler keeps one table, by cycle type, of each class's
representative x, |C_G(x)| and generators of C_G(x), and stops when the
class equation sum |G|/|C_G(x_i)| = |G| closes, which certifies that
every class was found.  A chain of order n! or n!/2 on n points is S_n
or A_n, and there an S_n-class is one G-class unless G = A_n and the
parts of its cycle type are odd and distinct, the one case where
C_{S_n}(x) lies in A_n (James and Kerber, *The Representation Theory of
the Symmetric Group*, 1981); so a draw of any other type that already
has a class is discarded with no search.  Past :func:`_walk_budget`
(groups with many classes of one cycle type), or at once for an abelian
group, whose classes all have size 1, :func:`_class_table` falls back to
the one walk that lists the group, :func:`_classes`, and raises
RuntimeError if a size the sampler found has no class there, as an
overstated |C_G(x)| would; else the table holds one record per class of
the walk.  :func:`profile` and :func:`centralizer_count` read that one
table.

That walk lists the group and partitions it into classes in one
traversal: each member of a known class is multiplied by every
generator, and an element not seen yet opens a new class, grown at once
under conjugation by the generators, distinct, identity dropped and
sorted.  :func:`conjugacy_classes` reads the minimal member of each
class from it, in canonical order (by size, then by that
representative), independent of the order in which generators were
supplied.

:func:`centralizer_count` needs, per class, |x^G| and the elements that
share C(x), B(x) = {z in Z(C(x)) : |C(z)| = |C(x)|}.  One routine,
:func:`_centralizer_terms`, reads them from the class table: once per
distinct B(x), for the first record whose representative lies in no B(y)
found before, it lists C(x) from its generators (searched for a walk's
record) and keeps the members that commute with each and have the
centraliser order of x.  All three take a ``cap`` on the group order, by
default :data:`usets.perm.DEFAULT_CAP`, and refuse a larger group with
:class:`usets.perm.GroupTooLargeError` whichever path they would take.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Callable, Mapping, NamedTuple, Sequence

from .patterns import factorize
from .perm import (BSGS, DEFAULT_CAP, PermGroup, Permutation, RawPerm, _compose, _cycles,
                   _inverse, _join_orbits, _strip_kernel, check_cap)

#: Seed of the element sampler; any fixed value gives the same profiles.
_SAMPLER_SEED = 0


class ConjClass(NamedTuple):
    representative: Permutation  # minimal class member in image-tuple order
    size: int
    element_order: int


class InvariantProfile(NamedTuple):
    group_order: int
    class_sizes: tuple[int, ...]   # one entry per class, ascending
    V: tuple[int, ...]             # distinct sizes, ascending
    rank: int                      # len(V) - 1
    class_count: int               # number of conjugacy classes
    u_map: Mapping[int, int]       # class size -> element count u(size)
    U: frozenset[int]              # distinct u values
    pi: frozenset[int]             # primes dividing the group order

    def u_multiset(self) -> tuple[int, ...]:
        """All u values, one per distinct size, ascending; sums to |G|."""
        return tuple(self.u_map[n] for n in self.V)

    def as_dict(self) -> dict:
        """Serializable form with stable field names."""
        return {
            "order": self.group_order,
            "class_sizes": list(self.class_sizes),
            "V": list(self.V),
            "rank": self.rank,
            "class_count": self.class_count,
            "u_map": {str(n): self.u_map[n] for n in self.V},
            "U": sorted(self.U),
            "pi": sorted(self.pi),
        }


def _walk_generators(group: PermGroup) -> list[RawPerm]:
    """The group's generators, distinct, identity dropped and sorted: the
    class walk's, whatever order they were supplied in, in the internal
    form (:func:`usets.perm._raw`), which sorts as the tuples do."""
    return sorted({g.raw for g in group.generators} - {group.bsgs.identity})


def _classes(group: PermGroup, cap: int) -> list[list[RawPerm]]:
    """The conjugacy classes of the group, each as the list of its members,
    from one walk that lists the group and partitions it.

    Every member of every class found is multiplied by each generator; an
    element not seen yet opens a new class, walked at once breadth-first
    under conjugation by the pairs (g, g^-1) of :func:`_walk_generators`.
    Raises :class:`GroupTooLargeError` above ``cap`` before any work.
    """
    order = group.order()
    check_cap(order, cap)
    pairs = [(g, _inverse(g)) for g in _walk_generators(group)]
    identity = group.bsgs.identity
    seen = {identity}
    classes = [[identity]]
    for members in classes:  # classes grows while it is read
        for z in members:
            for s, _ in pairs:
                y = _compose(z, s)
                if y not in seen:
                    seen.add(y)
                    found = [y]
                    for w in found:  # found grows while it is read
                        for g, ginv in pairs:
                            c = _compose(_compose(ginv, w), g)  # conjugate of w by g
                            if c not in seen:
                                seen.add(c)
                                found.append(c)
                    classes.append(found)
    if len(seen) != order:
        raise RuntimeError(f"enumeration produced {len(seen)} elements, BSGS order is {order}")
    return classes


def conjugacy_classes(group: PermGroup, cap: int = DEFAULT_CAP) -> list[ConjClass]:
    """All conjugacy classes, sorted by (size, representative images)."""
    found = sorted((len(members), min(members)) for members in _classes(group, cap))
    return [ConjClass(Permutation._wrap(rep), size, math.lcm(*map(len, _cycles(rep)[0])))
            for size, rep in found]


class _WorkLimitExceeded(Exception):
    """The searches and draws of one profile went past its work budget."""


class _Budget:
    """Counts search nodes and sampled elements; past ``limit`` the next
    one raises :class:`_WorkLimitExceeded`.  A draw ticks it;
    :func:`_conjugacy_search` counts its nodes itself, into ``work``."""

    def __init__(self, limit: int):
        self.work = 0
        self.limit = limit

    def tick(self) -> None:
        self.work += 1
        if self.work > self.limit:
            raise _WorkLimitExceeded


def _walk_budget(group: PermGroup) -> _Budget:
    """The sampler's work budget: what :func:`_classes` costs, |G|
    conjugations per generator it walks by."""
    return _Budget(group.order() * len(_walk_generators(group)))


def _random_element(bsgs: BSGS, rng: random.Random, budget: _Budget) -> RawPerm:
    """A uniform element u_0(u_1(...u_{k-1}(p))) with one random
    transversal element per level."""
    budget.tick()
    g = bsgs.identity
    for level in reversed(bsgs.transversals):
        g = _compose(g, rng.choice(level))
    return g


class _Commuting:
    """The search record of a representative y: elements known to commute
    with y, y first, orbits of subsets of them, and the points bucketed by
    ``lengths``, y's cycle lengths, which its coprime powers share."""

    __slots__ = ("elements", "by_len", "_labels")

    def __init__(self, degree: int, y: RawPerm, lengths: list[int]):
        self.elements = [y]  # only ever appended to
        self.by_len: dict[int, list[int]] = {}  # the points, ascending, by cycle length
        for p, n in enumerate(lengths):
            self.by_len.setdefault(n, []).append(p)
        self._labels: dict[tuple[int, ...], Sequence[int]] = {(): range(degree)}

    def fixing(self, points: Sequence[int]) -> tuple[int, ...]:
        """The indices of the elements that fix every one of ``points``."""
        if not points:
            return tuple(range(len(self.elements)))
        return tuple(i for i, h in enumerate(self.elements) if all(h[p] == p for p in points))

    def labels(self, subset: tuple[int, ...]) -> Sequence[int]:
        """Orbit labels, each point's smallest orbit point, under the
        elements at the indices ``subset``, grown from the labels of
        ``subset[:-1]`` by :func:`usets.perm._join_orbits`."""
        labels = self._labels.get(subset)
        if labels is None:
            labels = self._labels[subset] = _join_orbits(self.labels(subset[:-1]),
                                                         self.elements[subset[-1]])
        return labels


def _conjugator(bsgs: BSGS, x: RawPerm, x_len: list[int], y: RawPerm,
                cent: _Commuting, budget: _Budget) -> RawPerm | None:
    """g^-1 for an element g of G with g(x(p)) = y(g(p)) for every point p
    (g conjugates x to y), or None if x and y are not conjugate.  ``x_len``
    is the cycle lengths of x; ``cent`` is the search record of y, with
    elements of C_G(y) and y's cycle-length buckets.  One
    :func:`_conjugacy_search`, set up for this call; its leaf test is the
    one that accepts g.
    """
    return _conjugacy_search(bsgs, x, x_len, y, cent, budget, 0)(
        None, cent.fixing(()))


def _conjugacy_search(bsgs: BSGS, x: RawPerm, x_len: list[int], y: RawPerm,
                      cent: _Commuting, budget: _Budget,
                      level: int) -> Callable[[int | None, tuple[int, ...]], RawPerm | None]:
    """A backtrack search for elements g of G^(level), the elements fixing
    base[:level], that conjugate x to y; with level > 0, y must be x.  It
    is set up once for x, y and ``level``: ``find(image, fixing)`` returns
    g^-1 for one such g with g(base[level]) = ``image`` (any image if
    None; a given image lies on a y-cycle of base[level]'s x-cycle length),
    or None if there is none, where ``fixing`` indexes the elements of
    ``cent`` that fix base[:level].  The search leaves its state as it
    found it, so :func:`_centralizer` runs every candidate image of one
    level through one setup.

    A group element is g = t_j(h) with t_j = u_0 u_1 ... u_{j-1} fixed by
    the choices at levels 0..j-1 and h in G^(j).  ``phi`` holds the
    images g must have: choosing g(b) for a base point b fixes g on the
    whole x-cycle of b, by g(x^i(b)) = y^i(g(b)), and g(b) must lie on a
    y-cycle of the same length that no other x-cycle maps to.  An element
    of G^(level) that commutes with x fixes the x-cycles of base[:level]
    pointwise, so the search starts with those, and the root needs no
    test: t_level = 1 maps each of them to itself.

    A child is refuted before it is entered: for every p with a required
    image, h(p) = t_{j+1}^-1(phi[p]) must lie in the G^(j+1)-orbit of p,
    tested first along the new cycle, then on the points assigned before,
    by reading t_{j+1}^-1 = t_j^-1 u_j^-1 point by point.  Only a child
    that passes gets its cycle assigned and t_{j+1}^-1 composed.  A level
    whose base point already has its image is forced: its representative
    is read from the stored inverses with no orbit test, and a missing
    one ends the branch.  So a forced chain runs on to the leaf, a single
    element held as g^-1, nothing inverted, and the leaf's test that g
    conjugates x to y on every point, x g^-1 = g^-1 y, is the exact check
    that accepts it: the orbit tests along the forced levels are skipped.
    A wrong leaf would fail ``test_conjugator_counts_match_brute_force``,
    which checks every answer against a brute-force count of conjugators,
    and dropping the leaf test fails ``test_psl_2_11_profile``.

    If g conjugates x to y, so does h g for every h in C_G(y), in the same
    subtree if h fixes the images chosen so far; so a level tries one
    image per orbit of the elements of ``cent`` that fix them.

    The search strips t^-1 by the chain's stored inverses, read by point,
    with the kernel :func:`usets.perm._sift` calls
    (:func:`usets.perm._strip_kernel`), so it names no internal form.  It
    counts its nodes, each ``find`` call, forced level and child that
    reaches the orbit tests, in a local count that each ``find`` takes
    from ``budget`` and hands back when it returns or raises, with no
    call per node; past the budget's limit the node raises
    :class:`_WorkLimitExceeded`, as :meth:`_Budget.tick` would.
    """
    degree, base, labels, inverses = bsgs.degree, bsgs.base, bsgs.orbit_labels, bsgs.inverses
    depth, strip, limit = len(base), _strip_kernel(degree), budget.limit
    elements, by_len = cent.elements, cent.by_len
    work = 0  # the budget's count, held here while a find runs
    phi = [-1] * degree
    taken = bytearray(degree)  # points already in the image of phi
    assigned: list[int] = []   # the points phi is defined on
    for b in base[:level]:
        while phi[b] < 0:  # around the x-cycle of b
            phi[b] = b
            taken[b] = 1
            assigned.append(b)
            b = x[b]

    def search(again: Callable, j: int, hinv: RawPerm, fixing: tuple[int, ...],
               image: int | None = None) -> RawPerm | None:
        """Extend t_j, given as its inverse; ``fixing`` indexes the elements
        of ``cent`` that fix every image chosen so far, and ``image``, given
        only at the first level, is the one image to try there.  ``again`` is
        this function, passed so no cycle keeps the search alive after it."""
        nonlocal work
        while j < depth and phi[base[j]] >= 0:  # a forced level
            work += 1
            if work > limit:
                raise _WorkLimitExceeded
            uinv = inverses[j][hinv[phi[base[j]]]]
            if uinv is None:
                return None
            hinv = strip(hinv, uinv)
            j += 1
        if j == depth:
            return hinv if _compose(hinv, x) == _compose(y, hinv) else None
        b = base[j]
        label, after, inverse = labels[j], labels[j + 1], inverses[j]
        length = x_len[b]
        if image is not None:
            choices: Sequence[int] = (image,)
        else:
            choices = by_len.get(length, ())
            if fixing:
                orbit = cent.labels(fixing)
                choices = [c for c in choices if orbit[c] == c]
        target = label[b]
        for c in choices:
            if taken[c] or label[hinv[c]] != target:
                continue
            work += 1
            if work > limit:
                raise _WorkLimitExceeded
            uinv = inverse[hinv[c]]
            # the level-(j+1) labels under t_{j+1}^-1 = t_j^-1 u_j^-1, on the
            # new cycle, then on the points assigned before: a child that
            # passes both loops is entered, with nothing built before
            p, q = x[b], y[c]
            for _ in range(length - 1):  # (b, c) itself maps to b
                if after[uinv[hinv[q]]] != after[p]:
                    break
                p, q = x[p], y[q]
            else:
                for p in assigned:
                    if after[uinv[hinv[phi[p]]]] != after[p]:
                        break
                else:
                    p, q = b, c
                    for _ in range(length):
                        phi[p] = q
                        taken[q] = 1
                        assigned.append(p)
                        p, q = x[p], y[q]
                    kept = tuple(i for i in fixing if elements[i][c] == c) if fixing else ()
                    found = again(again, j + 1, strip(hinv, uinv), kept)
                    for _ in range(length):
                        p = assigned.pop()
                        taken[phi[p]] = 0
                        phi[p] = -1
                    if found is not None:
                        return found
        return None

    identity = bsgs.identity

    def find(image: int | None, fixing: tuple[int, ...]) -> RawPerm | None:
        nonlocal work
        work = budget.work + 1
        try:
            if work > limit:
                raise _WorkLimitExceeded
            return search(search, level, identity, fixing, image)
        finally:
            budget.work = work
    return find


def _centralizer(bsgs: BSGS, x: RawPerm, x_len: list[int],
                 budget: _Budget) -> tuple[int, _Commuting]:
    """|C_G(x)| and a :class:`_Commuting` of generators of C_G(x), x first,
    by a subgroup search over the chain (Butler, LNCS 559, 1991; Leon,
    J. Symb. Comput. 12, 1991).

    C^(j) denotes the elements of C_G(x) that fix base[:j], and so the
    x-cycles of those points.  The levels are taken deepest first.  At
    level j, H <= C^(j) is generated by the elements found so far that fix
    base[:j].  Each candidate image c of b = base[j] (on an x-cycle of b's
    length, in b's G^(j)-orbit) outside b's H-orbit gets a search, set up
    by :func:`_conjugacy_search` once per level that needs one, for an
    element of C^(j) mapping b to c, which joins the generators.  If there
    is none, none maps b into the H-orbit of c either, however large H
    grows, and that orbit is skipped for the rest of the level.  At the
    end b's H-orbit is its C^(j)-orbit and H = C^(j); so |C_G(x)| is the
    product of the final orbit lengths.
    """
    base, depth = bsgs.base, len(bsgs.base)
    first = [depth] * bsgs.degree  # the first base point on each point's x-cycle, by index
    for i, b in enumerate(base):
        while first[b] == depth:  # around the x-cycle of b, unless one before was on it
            first[b] = i
            b = x[b]
    found = _Commuting(bsgs.degree, x, x_len)
    order = 1
    for j in reversed(range(depth)):
        b, label = base[j], bsgs.orbit_labels[j]
        if first[b] < j:  # C^(j) fixes the x-cycles of base[:j] pointwise
            continue
        find = None
        fixing = found.fixing(base[:j])
        orbit = found.labels(fixing)
        failed: set[int] = set()  # labels of H-orbits no element of C^(j) maps b into
        for c in found.by_len[x_len[b]]:
            if (orbit[c] == orbit[b] or orbit[c] in failed or label[c] != label[b]
                    or first[c] < j):
                continue
            if find is None:
                find = _conjugacy_search(bsgs, x, x_len, x, found, budget, j)
            hinv = find(c, fixing)
            if hinv is None:
                failed.add(orbit[c])
            else:  # an element of G^(j), so it fixes base[:j]
                fixing += (len(found.elements),)
                found.elements.append(hinv)
                orbit = found.labels(fixing)
                failed = {orbit[f] for f in failed}  # an old label is a point of its orbit
        order *= orbit.count(orbit[b])
    return order, found


def _power_kernel(bsgs: BSGS, powers: list[RawPerm], lengths: list[int], cent: _Commuting,
                  budget: _Budget) -> set[int]:
    """K = {k coprime to m : x^k ~ x} for x = powers[1] of order m =
    len(powers), with ``powers[k]`` = x^k and ``cent`` generators of C_G(x).

    K is a subgroup of the units mod m, so each k found in it is closed
    into it under multiplication, and each f found outside it rules out
    its whole coset fK.  A unit is tested against x only if neither
    already decides it, k = m - 1 first: x^-1 ~ x for a real class, as
    most classes of the groups here are.
    """
    m, x = len(powers), powers[1]
    kernel, outside = {1}, set()
    for k in [m - 1, *range(2, m - 1)]:
        if k in kernel or k in outside or math.gcd(k, m) != 1:
            continue
        if _conjugator(bsgs, powers[k], lengths, x, cent, budget) is None:
            outside.update(k * j % m for j in kernel)
            continue
        grown, power = set(kernel), k  # <K, k> is the union of the cosets k^i K
        while power not in kernel:
            grown.update(power * j % m for j in kernel)
            power = power * k % m
        kernel = grown
        outside = {f * j % m for f in outside for j in kernel}
    return kernel


def _sampled_class_sizes(bsgs: BSGS, budget: _Budget, classes: dict) -> None:
    """Fill ``classes``, the one class table: cycle type -> a record (x,
    |C_G(x)|, the :class:`_Commuting` of C_G(x)) per class of that type, x
    its representative, added as it is found, so a caller whose budget
    trips has them.  The identity's record has no :class:`_Commuting`, and
    the classes of one rational class share one.

    An element opens a new class unless it is conjugate to a known
    representative of its cycle type, each test pruned by the generators
    of C_G(r) in the representative r's record.  Random elements are
    classified until the class sizes add up to |G|.

    A new representative x of order m gets C_G(x) from
    :func:`_centralizer` and brings its rational class along: K = {k :
    x^k ~ x} is a subgroup of the units mod m, found by
    :func:`_power_kernel` from tests of coprime powers against x alone,
    and each coset kK is one class, of x^k, with C_G(x^k) = C_G(x).  All
    of them join the known representatives, which so stay closed under
    coprime powers; so no x^k is conjugate to an earlier one.  The powers
    x^d for the proper divisors d > 1 of m are classified next: they
    reach classes of small size, which random elements rarely hit, and
    every other power of x is a coprime power of one of them.

    In S_n or A_n on n points (the chain's order is n! or n!/2), a type
    whose S_n-class is one G-class, any type in S_n and one with an even
    or a repeated part in A_n, needs no test: a later draw of it is
    discarded, and its representative's kernel is every unit.  Its size
    still comes from :func:`_centralizer`, and only draws that lie in a
    known class are discarded, so an understated |C_G(x)| still
    overshoots |G| and raises.
    """
    order, degree, identity = bsgs.order(), bsgs.degree, bsgs.identity
    # G is S_n or A_n, the only subgroups of S_n of these orders
    symmetric = order == math.factorial(degree)
    alternating = 2 * order == math.factorial(degree)
    classes[(1,) * degree] = [(identity, order, None)]
    total = 1
    pending: list[RawPerm] = []  # powers x^d of new representatives
    rng = random.Random(_SAMPLER_SEED)
    while total < order:
        x = pending.pop() if pending else _random_element(bsgs, rng, budget)
        if x == identity:
            continue
        lengths = _cycles(x)[1]
        known = classes.setdefault(tuple(sorted(lengths)), [])
        # x's S_n-class is one G-class: no parts odd and distinct in A_n
        one = symmetric or alternating and any(
            c != n or n % 2 == 0 for n, c in Counter(lengths).items())
        if known and (one or any(_conjugator(bsgs, x, lengths, r, cent, budget) is not None
                                 for r, _, cent in known)):
            continue
        count, cent = _centralizer(bsgs, x, lengths, budget)
        m = math.lcm(*lengths)
        powers = [identity, x]  # powers[k] = x^k
        while len(powers) < m:
            powers.append(_compose(powers[-1], x))
        kernel = range(m) if one else _power_kernel(bsgs, powers, lengths, cent, budget)
        covered: set[int] = set()
        for k in range(1, m):
            if math.gcd(k, m) == 1 and k not in covered:  # a new coset kK
                covered.update(k * j % m for j in kernel)
                known.append((powers[k], count, cent))
                total += order // count
        pending += [powers[d] for d in range(2, m) if m % d == 0]
    if total != order:
        raise RuntimeError(f"class sizes add up to {total}, group order is {order}")


def _class_table(group: PermGroup, cap: int) -> dict:
    """The class table, cycle type -> [(x, |C_G(x)|, the :class:`_Commuting`
    of C_G(x) or None)]: the sampler's, or past :func:`_walk_budget` one
    record per class of the walk, with none, once every size the sampler
    found has a class there.  Generators that commute, point by point,
    skip the sampler, which could only run to its budget.  A group above
    ``cap`` is refused first.
    """
    order = group.order()
    check_cap(order, cap)
    table: dict = {}
    gens, found = _walk_generators(group), Counter()
    if any(g[h[p]] != h[g[p]] for i, g in enumerate(gens) for h in gens[:i]
           for p in range(group.degree)):
        try:
            _sampled_class_sizes(group.bsgs, _walk_budget(group), table)
            return table
        except _WorkLimitExceeded:
            found = Counter(order // count for same in table.values() for _, count, _ in same)
    walked = _classes(group, cap)
    if unmatched := found - Counter(map(len, walked)):
        raise RuntimeError(f"no enumerated class has the sampled sizes {sorted(unmatched)}")
    table = {}
    for members in walked:
        record = (members[0], order // len(members), None)
        table.setdefault(tuple(sorted(_cycles(members[0])[1])), []).append(record)
    return table


def profile(group: PermGroup, cap: int = DEFAULT_CAP) -> InvariantProfile:
    """The full invariant profile; see the module docstring.

    Raises :class:`GroupTooLargeError` when the group order exceeds ``cap``.
    """
    table, order = _class_table(group, cap), group.order()
    return _profile_from_sizes(order, [order // c for same in table.values() for _, c, _ in same])


def _profile_from_sizes(order: int, sizes: Sequence[int]) -> InvariantProfile:
    counts = Counter(sizes)
    distinct = tuple(sorted(counts))
    u_map = {n: n * counts[n] for n in distinct}
    return InvariantProfile(
        group_order=order,
        class_sizes=tuple(sorted(sizes)),
        V=distinct,
        rank=len(distinct) - 1,
        class_count=len(sizes),
        u_map=u_map,
        U=frozenset(u_map.values()),
        pi=frozenset(factorize(order)),
    )


def centralizer_count(group: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """Number of distinct centralizer subgroups {C(x) : x in G}.

    C(z) = C(x) holds iff z lies in Z(C(x)) and |C(z)| = |C(x)|: such a z
    commutes with all of C(x), so C(x) <= C(z), and equal orders make the
    two equal; conversely z lies in C(z) = C(x) and commutes with all of
    it.  So the elements sharing the centralizer of x are B(x) = {z in
    Z(C(x)) : |C(z)| = |C(x)|}, and the sum over x in G of 1/|B(x)| counts
    each centralizer once.  |B(x)| is constant on a class, so the count is
    the sum of |x^G|/|B(x)| over the classes, taken here over a common
    denominator in integers: importing :mod:`fractions` would cost every
    process that imports the package about 0.7 MB of RSS.

    The terms are :func:`_centralizer_terms` of :func:`_class_table`, the
    table :func:`profile` reads.  A group above ``cap`` is refused first.
    """
    terms = _centralizer_terms(group.bsgs, _class_table(group, cap))
    denominator = math.lcm(*(shared for _, shared in terms))
    total = sum(size * (denominator // shared) for size, shared in terms)
    if total % denominator:
        raise RuntimeError(f"centralizers counted {total}/{denominator} times, not a whole number")
    return total // denominator


def _centralizer_terms(bsgs: BSGS, table: dict) -> list[tuple[int, int]]:
    """(|x^G|, |B(x)|) per record of the class table; B(x) = Z(G) for a
    central x.  C(z) = C(y) exactly when z lies in B(y), so each B(y)
    found keeps |C(y)| and |B(y)| for every member, and a later record
    whose representative is one takes its term from there; the classes of
    a rational class so share one, since coprime powers of y lie in B(y).
    Any other record lists C(x) from its generators, taken from
    :func:`_centralizer` for a walk's record, which has none, and B(x) is
    the members that commute with each generator and have |C(z)| = |C(x)|,
    found once per z: the record's own for the identity and a walk's
    representative, which is exact (a sampled one, understated, could join
    a neighbour's B(y)), else read from the table unless z's cycle type
    has classes of more than one centraliser order, else searched.  A listing
    short of |C(x)|, or a record whose |C(x)| is not that of the B(y) it
    lies in, raises RuntimeError.  Every step ends, so no budget is kept.
    """
    order, identity = bsgs.order(), bsgs.identity
    unbounded = _Budget(math.inf)
    records = [record for same in table.values() for record in same]
    central = sum(count == order for _, count, _ in records)
    shared: dict[RawPerm, tuple[int, int]] = {}  # z in a B(y) found -> (|C(y)|, |B(y)|)
    z_counts = {x: count for x, count, cent in records if cent is None}  # |C(z)| by z
    terms = []
    for x, count, cent in records:
        if count == order:
            terms.append((1, central))
            continue
        if x not in shared:
            if cent is None:
                cent = _centralizer(bsgs, x, _cycles(x)[1], unbounded)[1]
            gens = cent.elements
            members, seen = [identity], {identity}
            for z in members:  # members grows while it is read
                for g in gens:
                    y = _compose(z, g)
                    if y not in seen:
                        seen.add(y)
                        members.append(y)
            if len(members) != count:
                raise RuntimeError(f"C(x) lists {len(members)} elements, its search gave {count}")
            b = []
            for z in members:
                if all(_compose(z, g) == _compose(g, z) for g in gens):
                    if z not in z_counts:
                        lengths = _cycles(z)[1]
                        same = table[tuple(sorted(lengths))]  # the classes of z's cycle type
                        z_counts[z] = same[0][1]
                        if any(c != z_counts[z] for _, c, _ in same):
                            z_counts[z] = _centralizer(bsgs, z, lengths, unbounded)[0]
                    if z_counts[z] == count:
                        b.append(z)
            shared.update(dict.fromkeys(b, (count, len(b))))
        y_count, b_size = shared.get(x, (None, 0))
        if y_count != count:
            raise RuntimeError(f"a record gives |C(x)| = {count}, the B(y) that holds x {y_count}")
        terms.append((order // count, b_size))
    return terms
