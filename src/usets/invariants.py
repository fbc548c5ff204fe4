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
per class and its class size, not the elements of G.  It draws uniform
random elements from the group's :class:`usets.perm.BSGS` (one
transversal element per level, from a fixed-seed generator, so runs
repeat exactly) and takes each draw's powers too.  A backtrack search
over the same chain, :func:`_conjugators`, counts conjugators without
listing them: it tests x against the known representatives of its cycle
type and gives |C_G(x)|.  It reads the chain's stored inverses and orbit
labels as they are, and a :class:`_Budget` counts its work.

Each class size comes from the cheaper side of |x^G| |C_G(x)| = |G|
(:func:`_class_size`), and a new representative brings the classes of
its coprime powers along, with no search of their own.
Sampling stops when the class equation sum |G|/|C_G(x_i)| = |G| closes,
which certifies that every class was found.  When the searches would
cost more than enumerating the group (groups with large centralizers,
such as abelian ones), it falls back to :func:`conjugacy_classes`, which
enumerates all elements and grows conjugation orbits under the
generators; that path also supplies the minimal class representatives.
Output order is canonical (by size, then by a minimal representative),
independent of the order in which generators were supplied.

One conjugation-orbit walk, :func:`_conjugation_orbit`, serves the
sampler, bounded, and :func:`conjugacy_classes` and
:func:`centralizer_count`, which enumerate the group as one set of image
tuples and take each class's members out of it;
:func:`centralizer_count` alone records how each member was reached, to
carry C(x^s) = C(x)^s along.  These two and :func:`profile` take a
``cap`` on the group order, by default :data:`usets.perm.DEFAULT_CAP`,
and refuse a larger group with :class:`usets.perm.GroupTooLargeError`
whichever path they would take.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .patterns import factorize
from .perm import BSGS, DEFAULT_CAP, PermGroup, Permutation, RawPerm, _compose, check_cap

#: Seed of the element sampler; any fixed value gives the same profiles.
_SAMPLER_SEED = 0


@dataclass(frozen=True)
class ConjClass:
    representative: Permutation  # minimal class member in image-tuple order
    size: int
    element_order: int


@dataclass(frozen=True)
class InvariantProfile:
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


class _Unreached:
    """Every permutation but those a walk has reached: what an orbit walk
    takes members out of when no set of the group's elements is at hand."""

    __slots__ = ("reached",)

    def __init__(self, x: RawPerm):
        self.reached = {x}

    def __contains__(self, y: RawPerm) -> bool:
        return y not in self.reached

    def remove(self, y: RawPerm) -> None:
        self.reached.add(y)


def _conjugation_orbit(pairs: Sequence[tuple[RawPerm, RawPerm]], x: RawPerm,
                       unreached: set[RawPerm] | _Unreached, limit: int | None = None,
                       budget: _Budget | None = None,
                       via: list | None = None) -> list[RawPerm] | None:
    """The conjugacy class of x, breadth-first under conjugation by the
    generator pairs (g, g^-1); None once it has more than ``limit``
    members.

    Every member but x is taken out of ``unreached``, which holds the
    elements not reached yet: the rest of the group as a set, or an
    :class:`_Unreached`.  A ``budget`` is ticked once per conjugation.
    A ``via`` list gets ``(k, (g, g^-1))`` for members[i + 1] at via[i]:
    that member is members[k] conjugated by g.
    """
    members = [x]
    for k, z in enumerate(members):  # members grows while it is read
        if limit is not None and len(members) > limit:
            return None
        if budget is not None:
            budget.tick(len(pairs))
        for pair in pairs:
            g, ginv = pair
            y = _compose(_compose(ginv, z), g)  # conjugate of z by g
            if y in unreached:
                unreached.remove(y)
                members.append(y)
                if via is not None:
                    via.append((k, pair))
    return members


def conjugacy_classes(group: PermGroup, cap: int = DEFAULT_CAP) -> list[ConjClass]:
    """All conjugacy classes, sorted by (size, representative images)."""
    unreached = group._element_images(cap)
    pairs = group.bsgs.generator_pairs
    found = []
    while unreached:
        members = _conjugation_orbit(pairs, unreached.pop(), unreached)
        found.append((len(members), min(members)))
    return [ConjClass(Permutation._wrap(rep), size, Permutation._wrap(rep).order())
            for size, rep in sorted(found)]


class _WorkLimitExceeded(Exception):
    """The searches and draws of one profile went past its work budget."""


class _Budget:
    """Counts search nodes, sampled elements and orbit-walk conjugations;
    past ``limit`` the next one raises :class:`_WorkLimitExceeded`."""

    def __init__(self, limit: int):
        self.work = 0
        self.limit = limit

    def tick(self, steps: int = 1) -> None:
        self.work += steps
        if self.work > self.limit:
            raise _WorkLimitExceeded

    def within(self, steps: int, compute, *args):
        """``compute(*args)``, or None if it would tick more than ``steps``
        times; its ticks count against the whole budget too."""
        limit = self.limit
        self.limit = min(limit, self.work + steps)
        try:
            return compute(*args)
        except _WorkLimitExceeded:
            if self.work > limit:
                raise
            return None
        finally:
            self.limit = limit


def _random_element(bsgs: BSGS, rng: random.Random, budget: _Budget) -> RawPerm:
    """A uniform element u_0(u_1(...u_{k-1}(p))) with one random
    transversal element per level."""
    budget.tick()
    g = tuple(range(bsgs.degree))
    for level in reversed(bsgs.transversals):
        g = _compose(g, rng.choice(level))
    return g


def _cycle_lengths(x: RawPerm) -> tuple[list[int], list[int]]:
    """For each point, the length of its cycle under x; and the smallest
    point of each cycle, ascending."""
    lengths = [0] * len(x)
    starts = []
    for start in range(len(x)):
        if lengths[start]:
            continue
        starts.append(start)
        cycle = [start]
        pt = x[start]
        while pt != start:
            cycle.append(pt)
            pt = x[pt]
        for pt in cycle:
            lengths[pt] = len(cycle)
    return lengths, starts


def _conjugators(bsgs: BSGS, x: RawPerm, y: RawPerm, first_only: bool,
                 budget: _Budget) -> int:
    """The number of elements g of the group of ``bsgs`` with g(x(p)) =
    y(g(p)) for every point p, i.e. of those conjugating x to y, for x and
    y in the group; with ``first_only``, 1 if there is one and 0 if not.
    With y = x the count is |C_G(x)|.

    A group element is g = t_j(h) with t_j = u_0 u_1 ... u_{j-1} fixed by
    the choices at levels 0..j-1 and h in G^(j).  ``phi`` holds the
    images g must have: choosing g(b) for a base point b fixes g on the
    whole x-cycle of b, by g(x^i(b)) = y^i(g(b)), and g(b) must lie on a
    y-cycle of the same length that no other x-cycle maps to.  A node
    survives only if, for every p with a required image, h(p) =
    t_j^-1(phi[p]) lies in the G^(j)-orbit of p.  A leaf is a single
    element, tested on every point, and counts one.

    If g conjugates x to y then so does y^i(g), which maps the first base
    point i steps further along its y-cycle.  So the first level tries
    one point per y-cycle, and the count is the leaves times the length
    of the x-cycle through the first base point.
    """
    degree, base, labels = bsgs.degree, bsgs.base, bsgs.orbit_labels
    depth = len(base)
    (x_len, _), (y_len, y_starts) = _cycle_lengths(x), _cycle_lengths(y)
    by_len: dict[int, list[int]] = {}
    for c in range(degree):
        by_len.setdefault(y_len[c], []).append(c)
    # the smallest point of each y-cycle
    first_by_len = {n: [c for c in y_starts if y_len[c] == n] for n in by_len}
    phi = [-1] * degree
    taken = bytearray(degree)  # points already in the image of phi
    assigned: list[int] = []   # the points phi is defined on
    leaves = 0

    def search(j: int, hinv: RawPerm) -> bool:
        """Extend t_j, given as its inverse; True once the search may stop."""
        nonlocal leaves
        budget.tick()
        label = labels[j]
        if any(label[hinv[phi[p]]] != label[p] for p in assigned):
            return False
        if j == depth:
            if all(x[hinv[q]] == hinv[y[q]] for q in range(degree)):
                leaves += 1
                return first_only
            return False
        b = base[j]
        inverse = bsgs.inverses[j]
        if phi[b] >= 0:
            return search(j + 1, _compose(hinv, inverse[hinv[phi[b]]]))
        length = x_len[b]
        for c in (first_by_len if j == 0 else by_len).get(length, ()):
            if taken[c] or label[hinv[c]] != label[b]:
                continue
            p, q = b, c
            for _ in range(length):
                phi[p] = q
                taken[q] = 1
                assigned.append(p)
                p, q = x[p], y[q]
            stop = search(j + 1, _compose(hinv, inverse[hinv[c]]))
            for _ in range(length):
                p = assigned.pop()
                taken[phi[p]] = 0
                phi[p] = -1
            if stop:
                return True
        return False

    search(0, tuple(range(degree)))
    return leaves if first_only or not depth else leaves * x_len[base[0]]


def _class_size(bsgs: BSGS, x: RawPerm, lengths: list[int], bound: int,
                budget: _Budget) -> int:
    """|x^G| = |G|/|C_G(x)|, from whichever side is small.

    One of |x^G| and |C_G(x)| is at most ``bound`` = isqrt(|G|).  The
    centraliser backtrack runs first, stopped after ``bound`` nodes; then
    the conjugation orbit of x, stopped past ``bound`` members; and only
    if neither finished, the backtrack to its end.

    A bounded step is skipped when the cycle ``lengths`` of the points
    show that it cannot finish.  C_G(x) lies in the centraliser of x in
    the symmetric group, of order z, and has index at most n!/|G| in it;
    so |x^G| >= |G|/z, and the backtrack, which visits one leaf per
    |C_G(x)|/(length of the cycle through the first base point), has
    at least z|G|/(n! length) of them.
    """
    order = bsgs.order()
    z = math.prod(n ** (c // n) * math.factorial(c // n) for n, c in Counter(lengths).items())
    if order <= bound * z:
        if z * order <= bound * lengths[bsgs.base[0]] * math.factorial(bsgs.degree):
            count = budget.within(bound, _conjugators, bsgs, x, x, False, budget)
            if count is not None:
                return order // count
        members = _conjugation_orbit(bsgs.generator_pairs, x, _Unreached(x), bound, budget)
        if members is not None:
            return len(members)
    return order // _conjugators(bsgs, x, x, False, budget)


def _sampled_class_sizes(bsgs: BSGS, budget: _Budget) -> list[int]:
    """Class sizes |G|/|C_G(x)| for one representative x per class.

    An element opens a new class unless it is conjugate to a known
    representative with the same cycle type.  Random elements are
    classified until the class sizes add up to |G|.

    A new representative x of order m brings its rational class along:
    K = {k : x^k ~ x} is a subgroup of the units mod m, found by testing
    each coprime power against x alone, and each coset kK is one class,
    of x^k, with the size of x's class (:func:`_class_size`).  All of
    them join the known representatives, which so stay closed under
    coprime powers; so no x^k is conjugate to an earlier representative,
    and x^k needs no test against them and no centraliser search.  The
    powers x^d for the proper divisors d > 1 of m are classified next:
    they reach classes of small size, which random elements rarely hit,
    and every other power of x is a coprime power of one of them.
    """
    order = bsgs.order()
    bound = math.isqrt(order)
    identity = tuple(range(bsgs.degree))
    sizes = [1]
    total = 1
    reps: dict[tuple[int, ...], list[RawPerm]] = {}
    pending: list[RawPerm] = []  # powers x^d of new representatives
    rng = random.Random(_SAMPLER_SEED)
    while total < order:
        x = pending.pop() if pending else _random_element(bsgs, rng, budget)
        if x == identity:
            continue
        lengths = _cycle_lengths(x)[0]
        known = reps.setdefault(tuple(sorted(lengths)), [])
        if any(_conjugators(bsgs, x, r, True, budget) for r in known):
            continue
        size = _class_size(bsgs, x, lengths, bound, budget)
        m = math.lcm(*lengths)
        powers = [identity, x]  # powers[k] = x^k
        while len(powers) < m:
            powers.append(_compose(powers[-1], x))
        kernel = [1] + [k for k in range(2, m)  # K = {k : x^k ~ x}
                        if math.gcd(k, m) == 1 and _conjugators(bsgs, powers[k], x, True, budget)]
        covered: set[int] = set()
        for k in range(1, m):
            if math.gcd(k, m) == 1 and k not in covered:  # a new coset kK
                covered.update(k * j % m for j in kernel)
                known.append(powers[k])
                sizes.append(size)
                total += size
        pending += [powers[d] for d in range(2, m) if m % d == 0]
    if total != order:
        raise RuntimeError(f"class sizes add up to {total}, group order is {order}")
    return sizes


def profile(group: PermGroup, cap: int = DEFAULT_CAP) -> InvariantProfile:
    """The full invariant profile; see the module docstring.

    Raises :class:`GroupTooLargeError` when the group order exceeds ``cap``.
    """
    order = group.order()
    check_cap(order, cap)
    # enumerating the group costs |G| conjugations per generator
    budget = _Budget(order * len(group.bsgs.generator_pairs))
    try:
        sizes = _sampled_class_sizes(group.bsgs, budget)
    except _WorkLimitExceeded:
        sizes = [c.size for c in conjugacy_classes(group, cap)]
    return _profile_from_sizes(order, sizes)


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

    The group is enumerated (so its cap check refuses a group above
    ``cap`` before any other work) and its classes are walked by
    :func:`_conjugation_orbit` over a copy of the set.  The first member
    x of a class gets C(x), the elements commuting with x; a member y =
    z^g reached from z by a generator g gets C(y) = C(z)^g, one
    conjugation per element of C(z).  Equal centralizers, as sets of
    elements, are kept once.
    """
    elems = group._element_images(cap)
    unreached = set(elems)
    pairs = group.bsgs.generator_pairs
    distinct: dict[frozenset[RawPerm], frozenset[RawPerm]] = {}
    while unreached:
        x = unreached.pop()
        via: list = []
        _conjugation_orbit(pairs, x, unreached, via=via)
        # g commutes with x iff g(x(p)) = x(g(p)) at every point p; most g
        # already fail at p = 0, which is tested without a generator
        c = frozenset(g for g in elems if (not x or g[x[0]] == x[g[0]])
                      and all(g[xb] == x[gb] for xb, gb in zip(x, g)))
        cents = [distinct.setdefault(c, c)]  # C(members[i])
        for k, (g, ginv) in via:
            c = frozenset(_compose(_compose(ginv, h), g) for h in cents[k])
            cents.append(distinct.setdefault(c, c))
    return len(distinct)
