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
per class and its centralizer order, not the elements of G.  It draws
uniform random elements from the group's :class:`usets.perm.BSGS` (one
transversal element per level, from a fixed-seed generator, so runs
repeat exactly) and takes each draw's powers too.  A backtrack search
over the same chain, :func:`_conjugators`, counts conjugators without
listing them: it tests x against the known representatives of its cycle
type and gives |C_G(x)|.  It reads the chain's stored inverses and orbit
labels as they are, and a :class:`_Budget` counts its work.
Sampling stops when the class equation sum |G|/|C_G(x_i)| = |G| closes,
which certifies that every class was found.  When the searches would
cost more than enumerating the group (groups with large centralizers,
such as abelian ones), it falls back to :func:`conjugacy_classes`, which
enumerates all elements and grows conjugation orbits under the
generators; that path also supplies the minimal class representatives.
Output order is canonical (by size, then by a minimal representative),
independent of the order in which generators were supplied.

:func:`centralizer_count` lists the group and carries C(x^s) = C(x)^s
along the class walk of :func:`conjugacy_classes`.  These two and
:func:`profile` take a ``cap`` on the group order, by default
:data:`usets.perm.DEFAULT_CAP`, and refuse a larger group with
:class:`usets.perm.GroupTooLargeError` whichever path they would take.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .patterns import prime_factors
from .perm import (BSGS, DEFAULT_CAP, PermGroup, Permutation, RawPerm, _compose, _inverse,
                   check_cap)

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


def conjugacy_classes(group: PermGroup, cap: int = DEFAULT_CAP) -> list[ConjClass]:
    """All conjugacy classes, sorted by (size, representative images)."""
    elems = group._element_images(cap)
    index = {t: i for i, t in enumerate(elems)}
    gen_pairs = [(g, _inverse(g)) for g in group._raw_generators()]
    visited = bytearray(len(elems))
    found = []
    for i, start in enumerate(elems):
        if visited[i]:
            continue
        visited[i] = 1
        size = 1
        rep = start
        layer = [start]
        while layer:
            new_elems = []
            for x in layer:
                for g, ginv in gen_pairs:
                    y = tuple(g[x[b]] for b in ginv)  # conjugate of x by g
                    j = index[y]
                    if not visited[j]:
                        visited[j] = 1
                        new_elems.append(y)
                        if y < rep:
                            rep = y
            size += len(new_elems)
            layer = new_elems
        found.append((size, rep))
    found.sort()
    return [ConjClass(Permutation._wrap(rep), size, Permutation._wrap(rep).order())
            for size, rep in found]


class _WorkLimitExceeded(Exception):
    """The searches and draws of one profile went past its work budget."""


class _Budget:
    """Counts search nodes and sampled elements; past ``limit`` the next
    one raises :class:`_WorkLimitExceeded`."""

    def __init__(self, limit: int):
        self.work = 0
        self.limit = limit

    def tick(self) -> None:
        self.work += 1
        if self.work > self.limit:
            raise _WorkLimitExceeded


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
            uinv = inverse[hinv[phi[b]]]
            return search(j + 1, tuple(uinv[w] for w in hinv))
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
            uinv = inverse[hinv[c]]
            stop = search(j + 1, tuple(uinv[w] for w in hinv))
            for _ in range(length):
                p = assigned.pop()
                taken[phi[p]] = 0
                phi[p] = -1
            if stop:
                return True
        return False

    search(0, tuple(range(degree)))
    return leaves if first_only or not depth else leaves * x_len[base[0]]


def _sampled_class_sizes(bsgs: BSGS, budget: _Budget) -> list[int]:
    """Class sizes |G|/|C_G(x)| for one representative x per class.

    An element opens a new class unless it is conjugate to a known
    representative with the same cycle type.  Random elements are
    classified until the class sizes add up to |G|.  The powers of each
    new representative are classified next: they reach classes of small
    size, which random elements rarely hit, and the powers of an element
    conjugate to a representative are conjugate to its powers.
    """
    order = bsgs.order()
    identity = tuple(range(bsgs.degree))
    sizes = [1]
    total = 1
    reps: dict[tuple[int, ...], list[RawPerm]] = {}
    pending: list[RawPerm] = []  # powers of new representatives
    rng = random.Random(_SAMPLER_SEED)
    while total < order:
        x = pending.pop() if pending else _random_element(bsgs, rng, budget)
        if x == identity:
            continue
        known = reps.setdefault(tuple(sorted(_cycle_lengths(x)[0])), [])
        if any(_conjugators(bsgs, x, r, True, budget) for r in known):
            continue
        known.append(x)
        size = order // _conjugators(bsgs, x, x, False, budget)
        sizes.append(size)
        total += size
        power = _compose(x, x)
        while power != x:
            pending.append(power)
            power = _compose(power, x)
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
    budget = _Budget(order * len(group._raw_generators()))
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
        pi=frozenset(prime_factors(order)),
    )


def centralizer_count(group: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """Number of distinct centralizer subgroups {C(x) : x in G}.

    The group is listed (so its cap check refuses a group above ``cap``
    before any other work) and its classes are walked as in
    :func:`conjugacy_classes`.  The first element x of a class gets C(x),
    the listed elements commuting with x; an element y = x^s reached by a
    generator s gets C(y) = C(x)^s, one conjugation per element of C(x).
    Equal centralizers, as sets of elements, are kept once.
    """
    elems = group._element_images(cap)
    gen_pairs = [(g, _inverse(g)) for g in group._raw_generators()]
    seen: set[RawPerm] = set()
    distinct: dict[frozenset[RawPerm], frozenset[RawPerm]] = {}
    for x in elems:
        if x in seen:
            continue
        seen.add(x)
        c = frozenset(g for g in elems if all(g[xb] == x[gb] for xb, gb in zip(x, g)))
        layer = [(x, distinct.setdefault(c, c))]
        while layer:
            new_elems = []
            for y, cy in layer:
                for g, ginv in gen_pairs:
                    z = tuple(g[y[b]] for b in ginv)  # conjugate of y by g
                    if z not in seen:
                        seen.add(z)
                        c = frozenset(tuple(g[h[b]] for b in ginv) for h in cy)
                        new_elems.append((z, distinct.setdefault(c, c)))
            layer = new_elems
    return len(distinct)
