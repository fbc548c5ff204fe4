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
uniform random elements from the stabilizer chain (one transversal
element per level, from a fixed-seed generator, so runs repeat exactly)
and takes each draw's powers too.  A backtrack search over the chain,
:func:`_conjugators`, both tests whether an element is conjugate to a
known representative with the same cycle type and counts |C_G(x)|.
Sampling stops when the class equation sum |G|/|C_G(x_i)| = |G| closes,
which certifies that every class was found.  When the searches would
cost more than enumerating the group (groups with large centralizers,
such as abelian ones), it falls back to :func:`conjugacy_classes`, which
enumerates all elements and grows conjugation orbits under the
generators; that path also supplies the minimal class representatives.
Output order is canonical (by size, then by a minimal representative),
independent of the order in which generators were supplied.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .patterns import prime_factors
from .perm import DEFAULT_ELEMENT_CAP, GroupTooLargeError, PermGroup, Permutation, RawPerm, _compose, _inverse

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


def conjugacy_classes(group: PermGroup,
                      cap: int = DEFAULT_ELEMENT_CAP) -> list[ConjClass]:
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
    """A chain's searches and draws went past its work budget."""


class _Chain:
    """A group's stabilizer chain G = G^(0) > ... > G^(k) = 1 laid out for
    backtrack searches and uniform sampling.

    Level j has the base point ``base[j]``; ``transversal[j]`` lists the
    coset representatives u (u maps ``base[j]`` to a point gamma of the
    basic orbit), ``inverse[j]`` maps each gamma to the inverse of its u,
    and ``orbit_label[j][p]`` names the G^(j)-orbit of point p.  ``work``
    counts search nodes and sampled elements; past ``budget`` the next
    one raises :class:`_WorkLimitExceeded`.
    """

    def __init__(self, group: PermGroup, budget: int | None = None):
        bsgs = group.bsgs
        self.degree = group.degree
        self.order = bsgs.order()
        self.base = bsgs.base
        levels = [sorted(t.items()) for t in bsgs._transversals]
        self.transversal = [[u for _, u in level] for level in levels]
        self.inverse = [{gamma: _inverse(u) for gamma, u in level} for level in levels]
        gens = bsgs._level_gens
        self.orbit_label = [_orbit_labels(self.degree, [g for lvl in gens[j:] for g in lvl])
                            for j in range(len(self.base) + 1)]
        self.work = 0
        self.budget = budget

    def tick(self) -> None:
        self.work += 1
        if self.budget is not None and self.work > self.budget:
            raise _WorkLimitExceeded

    def random_element(self, rng: random.Random) -> RawPerm:
        """A uniform element u_0(u_1(...u_{k-1}(p))) with one random
        transversal element per level."""
        self.tick()
        g = tuple(range(self.degree))
        for level in reversed(self.transversal):
            g = _compose(g, rng.choice(level))
        return g


def _orbit_labels(degree: int, gens: Sequence[RawPerm]) -> list[int]:
    """For each point, the smallest point of its orbit under ``gens``."""
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


def _cycle_lengths(x: RawPerm) -> list[int]:
    """For each point, the length of its cycle under x."""
    lengths = [0] * len(x)
    for start in range(len(x)):
        if lengths[start]:
            continue
        cycle = [start]
        pt = x[start]
        while pt != start:
            cycle.append(pt)
            pt = x[pt]
        for pt in cycle:
            lengths[pt] = len(cycle)
    return lengths


def _conjugators(chain: _Chain, x: RawPerm, y: RawPerm,
                 first_only: bool) -> list[RawPerm]:
    """The elements g of the chain's group with g(x(p)) = y(g(p)) for every
    point p, i.e. those conjugating x to y, for x and y in the group; only
    the first one found when ``first_only``.  With y = x they form the
    centralizer C_G(x).

    A group element is g = t_j(h) with t_j = u_0 u_1 ... u_{j-1} fixed by
    the choices at levels 0..j-1 and h in G^(j).  ``phi`` holds the
    images g must have: choosing g(b) for a base point b fixes g on the
    whole x-cycle of b, by g(x^i(b)) = y^i(g(b)), and g(b) must lie on a
    y-cycle of the same length that no other x-cycle maps to.  A node
    survives only if, for every p with a required image, h(p) =
    t_j^-1(phi[p]) lies in the G^(j)-orbit of p.  A leaf is a single
    element, tested on every point.

    If g conjugates x to y then so does y^i(g), which maps the first base
    point i steps further along its y-cycle.  So the first level tries
    one point per y-cycle, and the other conjugators are the y-powers
    times those found.
    """
    degree, base, labels = chain.degree, chain.base, chain.orbit_label
    depth = len(base)
    x_len, y_len = _cycle_lengths(x), _cycle_lengths(y)
    by_len: dict[int, list[int]] = {}
    first_by_len: dict[int, list[int]] = {}  # the smallest point of each y-cycle
    seen = bytearray(degree)
    for c in range(degree):
        by_len.setdefault(y_len[c], []).append(c)
        if not seen[c]:
            first_by_len.setdefault(y_len[c], []).append(c)
            q = c
            while not seen[q]:
                seen[q] = 1
                q = y[q]
    phi = [-1] * degree
    taken = bytearray(degree)  # points already in the image of phi
    assigned: list[int] = []   # the points phi is defined on
    found: list[RawPerm] = []

    def search(j: int, hinv: RawPerm) -> bool:
        """Extend t_j, given as its inverse; True once the search may stop."""
        chain.tick()
        label = labels[j]
        if any(label[hinv[phi[p]]] != label[p] for p in assigned):
            return False
        if j == depth:
            if all(x[hinv[q]] == hinv[y[q]] for q in range(degree)):
                found.append(_inverse(hinv))
                return first_only
            return False
        b = base[j]
        inverse = chain.inverse[j]
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
    if first_only or not depth:
        return found
    out = list(found)
    power = y
    for _ in range(x_len[base[0]] - 1):
        out.extend(tuple(power[v] for v in g) for g in found)
        power = _compose(power, y)
    return out


def _sampled_class_sizes(chain: _Chain) -> list[int]:
    """Class sizes |G|/|C_G(x)| for one representative x per class.

    An element opens a new class unless it is conjugate to a known
    representative with the same cycle type.  Random elements are
    classified until the class sizes add up to |G|.  The powers of each
    new representative are classified next: they reach classes of small
    size, which random elements rarely hit, and the powers of an element
    conjugate to a representative are conjugate to its powers.
    """
    order = chain.order
    identity = tuple(range(chain.degree))
    sizes = [1]
    total = 1
    reps: dict[tuple[int, ...], list[RawPerm]] = {}
    pending: list[RawPerm] = []  # powers of new representatives
    rng = random.Random(_SAMPLER_SEED)
    while total < order:
        x = pending.pop() if pending else chain.random_element(rng)
        if x == identity:
            continue
        known = reps.setdefault(tuple(sorted(_cycle_lengths(x))), [])
        if any(_conjugators(chain, x, r, True) for r in known):
            continue
        known.append(x)
        size = order // len(_conjugators(chain, x, x, False))
        sizes.append(size)
        total += size
        power = _compose(x, x)
        while power != x:
            pending.append(power)
            power = _compose(power, x)
    if total != order:
        raise RuntimeError(f"class sizes add up to {total}, group order is {order}")
    return sizes


def profile(group: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> InvariantProfile:
    """The full invariant profile; see the module docstring.

    Raises :class:`GroupTooLargeError` when the group order exceeds ``cap``.
    """
    order = group.order()
    if order > cap:
        raise GroupTooLargeError(
            f"group of order {order} exceeds the enumeration limit {cap}")
    # enumerating the group costs |G| conjugations per generator
    chain = _Chain(group, budget=order * len(group._raw_generators()))
    try:
        sizes = _sampled_class_sizes(chain)
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


def centralizer_count(group: PermGroup, cap: int = 10_000) -> int:
    """Number of distinct centralizer subgroups {C(x) : x in G}.

    Each centralizer is fingerprinted as the set of its elements, found
    by the backtrack search for the elements commuting with x.  C(x) =
    C(x^k) whenever gcd(k, |x|) = 1, so one search serves every generator
    of the cyclic subgroup <x>.  The group is enumerated, hence the low
    default cap.
    """
    order = group.order()
    if order > cap:
        raise GroupTooLargeError(
            f"group of order {order} exceeds the centralizer-count cap {cap}")
    chain = _Chain(group)
    identity = tuple(range(group.degree))
    done: set[RawPerm] = set()
    centralizers = set()
    for x in group._element_images(cap):
        if x in done:
            continue
        centralizers.add(frozenset(_conjugators(chain, x, x, False)))
        powers = [x]  # x^1, ..., x^|x| = identity
        while powers[-1] != identity:
            powers.append(_compose(powers[-1], x))
        done.update(g for k, g in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1)
    return len(centralizers)
