"""Permutation algebra and deterministic Schreier-Sims machinery.

Conventions used throughout the package:

* Points are 0-based; a degree-n permutation acts on {0, ..., n-1}.
  Cycle notation is 1-based at the I/O boundary only (CLI output).
* Composition applies the left factor first: ``(a * b)(x) == b(a(x))``,
  i.e. ``(a * b).images[i] == b.images[a.images[i]]``.
* Everything is deterministic.  Base points are the smallest moved point
  at the time a stabilizer level is created and orbits are explored with
  ascending frontiers, so repeated runs (and runs with reordered
  generating sets) produce identical output.

The stabilizer chain has one layout (see :class:`BSGS`), built once per
level by :func:`_schreier_sims` and read as it is by sifting, Schreier
generators and the backtrack searches of :mod:`usets.invariants`.
:func:`_join_orbits` is the one routine that labels the orbits of a
subgroup, :func:`_cycles` the one that walks a permutation's cycles,
:func:`_compose` the one composition kernel of the package and
:func:`_strip_kernel` the one strip by a chain's stored inverse, which
:func:`_sift` and the searches call: every kernel that depends on the
internal form is here.

Inside the package a permutation of degree at most 256 is the ``bytes``
string of its images, and one of higher degree the tuple of them
(:data:`RawPerm`); :func:`_raw` alone picks the form, by the degree.
Composing a with b is then one ``a.translate`` by b padded with the
identity on the bytes b does not reach (:data:`_TAIL`): 120-170 ns at
degree 10-91, against 210-1 140 ns for the C-level gather
``itemgetter(*a)(b)`` of tuples, which degrees above 256 keep (timeit,
2 vCPU, Python 3.11.7).  Each degree has one form, so a call that mixes
the two raises.  The one padded form is held only as a chain's
inverses (:attr:`BSGS.inverses`), one list per level indexed by point:
at gamma = u(base point) the u^-1 of gamma's representative u, stored
as its translation table, the 256 bytes that invert u on 0..n-1 and fix
n..255, and None at every point off the level's orbit.  So
:func:`_sift` reads each level's inverse by index, with no dict lookup,
and strips it with one unbound ``bytes.translate`` by the table as it
is, with no padding and no :func:`_compose` call: 41-44, 63-65 and
119-120 ns at degree 12, 40 and 114, as fast as a branch on the form
and ``g.translate`` (43-46, 63-64, 123-124), against 122-180 ns for
padding and translating (timeit, as above).  Composing a table with a
table gives a table, and a permutation with a table a permutation of
its own degree.  Above degree 256 an inverse is the tuple of u^-1, and
a strip one gather (:func:`_gather`).  A chain keeps the identity of
its degree (:attr:`BSGS.identity`), and a membership test compares the
residue with it.  :class:`Permutation` wraps the internal form.  The
hash of ``bytes`` follows ``PYTHONHASHSEED``, that of an int tuple does
not, so no output may depend on the iteration order of a set or dict of
permutations; sorting orders the two forms alike.

Schreier-Sims skips the work that cannot change the chain.  Sifting
does nothing at a base point the element fixes, whose representative is
the identity.  When :func:`_schreier_sims` closes a level again after an
insertion, it drops a Schreier generator u s inv[s(gamma)] that is the
identity (u s is already the representative of s(gamma)), and one that
the level's last closure certifies: the old generator's residue went
into the deeper levels then, so the new one lies there too if the two
changes of representative do.  Every dropped generator would sift to the
identity, so the chain is, byte for byte, the one that re-sifting every
Schreier generator builds.  Rebuilt trees reuse unchanged edges' representatives.

The build also stops once the chain is complete, which it knows from a
proven upper bound on the group's order: |A_n| or |S_n| by the
generators' parity, or one the caller proves (:class:`PermGroup`'s
``order_bound``).  If Delta_i is the basic orbit of level i, then
prod |Delta_i| <= |<S>| <= bound, with equality on the left exactly when
the chain is a complete base and strong generating set.  So once the
product equals the bound, every Schreier generator and raw generator
still to come sifts to the identity, and the chain is again, byte for
byte, the one the full closure builds.

The groups handled here are small (the largest the tests profile,
PSL(6,2), has order 20 158 709 760), so Schreier-Sims favours clarity and
reproducibility over asymptotics: no randomized sifting, no Monte Carlo
variants.

One cap, :data:`DEFAULT_CAP`, bounds the group order of every
computation that takes a cap, in the library and on the command line
alike; :func:`check_cap` is the one place that refuses a group above it.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter
from typing import Callable, Iterable, Sequence

#: Default largest group order to enumerate or profile.  Sized to include
#: A9 (order 181 440) while leaving A10 (order 1 814 400) out; a cap of
#: at least 1 814 400 takes in every catalog group.
DEFAULT_CAP = 250_000

#: A permutation inside the package: the bytes of its images up to
#: degree 256, their tuple above (:func:`_raw`).
RawPerm = bytes | tuple

_FULL = bytes(range(256))
#: _TAIL[n], the identity on n..255, pads a degree-n permutation b to the
#: translation table b + _TAIL[n]; cut once from one string.
_TAIL = tuple(_FULL[n:] for n in range(257))


class GroupTooLargeError(ValueError):
    """A computation would exceed the configured cap on the group order."""


def check_cap(order: int, cap: int, name: str = "") -> None:
    """Raise :class:`GroupTooLargeError` when ``order`` exceeds ``cap``;
    a ``name`` says which group a higher cap would include."""
    if order > cap:
        hint = f"; rerun with a higher cap to include {name}" if name else ""
        raise GroupTooLargeError(f"group order {order} exceeds cap {cap}{hint}")


def _raw(images: Sequence[int]) -> RawPerm:
    """The internal form of a permutation's images, by its degree alone:
    ``bytes`` up to 256 points, a tuple above."""
    return bytes(images) if len(images) <= 256 else tuple(images)


def _identity(degree: int) -> RawPerm:
    return _raw(range(degree))


def _gather(a: RawPerm, b: RawPerm) -> RawPerm:
    """b[a[0]], b[a[1]], ...: a then b as one C-level gather, the kernel of
    the tuple form (a tuple there has more than one point, so
    ``itemgetter`` gives a tuple)."""
    return itemgetter(*a)(b)


def _strip_kernel(degree: int) -> Callable[[RawPerm, RawPerm], RawPerm]:
    """The strip of the degree's form, g then u^-1 for u^-1 as a chain
    stores it (:attr:`BSGS.inverses`): the unbound ``bytes.translate`` by
    the table as it is up to degree 256, :func:`_gather` above it."""
    return bytes.translate if degree <= 256 else _gather


def _compose(a: RawPerm, b: RawPerm) -> RawPerm:
    """a first, then b: (b[a[0]], b[a[1]], ...) in the form of both, one
    ``bytes.translate`` up to degree 256 and :func:`_gather` above it.
    ``b`` may be a chain's stored table (:func:`_inverse_table`), which
    the empty ``_TAIL[256]`` leaves as it is.  A call that mixes the
    forms raises: ``translate`` needs a bytes ``a``, and a tuple ``b``
    cannot be padded."""
    if len(b) <= 256:
        return a.translate(b + _TAIL[len(b)])
    return _gather(a, b)


def _inverse_table(a: RawPerm) -> RawPerm:
    """a^-1 as a chain stores it (:attr:`BSGS.inverses`): up to degree 256
    the translation table that inverts a on 0..n-1 and fixes n..255, above
    it the tuple of a^-1."""
    n = len(a)
    if n <= 256:  # the table that maps each a[i] to i
        return bytes.maketrans(a, _FULL[:n])
    inv = [0] * n
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _inverse(a: RawPerm) -> RawPerm:
    """a^-1 in the internal form: its table cut to the degree."""
    return _inverse_table(a)[:len(a)]


def _sift(g: RawPerm, base: Sequence[int],
          inverses: Sequence[Sequence[RawPerm | None]]) -> RawPerm:
    """Strip one transversal factor per base point by its stored inverse,
    read at the point g(base point) of the level's point-indexed list
    (:attr:`BSGS.inverses`), None off the orbit; the residue is the
    identity iff ``g`` lies in the group described.  Each step is one
    call of the form's :func:`_strip_kernel`, with no padding."""
    strip = _strip_kernel(len(g))
    for pt, inverse in zip(base, inverses):
        gamma = g[pt]
        if gamma != pt:  # a fixed base point's representative is the identity
            uinv = inverse[gamma]
            if uinv is None:
                break
            g = strip(g, uinv)
    return g


def _join_orbits(labels: Sequence[int], h: RawPerm) -> tuple[int, ...]:
    """Orbit labels, each point's smallest orbit point, once ``h`` joins the
    permutations that ``labels`` describe: a union-find over the old labels,
    keeping the smaller root, joins the orbit of each p to that of h(p).
    The labels are no permutation, so they are gathered by ``itemgetter``
    in either form of ``h``."""
    if len(labels) < 2:  # itemgetter gives a tuple for two indices or more
        return tuple(labels)
    root = list(range(len(labels)))
    for a, b in zip(labels, itemgetter(*h)(labels)):
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    for p in range(len(root)):  # root[p] <= p, so ascending settles each
        root[p] = root[root[p]]
    return itemgetter(*labels)(root)


def _cycles(x: RawPerm) -> tuple[list[list[int]], list[int]]:
    """The cycles of x, fixed points included, each from its smallest point
    and in ascending order of it, and each point's cycle length: one walk
    per cycle, whose length is then written to each of its points.  The
    one cycle walk of the package, for :class:`Permutation`, the parity
    bound of :func:`_schreier_sims` and the class sampler of
    :mod:`usets.invariants`, which reads the lengths on every draw
    (timeit, random permutations: 1.7, 10.5-11.2 and 23-25 us at degree
    10, 114 and 300, as fast as a walk that writes the lengths alone;
    2 vCPU, Python 3.11.7)."""
    cycles, lengths = [], [0] * len(x)
    for start, p in enumerate(x):
        if not lengths[start]:  # the first point met on a cycle is its smallest
            cycle = [start]
            while p != start:
                cycle.append(p)
                p = x[p]
            n = len(cycle)
            for q in cycle:
                lengths[q] = n
            cycles.append(cycle)
    return cycles, lengths


class Permutation:
    """An element of a finite symmetric group, stored in the internal form
    of its degree (:data:`RawPerm`) as ``raw``."""

    __slots__ = ("raw",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = bytearray(n)
        for x in imgs:
            if not (isinstance(x, int) and 0 <= x < n) or seen[x]:
                raise ValueError(f"images {imgs!r} are not a bijection on 0..{n - 1}")
            seen[x] = 1
        self.raw = _raw(imgs)

    @classmethod
    def _wrap(cls, raw: RawPerm) -> "Permutation":
        """Wrap a valid permutation already in its internal form."""
        p = object.__new__(cls)
        p.raw = raw
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._wrap(_identity(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build a permutation from disjoint 0-based cycles."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} appears in more than one cycle")
                seen.add(pt)
            for i, pt in enumerate(cycle):
                images[pt] = cycle[(i + 1) % len(cycle)]
        return cls._wrap(_raw(images))

    @property
    def images(self) -> tuple[int, ...]:
        """The images of 0, 1, ..., as a tuple in either internal form."""
        return tuple(self.raw)

    @property
    def degree(self) -> int:
        return len(self.raw)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.raw) != len(other.raw):
            raise ValueError("cannot compose permutations of different degree")
        return Permutation._wrap(_compose(self.raw, other.raw))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_inverse(self.raw))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, 0-based, each starting at its smallest point,
        in ascending order of it (:func:`_cycles`)."""
        return tuple(tuple(c) for c in _cycles(self.raw)[0] if len(c) > 1)

    def cycle_string(self) -> str:
        """Disjoint cycle notation with 1-based points, e.g. ``(1,2)(3,4,5)``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(pt + 1) for pt in c) + ")" for c in cycles)

    def order(self) -> int:
        return math.lcm(*map(len, _cycles(self.raw)[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)

    def __repr__(self) -> str:
        return f"Permutation({list(self.raw)!r})"


class BSGS:
    """Base and strong generating set of G = G^(0) > ... > G^(k) = 1, where
    G^(i) fixes ``base[:i]``; each level is laid out once, when built:

    * ``transversals[i]``: the coset representatives u of G^(i+1) in
      G^(i), in ascending order of gamma = u(base[i]);
    * ``inverses[i]``: a list indexed by point, u^-1 at gamma and None
      at every point off the level's orbit, so sifting, Schreier
      generators and the searches read it by index and never invert;
      up to degree 256 each u^-1 is its translation table, 256 bytes that
      invert u on 0..n-1 and fix n..255 (:func:`_inverse_table`), and
      above it the tuple of u^-1, either stripped by as it is
      (:func:`_strip_kernel`);
    * ``orbit_labels[i]`` (i = 0..k, on first use): each point's smallest
      G^(i)-orbit point;
    * ``identity``: the identity of the degree, built once, which a
      membership test's residue and the sampler's draws start from or
      compare with.

    Every other element is in the degree's internal form (:func:`_raw`).
    """

    __slots__ = ("degree", "identity", "base", "_level_gens", "transversals", "inverses",
                 "_labels")

    def __init__(self, degree: int, base: list[int],
                 level_gens: list[list[RawPerm]],
                 transversals: list[tuple[RawPerm, ...]],
                 inverses: list[list[RawPerm | None]]):
        self.degree = degree
        self.identity = _identity(degree)
        self.base = tuple(base)
        self._level_gens = level_gens
        self.transversals = transversals
        self.inverses = inverses
        self._labels: list[list[int]] | None = None

    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    @property
    def strong_generators(self) -> list[Permutation]:
        """Every level's generators, shallowest level first.  No element is
        stored twice: :func:`_schreier_sims` adds one only when it lies
        outside the group of its level, which holds every earlier generator
        of that level and of the deeper ones, and a generator of a
        shallower level moves a base point this one fixes."""
        return [Permutation._wrap(g) for gens in self._level_gens for g in gens]

    @property
    def orbit_labels(self) -> list[list[int]]:
        """Orbit labels of each G^(i): level i's generators join G^(i+1)'s."""
        if self._labels is None:
            labels = [list(range(self.degree))]
            for gens in reversed(self._level_gens):
                labels.append(list(reduce(_join_orbits, gens, labels[-1])))
            self._labels = labels[::-1]
        return self._labels

    def sift(self, g: RawPerm) -> RawPerm:
        """Strip transversal factors from ``g``, in the internal form; the
        residue is the identity iff ``g`` belongs to the group."""
        return _sift(g, self.base, self.inverses)


def _schreier_sims(raw_gens: Sequence[RawPerm], degree: int,
                   bound: int | None = None) -> BSGS:
    """Deterministic Schreier-Sims with full Schreier-generator closure,
    stopped once the chain's order reaches ``bound``.

    ``bound`` must be a true upper bound on |<S>|, S = ``raw_gens``; by
    default it is |A_n| = n!/2 when every generator is even and
    |S_n| = n! otherwise (1 for n <= 1).  Level i's orbit Delta_i is one
    of the group H_i its generators give, and H_(i+1) fixes base[i], so
    prod |Delta_i| <= |H_0| <= |<S>| <= bound, with equality on the left
    exactly when the chain is a complete base and strong generating set
    for <S> (Seress, *Permutation Group Algorithms*, 4.5).  So after each
    transversal rebuild, a product equal to ``bound`` means every
    Schreier generator and raw generator still to come sifts to the
    identity: the build returns at once.  A product above ``bound``
    raises ValueError, the bound being false.  A level entered only to
    pass an element down is rebuilt on the way back all the same, so the
    chain is the one the unstopped closure builds.

    The generators, and so the chain, are in the internal form
    (:func:`_raw`), apart from the inverses, which are tables
    (:func:`_inverse_table`) in a list by point per level: the list each
    tree rebuild fills, stored as it is.

    The generating set of the stabilizer subgroup at level i is the union
    of the generators stored at level i and all deeper levels.  Inserting
    a new group element re-closes every level from its resting place back
    up to the insertion level: orbits are rebuilt and the Schreier
    generators u s inv[s(gamma)] are sifted, with nontrivial residues
    recursively inserted one level further down.

    A re-closure of level i passes over the pair (gamma, s), with
    delta = s(gamma), u_gamma the representative of gamma at the level's
    last closure and u'_gamma the one the rebuild gives it, by two rules:

    * a tree edge: when u'_gamma s equals u'_delta, the Schreier generator
      u'_gamma s u'_delta^-1 is the identity and is not sifted, nor is
      u'_gamma s formed for an edge of the rebuilt tree;
    * a certificate from the last closure: when s was a generator at the
      end of that closure, and h_gamma = u'_gamma u_gamma^-1 and h_delta
      both sift to the identity through the deeper levels, the pair is not
      formed at all.  Each h fixes base[i], and is 1 for a point kept
      from the last tree.  Then u'_gamma s u'_delta^-1 =
      h_gamma (u_gamma s u_delta^-1) h_delta^-1, and by Schreier's lemma
      the last closure left the middle factor in the group of the deeper
      levels.  That group only grows and is closed whenever level i is
      being closed, so the pair would sift to the identity.

    h_gamma is formed from the old inverse and sifted whenever a pair asks
    for it, until it certifies; a certified point stays certified, as the
    deeper group only grows.  Neither rule changes an insertion, so the
    chain is the one that re-sifting every pair builds.

    Each level keeps its last tree: by point, the representative and the
    edge (parent, generator).  A point whose edge is the last tree's, from
    a parent kept from it, keeps its old representative, u_parent s all
    the same; any other point counts as changed.
    """
    if bound is None:  # a permutation with c cycles is a product of n - c transpositions
        odd = any((degree - len(_cycles(g)[0])) % 2 for g in raw_gens)
        bound = math.factorial(degree) // (2 if degree > 1 and not odd else 1)
    ident = _identity(degree)
    ident_table = _FULL if degree <= 256 else ident  # the base point's inverse
    base: list[int] = []
    level_gens: list[list[RawPerm]] = []
    transversals: list[tuple[RawPerm, ...]] = []
    inverses: list[list[RawPerm | None]] = []
    closed_gens: list[set[RawPerm]] = []  # the generators at each level's last closure
    gen_inverse: dict[RawPerm, RawPerm] = {}  # each level generator's inverse table, formed once
    trees: list[tuple] = []  # each level's last tree by point: reps, parents, generators

    def gens_at(i: int) -> list[RawPerm]:
        return [g for lvl in level_gens[i:] for g in lvl]

    def new_level(pt: int) -> None:
        base.append(pt)
        level_gens.append([])
        transversals.append((ident,))
        inverses.append([ident_table if p == pt else None for p in range(degree)])
        closed_gens.append(set())
        trees.append(((None,) * degree,) * 3)  # no tree yet

    def rebuild_transversal(i: int) -> tuple[list, list, list, dict[int, RawPerm | None]]:
        """Rebuild level i's tree; return it by point (representatives,
        parents, generators) and the old inverse of every changed point,
        one not kept from the last tree (None if new).  A changed point's
        representative u s is composed and inverted as s^-1 u^-1, from its
        parent's inverse: a table composed with a table, so a table.  The
        inverses by point are the level's stored list as they are."""
        old_trans, old_parent, old_via = trees[i]
        old_inverse = inverses[i]
        trans, parent, via, inv = ([None] * degree for _ in range(4))
        trans[base[i]], inv[base[i]] = ident, ident_table
        changed: dict[int, RawPerm | None] = {}
        frontier = [base[i]]
        gens = gens_at(i)
        gen_invs = [gen_inverse[s] for s in gens]
        while frontier:
            new_pts = []
            for gamma in frontier:
                u, uinv = trans[gamma], inv[gamma]
                kept = gamma not in changed
                for s, sinv in zip(gens, gen_invs):
                    delta = s[gamma]
                    if trans[delta] is None:
                        if kept and old_via[delta] is s and old_parent[delta] == gamma:
                            trans[delta], inv[delta] = old_trans[delta], old_inverse[delta]
                        else:
                            trans[delta], inv[delta] = _compose(u, s), _compose(sinv, uinv)
                            changed[delta] = old_inverse[delta]
                        parent[delta], via[delta] = gamma, s
                        new_pts.append(delta)
            frontier = sorted(new_pts)
        trees[i] = trans, parent, via
        transversals[i] = tuple(u for u in trans if u is not None)
        inverses[i] = inv
        return trans, parent, via, changed

    def add_nonmember(i: int, g: RawPerm) -> bool:
        # pre: g != identity, g fixes base[:i], g is not in the level-i
        # group, and every level deeper than i is closed; True once the
        # chain is complete
        if i == len(base):
            new_level(min(x for x in range(degree) if g[x] != x))
        if g[base[i]] == base[i]:
            add_nonmember(i + 1, g)  # complete or not, level i is rebuilt
        else:
            level_gens[i].append(g)
            gen_inverse[g] = _inverse_table(g)
        trans, parent, via, changed = rebuild_transversal(i)
        order = math.prod(map(len, transversals))
        if order > bound:
            raise ValueError(f"the chain's order {order} exceeds the bound {bound}")
        if order == bound:
            return True
        inverse = inverses[i]
        gens = gens_at(i)
        closed = [s in closed_gens[i] for s in gens]
        deeper = base[i + 1:], inverses[i + 1:]  # taken again after an insertion

        def certified(gamma: int) -> bool:
            """Whether h_gamma, for gamma in ``changed``, lies in the deeper
            levels' group; if so, gamma leaves ``changed`` for good."""
            old_inv = changed[gamma]
            if old_inv is None or _sift(_compose(trans[gamma], old_inv), *deeper) != ident:
                return False
            del changed[gamma]  # the deeper group only grows
            return True

        for gamma, u in enumerate(trans):
            if u is None:  # off the orbit
                continue
            for s, s_closed in zip(gens, closed):
                delta = s[gamma]
                if (s_closed and (gamma not in changed or certified(gamma))
                        and (delta not in changed or certified(delta))):
                    continue
                if via[delta] is s and parent[delta] == gamma:  # a tree edge
                    continue
                us = _compose(u, s)
                if us == trans[delta]:  # the Schreier generator is 1 all the same
                    continue
                residue = _sift(_compose(us, inverse[delta]), *deeper)
                if residue != ident:
                    if add_nonmember(i + 1, residue):
                        return True
                    deeper = base[i + 1:], inverses[i + 1:]
        closed_gens[i] = set(gens_at(i))
        return False

    first = min((min(x for x in range(degree) if g[x] != x)
                 for g in raw_gens if g != ident), default=degree)
    if first < degree:
        new_level(first)
    for g in raw_gens:
        residue = _sift(g, base, inverses)
        if residue != ident and add_nonmember(0, residue):
            break
    del add_nonmember  # it refers to itself: free the build's state now, not at a GC pass
    return BSGS(degree, base, level_gens, transversals, inverses)


class PermGroup:
    """A permutation group defined by its generators.

    The base-and-strong-generating-set structure is built lazily on first
    use and cached; groups are immutable once constructed and safe to
    share.  ``order_bound``, a proven upper bound on the group's order,
    lets the build stop early (:func:`_schreier_sims`).
    """

    __slots__ = ("degree", "generators", "_order_bound", "_bsgs")

    def __init__(self, generators: Iterable[Permutation | Iterable[int]],
                 order_bound: int | None = None):
        gens = tuple(g if isinstance(g, Permutation) else Permutation(g)
                     for g in generators)
        if not gens:
            raise ValueError("a group needs at least one generator")
        degrees = {g.degree for g in gens}
        if len(degrees) != 1:
            raise ValueError(f"generators have mixed degrees {sorted(degrees)}")
        self.degree = degrees.pop()
        self.generators = gens
        self._order_bound = order_bound
        self._bsgs: BSGS | None = None

    @property
    def bsgs(self) -> BSGS:
        if self._bsgs is None:
            self._bsgs = _schreier_sims([g.raw for g in self.generators], self.degree,
                                        self._order_bound)
        return self._bsgs

    def order(self) -> int:
        return self.bsgs.order()

    def contains(self, p: Permutation) -> bool:
        """Whether ``p`` lies in the group: one sift, whose residue is the
        chain's identity exactly for a member."""
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        bsgs = self.bsgs
        return bsgs.sift(p.raw) == bsgs.identity

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"
