"""Permutation algebra and deterministic Schreier-Sims machinery.

Conventions used throughout the package:

* Points are 0-based; a degree-n permutation acts on {0, ..., n-1}.
  Cycle notation is 1-based at I/O boundaries only (catalog data files,
  CLI output).
* Composition applies the left factor first: ``(a * b)(x) == b(a(x))``,
  i.e. ``(a * b).images[i] == b.images[a.images[i]]``.
* Everything is deterministic.  Base points are the smallest moved point
  at the time a stabilizer level is created and orbits are explored with
  ascending frontiers, so repeated runs (and runs with reordered
  generating sets) produce identical output.  Element enumeration, a
  breadth-first walk of the Cayley graph, gives the group as a set.

The stabilizer chain has one layout (see :class:`BSGS`), built once per
level by :func:`_schreier_sims` and read as it is by sifting, Schreier
generators and the backtrack searches of :mod:`usets.invariants`.
:func:`_orbit_labels` is the one orbit walk, and :func:`_compose`, a
C-level gather, the one composition kernel of the package.

Schreier-Sims skips the work that cannot change the chain.  Sifting
does nothing at a base point the element fixes, whose representative is
the identity.  When :func:`_schreier_sims` closes a level again after an
insertion, it drops a Schreier generator u s inv[s(gamma)] that is the
identity (u s is already the representative of s(gamma)), and one that
the level's last closure certifies: the old generator's residue went
into the deeper levels then, so the new one lies there too if the two
changes of representative do.  Every dropped generator would sift to the
identity, so the chain is, byte for byte, the one that re-sifting every
Schreier generator builds.

The groups handled here are small (the largest the tests profile, A12,
has order 239 500 800), so Schreier-Sims favours clarity and
reproducibility over asymptotics: no randomized sifting, no Monte Carlo
variants.  Element enumeration is the fallback and oracle of class
finding; :mod:`usets.invariants` normally samples elements from the BSGS
transversals with a fixed seed and never lists the group.

One cap, :data:`DEFAULT_CAP`, bounds the group order of every
computation that takes a cap, in the library and on the command line
alike; :func:`check_cap` is the one place that refuses a group above it.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence

#: Default largest group order to enumerate or profile.  Sized to include
#: A9 (order 181 440) while leaving A10 (order 1 814 400) out; a cap of
#: at least 1 814 400 takes in every catalog group.
DEFAULT_CAP = 250_000

RawPerm = tuple  # image tuple; internal fast representation


class GroupTooLargeError(ValueError):
    """A computation would exceed the configured cap on the group order."""


def check_cap(order: int, cap: int, name: str = "") -> None:
    """Raise :class:`GroupTooLargeError` when ``order`` exceeds ``cap``;
    a ``name`` says which group a higher cap would include."""
    if order > cap:
        hint = f"; rerun with a higher cap to include {name}" if name else ""
        raise GroupTooLargeError(f"group order {order} exceeds cap {cap}{hint}")


def _identity(degree: int) -> RawPerm:
    return tuple(range(degree))


def _compose(a: RawPerm, b: RawPerm) -> RawPerm:
    """a first, then b: the tuple (b[a[0]], b[a[1]], ...), gathered in C."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    # itemgetter returns a bare item for one index and needs at least one
    return tuple(b[x] for x in a)


def _inverse(a: RawPerm) -> RawPerm:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _sift(g: RawPerm, base: Sequence[int], inverses: Sequence[dict]) -> RawPerm:
    """Strip one transversal factor per base point by its stored inverse;
    the residue is the identity iff ``g`` lies in the group described."""
    for pt, inverse in zip(base, inverses):
        gamma = g[pt]
        if gamma != pt:  # a fixed base point's representative is the identity
            uinv = inverse.get(gamma)
            if uinv is None:
                break
            g = _compose(g, uinv)
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


class Permutation:
    """An element of a finite symmetric group, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = bytearray(n)
        for x in imgs:
            if not (isinstance(x, int) and 0 <= x < n) or seen[x]:
                raise ValueError(f"images {imgs!r} are not a bijection on 0..{n - 1}")
            seen[x] = 1
        self.images = imgs

    @classmethod
    def _wrap(cls, images: RawPerm) -> "Permutation":
        """Wrap an already-validated image tuple (internal fast path)."""
        p = object.__new__(cls)
        p.images = images
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
        return cls._wrap(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different degree")
        return Permutation._wrap(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_inverse(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = bytearray(len(self.images))
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cycle = [start]
            seen[start] = 1
            pt = self.images[start]
            while pt != start:
                seen[pt] = 1
                cycle.append(pt)
                pt = self.images[pt]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        """Disjoint cycle notation with 1-based points, e.g. ``(1,2)(3,4,5)``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(pt + 1) for pt in c) + ")" for c in cycles)

    def order(self) -> int:
        lengths = [len(c) for c in self.cycles()]
        return math.lcm(*lengths) if lengths else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def __str__(self) -> str:
        return self.cycle_string()


class BSGS:
    """Base and strong generating set of G = G^(0) > ... > G^(k) = 1, where
    G^(i) fixes ``base[:i]``; each level is laid out once, when built:

    * ``transversals[i]``: the coset representatives u of G^(i+1) in
      G^(i), in ascending order of gamma = u(base[i]);
    * ``inverses[i]``: gamma -> u^-1, in the same order, so sifting and
      Schreier generators never invert;
    * ``orbit_labels[i]`` (i = 0..k, on first use): each point's smallest
      G^(i)-orbit point.

    ``generator_pairs`` holds (g, g^-1) for the group's given generators,
    deduplicated, identity dropped and sorted, so every generator-driven
    walk (element enumeration, conjugation orbits) is independent of the
    order in which the generators were supplied and never inverts.
    """

    __slots__ = ("degree", "base", "_level_gens", "transversals", "inverses", "_labels",
                 "generator_pairs")

    def __init__(self, degree: int, base: list[int],
                 level_gens: list[list[RawPerm]],
                 transversals: list[tuple[RawPerm, ...]],
                 inverses: list[dict[int, RawPerm]],
                 generator_pairs: tuple[tuple[RawPerm, RawPerm], ...]):
        self.degree = degree
        self.base = tuple(base)
        self._level_gens = level_gens
        self.transversals = transversals
        self.inverses = inverses
        self.generator_pairs = generator_pairs
        self._labels: list[list[int]] | None = None

    def order(self) -> int:
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n

    @property
    def strong_generators(self) -> list[Permutation]:
        seen: set[RawPerm] = set()
        out = []
        for gens in self._level_gens:
            for g in gens:
                if g not in seen:
                    seen.add(g)
                    out.append(Permutation._wrap(g))
        return out

    @property
    def orbit_labels(self) -> list[list[int]]:
        """Orbit labels of each G^(i), generated by the levels i and deeper."""
        if self._labels is None:
            gens = self._level_gens
            self._labels = [_orbit_labels(self.degree, [g for lvl in gens[i:] for g in lvl])
                            for i in range(len(self.base) + 1)]
        return self._labels

    def sift(self, images: RawPerm) -> RawPerm:
        """Strip transversal factors; the residue is the identity iff the
        permutation belongs to the group."""
        return _sift(images, self.base, self.inverses)


def _schreier_sims(raw_gens: Sequence[RawPerm], degree: int) -> BSGS:
    """Deterministic Schreier-Sims with full Schreier-generator closure.

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
      u'_gamma s u'_delta^-1 is the identity and is not sifted;
    * a certificate from the last closure: when s was a generator at the
      end of that closure, and h_gamma = u'_gamma u_gamma^-1 and h_delta
      both sift to the identity through the deeper levels, the pair is not
      formed at all.  Each h fixes base[i], and is 1 when the
      representative did not change.  Then u'_gamma s u'_delta^-1 =
      h_gamma (u_gamma s u_delta^-1) h_delta^-1, and by Schreier's lemma
      the last closure left the middle factor in the group of the deeper
      levels.  That group only grows and is closed whenever level i is
      being closed, so the pair would sift to the identity.

    h_gamma is formed from the old inverse only when a pair asks for it,
    and sifted once, or once more after an insertion below level i
    enlarges the deeper group.  Neither rule changes an insertion, so the
    chain is the one that re-sifting every pair builds.
    """
    ident = _identity(degree)
    base: list[int] = []
    level_gens: list[list[RawPerm]] = []
    transversals: list[tuple[RawPerm, ...]] = []
    inverses: list[dict[int, RawPerm]] = []
    closed_gens: list[set[RawPerm]] = []  # the generators at each level's last closure

    def gens_at(i: int) -> list[RawPerm]:
        return [g for lvl in level_gens[i:] for g in lvl]

    def new_level(pt: int) -> None:
        base.append(pt)
        level_gens.append([])
        transversals.append((ident,))
        inverses.append({pt: ident})
        closed_gens.append(set())

    def rebuild_transversal(i: int) -> tuple[list[RawPerm | None], dict[int, RawPerm | None]]:
        """Rebuild level i.  Return its representatives indexed by point
        (None off the orbit), and for every point whose representative
        differs from the one the level's last closure used, that one's
        inverse (None for a point new to the orbit)."""
        pt = base[i]
        # indexed by point, so the orbit is read off in ascending order
        trans: list[RawPerm | None] = [None] * degree
        trans[pt] = ident
        frontier = [pt]
        gens = gens_at(i)
        while frontier:
            new_pts = []
            for gamma in frontier:
                u = trans[gamma]
                for s in gens:
                    delta = s[gamma]
                    if trans[delta] is None:
                        trans[delta] = _compose(u, s)
                        new_pts.append(delta)
            frontier = sorted(new_pts)
        old_inverse = inverses[i]
        old = dict(zip(old_inverse, transversals[i]))
        changed = {gamma: old_inverse.get(gamma) for gamma, u in enumerate(trans)
                   if u is not None and old.get(gamma) != u}
        transversals[i] = tuple(u for u in trans if u is not None)
        inverses[i] = {gamma: _inverse(u) if gamma in changed else old_inverse[gamma]
                       for gamma, u in enumerate(trans) if u is not None}
        return trans, changed

    def add_nonmember(i: int, g: RawPerm) -> None:
        # pre: g != identity, g fixes base[:i], g is not in the level-i
        # group, and every level deeper than i is closed
        if i == len(base):
            new_level(min(x for x in range(degree) if g[x] != x))
        if g[base[i]] == base[i]:
            add_nonmember(i + 1, g)
        else:
            level_gens[i].append(g)
        trans, changed = rebuild_transversal(i)
        inverse = inverses[i]
        gens = gens_at(i)
        closed = [s in closed_gens[i] for s in gens]
        refuted: set[int] = set()  # changed points whose h sifted to a nonidentity

        def sift_deeper(g: RawPerm) -> RawPerm:
            return _sift(g, base[i + 1:], inverses[i + 1:])

        def certified(gamma: int) -> bool:
            """Whether h_gamma, for gamma in ``changed``, lies in the deeper
            levels' group; if so, gamma leaves ``changed`` for good."""
            old_inv = changed[gamma]
            if old_inv is None or gamma in refuted:
                return False
            if sift_deeper(_compose(trans[gamma], old_inv)) != ident:
                refuted.add(gamma)
                return False
            del changed[gamma]  # the deeper group only grows
            return True

        for gamma, u in zip(inverse, transversals[i]):
            for s, s_closed in zip(gens, closed):
                delta = s[gamma]
                if (s_closed and (gamma not in changed or certified(gamma))
                        and (delta not in changed or certified(delta))):
                    continue
                us = _compose(u, s)
                if us == trans[delta]:  # a tree edge: the Schreier generator is 1
                    continue
                residue = sift_deeper(_compose(us, inverse[delta]))
                if residue != ident:
                    add_nonmember(i + 1, residue)
                    refuted.clear()
        closed_gens[i] = set(gens_at(i))

    first = min((min(x for x in range(degree) if g[x] != x)
                 for g in raw_gens if g != ident), default=degree)
    if first < degree:
        new_level(first)
    for g in raw_gens:
        residue = _sift(g, base, inverses)
        if residue != ident:
            add_nonmember(0, residue)
    pairs = tuple((g, _inverse(g)) for g in sorted(set(raw_gens) - {ident}))
    return BSGS(degree, base, level_gens, transversals, inverses, pairs)


class PermGroup:
    """A permutation group defined by its generators.

    The base-and-strong-generating-set structure is built lazily on first
    use and cached; groups are immutable once constructed and safe to
    share.
    """

    __slots__ = ("degree", "generators", "_bsgs")

    def __init__(self, generators: Iterable[Permutation | Iterable[int]]):
        gens = tuple(g if isinstance(g, Permutation) else Permutation(g)
                     for g in generators)
        if not gens:
            raise ValueError("a group needs at least one generator")
        degrees = {g.degree for g in gens}
        if len(degrees) != 1:
            raise ValueError(f"generators have mixed degrees {sorted(degrees)}")
        self.degree = degrees.pop()
        self.generators = gens
        self._bsgs: BSGS | None = None

    @property
    def bsgs(self) -> BSGS:
        if self._bsgs is None:
            self._bsgs = _schreier_sims([g.images for g in self.generators], self.degree)
        return self._bsgs

    def order(self) -> int:
        return self.bsgs.order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.bsgs.sift(p.images) == _identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def _element_images(self, limit: int = DEFAULT_CAP) -> set[RawPerm]:
        """The group's elements as image tuples, breadth-first over the
        Cayley graph; raises :class:`GroupTooLargeError` above ``limit``."""
        n = self.order()
        check_cap(n, limit)
        gens = [g for g, _ in self.bsgs.generator_pairs]
        start = _identity(self.degree)
        seen = {start}
        layer = [start]
        while layer:
            new_elems = []
            for x in layer:
                for s in gens:
                    y = _compose(x, s)
                    if y not in seen:
                        seen.add(y)
                        new_elems.append(y)
            layer = new_elems
        if len(seen) != n:
            raise RuntimeError(
                f"enumeration produced {len(seen)} elements, BSGS order is {n}")
        return seen

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"
