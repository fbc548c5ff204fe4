"""Named registry of the groups the verification suite works with.

Every catalog group is built on first use by a constructor in
:mod:`usets.construct`.  Each entry records its expected order together
with a provenance note saying how that number was obtained, and a group
is only handed out after its computed order matches.

Groups from elsewhere load through :func:`load_generator_file`, which
takes the generator file format (text, UTF-8)::

    # comment lines and blank lines are ignored
    degree N
    order M
    (1,2,3)(4,5)      <- one generator per line, 1-based disjoint cycles
    ()                <- the identity, if ever needed

Points are 1-based in files (atlas convention) and converted at this
boundary only.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable

from .construct import (alternating_group, classical_group, classical_order,
                        hermitian_form, m11_group, psl_group, symplectic_form)
from .invariants import InvariantProfile, profile
from .patterns import factorize
from .perm import DEFAULT_CAP, PermGroup, Permutation, check_cap


class CatalogError(Exception):
    """Base class for catalog failures."""


class UnknownGroupError(CatalogError):
    pass


class OrderMismatchError(CatalogError):
    """A built group's order disagrees with its declared order."""


class GeneratorFileError(CatalogError):
    """Base class for generator-file parse failures."""


class MalformedCycleError(GeneratorFileError):
    pass


class PointOutOfRangeError(GeneratorFileError):
    pass


class DuplicatePointError(GeneratorFileError):
    pass


#: Largest degree a generator file may declare; each generator costs a
#: list of that many points, allocated before any cycle is read.
MAX_FILE_DEGREE = 100_000

_CYCLE_LINE_RE = re.compile(r"^(\(\s*\)|\(\s*\d+(\s*,\s*\d+)*\s*\))+$")


def parse_cycle_notation(text: str, degree: int) -> Permutation:
    """One permutation in 1-based disjoint cycle notation."""
    s = text.strip()
    if not _CYCLE_LINE_RE.match(s):
        raise MalformedCycleError(f"cannot parse cycle notation {text!r}")
    cycles = [[int(tok) - 1 for tok in body.split(",")]
              for body in re.findall(r"\(([^()]*)\)", s) if body.strip()]
    seen: set[int] = set()
    for cycle in cycles:
        for pt in cycle:
            if not 0 <= pt < degree:
                raise PointOutOfRangeError(
                    f"point {pt + 1} outside 1..{degree} in {text!r}")
            if pt in seen:
                raise DuplicatePointError(
                    f"point {pt + 1} repeated in {text!r}")
            seen.add(pt)
    return Permutation.from_cycles(degree, *cycles)


def parse_generator_file(path: Path | str) -> tuple[int, int, list[Permutation]]:
    """Parse a generator file into (degree, declared order, generators)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GeneratorFileError(f"cannot read generator file {path}: {exc}")
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise GeneratorFileError(f"{path.name}: need degree, order and generators")
    m = re.fullmatch(r"degree\s+(\d+)", lines[0])
    if not m:
        raise GeneratorFileError(f"{path.name}: first line must be 'degree N'")
    degree = int(m.group(1))
    if degree > MAX_FILE_DEGREE:
        raise GeneratorFileError(
            f"{path.name}: degree {degree} exceeds the limit {MAX_FILE_DEGREE}")
    m = re.fullmatch(r"order\s+(\d+)", lines[1])
    if not m:
        raise GeneratorFileError(f"{path.name}: second line must be 'order M'")
    declared = int(m.group(1))
    gens = [parse_cycle_notation(ln, degree) for ln in lines[2:]]
    return degree, declared, gens


class CatalogEntry:
    """A named group with its declared order and a lazy, validated build.

    ``source`` is "constructor" or "generator_file", and ``provenance``
    says how ``expected_order`` was obtained."""

    def __init__(self, name: str, source: str, expected_order: int, provenance: str,
                 builder: Callable[[], PermGroup]):
        self.name = name
        self.source = source
        self.expected_order = expected_order
        self.provenance = provenance
        self.builder = builder
        self._group: PermGroup | None = None
        self._profile: InvariantProfile | None = None

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(name={self.name!r}, source={self.source!r}, "
                f"expected_order={self.expected_order!r}, provenance={self.provenance!r}, "
                f"builder={self.builder!r})")

    def group(self) -> PermGroup:
        if self._group is None:
            g = self.builder()
            got = g.order()
            if got != self.expected_order:
                raise OrderMismatchError(
                    f"{self.name}: built order {got}, expected {self.expected_order}")
            self._group = g
        return self._group

    def profile(self, cap: int = DEFAULT_CAP) -> InvariantProfile:
        """Invariant profile, cached after the first computation; raises
        :class:`GroupTooLargeError` when the order exceeds ``cap``, cached
        or not."""
        check_cap(self.expected_order, cap, self.name)
        if self._profile is None:
            self._profile = profile(self.group(), cap)
        return self._profile

    @property
    def k(self) -> int:
        """Number of distinct primes dividing the order."""
        return len(factorize(self.expected_order))


def load_generator_file(path: Path | str) -> CatalogEntry:
    """Standalone entry from a generator file, validated immediately."""
    path = Path(path)
    _, declared, gens = parse_generator_file(path)
    entry = CatalogEntry(
        name=path.stem,
        source="generator_file",
        expected_order=declared,
        provenance=f"declared in {path.name}",
        builder=lambda: PermGroup(gens),
    )
    entry.group()
    return entry


def _natural_key(name: str) -> tuple:
    return tuple(int(tok) if tok.isdigit() else tok
                 for tok in re.split(r"(\d+)", name))


def _canonical(name: str) -> str:
    s = name.replace(" ", "").upper()
    m = re.fullmatch(r"(?:PSL|L)\((\d+),(\d+)\)|L(\d)\((\d+)\)", s)
    if m:
        n, q = (m.group(1), m.group(2)) if m.group(1) else (m.group(3), m.group(4))
        return f"PSL({n},{q})"
    m = re.fullmatch(r"(?:PSU|U)(\d)\((\d+)\)|(?:PSU|U)\((\d+),(\d+)\)", s)
    if m:
        n, q = (m.group(1), m.group(2)) if m.group(1) else (m.group(3), m.group(4))
        return f"U{n}({q})"
    return s


class Catalog:
    """Registry of named groups; built once, then read-only."""

    def __init__(self):
        specs = [(f"A{n}", lambda n=n: alternating_group(n), classical_order("Alt", n),
                  f"{n}!/2") for n in (5, 6, 9, 10)]
        specs += [(f"PSL({n},{q})", lambda n=n, q=q: psl_group(n, q), classical_order("PSL", n, q),
                   f"q^{n * (n - 1) // 2}*prod(q^i-1, i=2..{n})/gcd({n},q-1), q={q}")
                  for n, q in [(2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (2, 11),
                               (2, 13), (2, 17), (3, 3), (3, 4)]]
        specs += [
            ("M11", m11_group, 7920, "11*10*9*8 (sharply 4-transitive on 11 points)"),
            # Of the generating sets tried, these cost profile() the fewest samples
            # and search nodes; twist 3 codes sqrt(-1) in GF(9) (l + l^3 = 0).
            ("U3(3)", lambda: classical_group(hermitian_form, 3, 9, (0, 13, 21), twist=3),
             6048, "q^3(q^2-1)(q^3+1)/gcd(3,q+1) = 27*8*28, q=3"),
            ("U4(2)", lambda: classical_group(symplectic_form, 4, 3, (0, 1, 4, 17)), 25920,
             "q^4(q^2-1)(q^4-1)/gcd(2,q-1) = 81*8*80/2, q=3 (as the symplectic group on PG(3,3))"),
        ]
        self._entries = {name: CatalogEntry(name, "constructor", order, provenance, builder)
                         for name, builder, order, provenance in specs}

    def names(self) -> list[str]:
        return sorted(self._entries, key=_natural_key)

    def entry(self, name: str) -> CatalogEntry:
        key = _canonical(name)
        if key not in self._entries:
            known = ", ".join(self.names())
            raise UnknownGroupError(f"unknown group {name!r}; known groups: {known}")
        return self._entries[key]

    def get(self, name: str) -> PermGroup:
        """The named group, built lazily and order-validated."""
        return self.entry(name).group()

    def entries(self, k: int | None = None,
                max_order: int | None = None) -> list[CatalogEntry]:
        """Entries in natural name order, optionally filtered by the number
        of distinct prime divisors or by a maximum order."""
        out = [self._entries[n] for n in self.names()]
        if k is not None:
            out = [e for e in out if e.k == k]
        if max_order is not None:
            out = [e for e in out if e.expected_order <= max_order]
        return out

    def search(self, uset: Iterable[int],
               cap: int = DEFAULT_CAP) -> tuple[list[str], list[str]]:
        """The groups of order at most ``cap`` whose U-set equals ``uset``,
        and the groups above ``cap``, which are not scanned; names in
        natural order."""
        target = frozenset(uset)
        matches = [e.name for e in self.entries(max_order=cap)
                   if e.profile(cap).U == target]
        return matches, [e.name for e in self.entries() if e.expected_order > cap]


@lru_cache(maxsize=None)
def default_catalog() -> Catalog:
    """Shared catalog instance, so invariant profiles are computed at most
    once per process."""
    return Catalog()
