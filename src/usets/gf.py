"""Arithmetic in GF(p^k) with a polynomial-basis representation.

Elements are coefficient vectors over GF(p) reduced modulo a fixed monic
irreducible polynomial.  Two deterministic choices fix every downstream
enumeration order:

* The modulus is the smallest monic irreducible of degree k, where
  polynomials are ordered by their integer encoding
  ``sum(c_i * p**i)`` (so GF(4) uses x^2+x+1, GF(8) uses x^3+x+1,
  GF(9) uses x^2+1).
* Elements are ordered by the same integer encoding of their coefficient
  vector; ``FieldSpec.elements()`` yields them in that order and
  ``primitive_element`` returns the first generator of the multiplicative
  group under it.

Only small fields are supported (k <= 4), which covers every group
construction in this package.  The choice of modulus does not matter for
any computed invariant, as all fields of a given size are isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .patterns import is_prime


def _poly_eval(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_mod(dividend: Sequence[int], divisor: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of polynomial division by a monic divisor over GF(p)."""
    rem = list(dividend)
    dd = len(divisor) - 1
    for top in range(len(rem) - 1, dd - 1, -1):
        f = rem[top]
        if f:
            rem[top] = 0
            for i in range(dd):
                rem[top - dd + i] = (rem[top - dd + i] - f * divisor[i]) % p
    return tuple(rem[:dd])


def _monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Monic degree-``degree`` polynomials in ascending integer-encoding order."""
    for code in range(p ** degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    k = len(coeffs) - 1
    if k == 1:
        return True
    if any(_poly_eval(coeffs, x, p) == 0 for x in range(p)):
        return False
    if k <= 3:
        return True
    if k == 4:
        for quad in _monic_polys(p, 2):
            if _is_irreducible(quad, p) and not any(_poly_mod(coeffs, quad, p)):
                return False
        return True
    raise ValueError(f"irreducibility test limited to degree <= 4, got {k}")


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p^k), fixed by its characteristic and modulus."""

    p: int
    k: int
    modulus: tuple[int, ...]  # ascending coefficients, length k+1, monic

    @property
    def size(self) -> int:
        return self.p ** self.k

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        c = tuple(x % self.p for x in coeffs)
        if len(c) > self.k:
            c = _poly_mod(c, self.modulus, self.p)
        return FieldElement(self, c + (0,) * (self.k - len(c)))

    def scalar(self, value: int) -> "FieldElement":
        """The prime-subfield element ``value mod p``."""
        return self.element((value,))

    def from_index(self, index: int) -> "FieldElement":
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for GF({self.size})")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(index % self.p)
            index //= self.p
        return FieldElement(self, tuple(coeffs))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return self.scalar(1)

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in canonical (integer-encoding) order."""
        for i in range(self.size):
            yield self.from_index(i)

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.p}^{self.k}))" if self.k > 1 else f"FieldSpec(GF({self.p}))"


def field_create(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the canonical (smallest) irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k <= 4:
        raise ValueError(f"extension degree must be between 1 and 4, got {k}")
    for candidate in _monic_polys(p, k):
        if _is_irreducible(candidate, p):
            return FieldSpec(p, k, candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise ValueError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        k = self.spec.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        return FieldElement(self.spec, _poly_mod(prod, self.spec.modulus, p))

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self ** (self.spec.size - 2)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def index(self) -> int:
        """Integer encoding; defines the canonical element order."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * self.spec.p + c
        return acc

    def multiplicative_order(self) -> int:
        if not self:
            raise ValueError("0 has no multiplicative order")
        n = 1
        acc = self
        one = self.spec.one
        while acc != one:
            acc = acc * self
            n += 1
        return n

    def __repr__(self) -> str:
        return f"<GF({self.spec.size}) #{self.index()}>"


def primitive_element(spec: FieldSpec) -> FieldElement:
    """First element (canonical order) generating the multiplicative group."""
    target = spec.size - 1
    for e in spec.elements():
        if e and e.multiplicative_order() == target:
            return e
    raise RuntimeError(f"no primitive element found in GF({spec.size})")
