"""Arithmetic in GF(p^k) on integer-coded elements.

An element is the integer ``sum(c_i * p**i)`` of its coefficient vector
(c_0, ..., c_{k-1}) in the polynomial basis modulo a fixed monic
irreducible polynomial, so the elements of GF(q) are 0 .. q-1, with 0
and 1 the zero and the one of every field.  Two deterministic choices
fix every downstream enumeration order:

* The modulus is the smallest monic irreducible of degree k, where
  polynomials are ordered by the same integer encoding (so GF(4) uses
  x^2+x+1, GF(8) uses x^3+x+1, GF(9) uses x^2+1).
* Elements are ordered by their integer, and ``Field.primitive`` is the
  first element in that order that generates the multiplicative group.

:func:`field_create` builds the addition and multiplication tables once
per field from the powers of that primitive element, so fields are
limited by size (:data:`MAX_FIELD_SIZE`), not by degree.  Each row is a
C-level gather: row a of ``mul`` picks g^(log a + log b) for every b,
and of ``add`` a(1 + b/a).  The choice of modulus does not matter for
any computed invariant, as all fields of a given size are isomorphic.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .patterns import is_prime

#: Largest field built: its add and mul tables have q^2 <= 65 536 entries.
MAX_FIELD_SIZE = 256


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


def _coeffs(code: int, p: int, degree: int) -> list[int]:
    """Ascending coefficients of the polynomial with integer encoding ``code``."""
    out = []
    for _ in range(degree):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Monic degree-``degree`` polynomials in ascending integer-encoding order."""
    for code in range(p ** degree):
        yield tuple(_coeffs(code, p, degree)) + (1,)


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """No monic factor of degree 1 .. k/2 divides the degree-k polynomial."""
    k = len(coeffs) - 1
    return all(any(_poly_mod(coeffs, factor, p))
               for d in range(1, k // 2 + 1) for factor in _monic_polys(p, d))


class Field:
    """GF(p^k) on the elements 0 .. size-1 (see the module docstring).

    ``add[a][b]`` and ``mul[a][b]`` are the sum and product, ``neg[a]`` is
    -a and ``inv[a]`` is 1/a (``inv[0]`` is None); ``primitive`` is the
    first element whose powers are all nonzero elements.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p, self.k, self.modulus = p, k, modulus
        self.size = q = p ** k

        def times(a: int, b: int) -> int:  # the product of polynomials mod the modulus
            if k == 1:
                return a * b % p
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(_coeffs(a, p, k)):
                for j, y in enumerate(_coeffs(b, p, k)):
                    prod[i + j] += x * y
            return sum(c % p * p ** i for i, c in enumerate(_poly_mod(prod, modulus, p)))

        for g in range(1, q):  # stops at the first g whose powers are all q - 1 units
            powers = [1]
            while len(powers) < q and (x := times(powers[-1], g)) != 1:
                powers.append(x)
            if len(powers) == q - 1:
                break
        else:
            raise ValueError(f"modulus {modulus} is not irreducible over GF({p})")
        self.primitive = g
        log = [2 * q - 2] * q  # log 0 points past two cycles of powers, onto the zeros
        for e, x in enumerate(powers):
            log[x] = e
        exp = powers * 2 + [0] * (q - 1)  # exp[e] = g^e for e < 2(q - 1), then 0
        by_log = itemgetter(*log)  # row a of mul is exp[log a + log b] for every b
        self.mul = ((0,) * q,) + tuple(by_log(exp[log[a]:]) for a in range(1, q))
        self.inv = (None,) + tuple(powers[-log[a]] for a in range(1, q))
        # a + b = a(1 + b/a), and adding 1 only changes the constant coefficient
        plus_one = [x + 1 if (x + 1) % p else x + 1 - p for x in range(q)]
        self.add = (tuple(range(q)),) + tuple(
            itemgetter(*itemgetter(*self.mul[self.inv[a]])(plus_one))(self.mul[a])
            for a in range(1, q))
        self.neg = self.mul[p - 1]  # -1 is the constant p - 1

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            if not a:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            a, n = self.inv[a], -n
        result = 1
        while n:
            if n & 1:
                result = self.mul[result][a]
            a = self.mul[a][a]
            n >>= 1
        return result


@lru_cache(maxsize=None)
def field_create(p: int, k: int) -> Field:
    """GF(p^k) with the canonical (smallest) irreducible modulus."""
    if k < 1 or p ** k > MAX_FIELD_SIZE:
        raise ValueError(f"GF({p}^{k}) is outside the field sizes 2 .. {MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    modulus = next(f for f in _monic_polys(p, k) if _is_irreducible(f, p))
    return Field(p, k, modulus)
