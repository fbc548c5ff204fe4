"""Symbolic analysis of candidate same-size class sets.

A *pattern* is a comma-separated list of terms over the prime symbols
p, q, r, each term an optional positive integer coefficient juxtaposed
with symbols carrying optional ``^`` exponents::

    1,rq,8pq,4qr,8pr        1,r^2,4r^2,16r        1,2r^2q

Terms are normalized (symbols sorted, exponents merged), so ``4qr`` and
``4rq`` denote the same term.  Symbols stand for odd primes that are
pairwise distinct and do not divide any coefficient; the feasibility
and collision analysis below relies on that reading.

The feasibility checker applies necessary conditions for a multiset of
same-size-class counts to belong to a nonabelian simple group:

* ``membership``: the count 1 must occur (the identity class, trivial
  center);
* ``burnside``: every count u > 1 must admit a divisor n > 1 that is not
  a prime power, because the class size n divides u and a simple group
  has no nontrivial class of prime-power size;
* ``parity``: the counts sum to the group order, which must be even.

A POSSIBLE verdict never claims a group exists; INFEASIBLE is a proof
that none does.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

SYMBOLS = ("p", "q", "r")

# ---------------------------------------------------------------------------
# integer utilities


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for n in range(2, int(math.isqrt(bound)) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
    return [n for n, flag in enumerate(sieve) if flag]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; the product of p**e
    reconstructs n."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n))) if n > 1 else ()


def is_prime_power(n: int) -> bool:
    """True iff n = p^k with k >= 1.  By convention 1 is not a prime
    power (it is the identity class size, exempt from the Burnside
    constraint)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return len(factorize(n)) == 1 if n > 1 else False


def classify_k(order: int) -> tuple[int, dict[int, int]]:
    """Number of distinct prime divisors of a group order, plus its full
    factorization (a k_n classification for simple groups)."""
    if order < 2:
        raise ValueError(f"group order must be at least 2, got {order}")
    factors = factorize(order)
    return len(factors), factors


def divisors(n: int) -> list[int]:
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def integer_cube_root(n: int) -> int:
    """The largest integer c with c^3 <= n, for n >= 0 (exact at any size)."""
    if n < 0:
        raise ValueError(f"cube root of a negative number {n}")
    if n < 2:
        return n
    c = 1 << -(-n.bit_length() // 3)  # 2^ceil(bits/3) > cube root of n
    while True:  # Newton steps decrease to the floor of the root
        d = (2 * c + n // (c * c)) // 3
        if d >= c:
            return c
        c = d


def solve_psl2_order(order: int) -> int | None:
    """The unique l >= 2 with l(l^2 - 1)/2 == order, if any.

    For l >= 2, (l - 1)^3 <= l^3 - l < l^3, so the only candidate is one
    more than the integer cube root of 2*order.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    l = integer_cube_root(2 * order) + 1
    return l if l * (l * l - 1) // 2 == order else None


# ---------------------------------------------------------------------------
# symbolic terms and patterns

#: Largest exponent a parsed term may give a symbol; a larger one would
#: make evaluating the term, even at p = 3, cost unbounded time.
MAX_EXPONENT = 64

_TERM_RE = re.compile(r"^(\d+)?((?:[pqr](?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"([pqr])(?:\^(\d+))?")


@dataclass(frozen=True, order=True)
class Term:
    """A product ``coeff * p^a q^b r^c`` with a positive coefficient."""

    coeff: int
    exps: tuple[tuple[str, int], ...]  # sorted by symbol, exponents >= 1

    def __post_init__(self):
        if self.coeff < 1:
            raise ValueError("coefficient must be positive")
        symbols = [s for s, _ in self.exps]
        if symbols != sorted(symbols) or len(set(symbols)) != len(symbols):
            raise ValueError("exponent list must be sorted and without repeats")
        if any(s not in SYMBOLS for s in symbols) or any(e < 1 for _, e in self.exps):
            raise ValueError(f"bad exponent list {self.exps!r}")

    @classmethod
    def make(cls, coeff: int, exps: Mapping[str, int] | None = None) -> "Term":
        items = tuple(sorted((s, e) for s, e in (exps or {}).items() if e))
        return cls(coeff, items)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.exps)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        value = self.coeff
        for s, e in self.exps:
            if s not in assignment:
                raise ValueError(f"symbol {s!r} has no assigned value")
            value *= assignment[s] ** e
        return value

    def __str__(self) -> str:
        body = "".join(s if e == 1 else f"{s}^{e}" for s, e in self.exps)
        if not body:
            return str(self.coeff)
        return body if self.coeff == 1 else f"{self.coeff}{body}"


def parse_term(text: str) -> Term:
    s = text.strip().replace(" ", "")
    m = _TERM_RE.match(s)
    if not m or not s:
        raise ValueError(f"cannot parse term {text!r}")
    coeff = int(m.group(1)) if m.group(1) else 1
    exps: dict[str, int] = {}
    for sym, e in _FACTOR_RE.findall(m.group(2)):
        exps[sym] = exps.get(sym, 0) + (int(e) if e else 1)
    if m.group(1) is None and not exps:
        raise ValueError(f"cannot parse term {text!r}")
    if any(e > MAX_EXPONENT for e in exps.values()):
        raise ValueError(f"exponent in term {text!r} exceeds the limit {MAX_EXPONENT}")
    return Term.make(coeff, exps)


@dataclass(frozen=True)
class USetPattern:
    """A candidate same-size class set given symbolically."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("pattern needs at least one term")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("pattern terms must be pairwise distinct")

    @classmethod
    def parse(cls, text: str) -> "USetPattern":
        return cls(tuple(parse_term(part) for part in text.split(",")))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s in SYMBOLS if any(s in t.symbols for t in self.terms))

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.terms)


def _as_pattern(pattern: USetPattern | str) -> USetPattern:
    return pattern if isinstance(pattern, USetPattern) else USetPattern.parse(pattern)


def instantiate_pattern(pattern: USetPattern | str,
                        assignment: Mapping[str, int]) -> list[int]:
    """Evaluate each term under the assignment, in pattern order.

    Duplicated values mean the instantiation is not a valid set of
    distinct counts; see :func:`duplicate_values`.
    """
    pat = _as_pattern(pattern)
    return [t.evaluate(assignment) for t in pat.terms]


def duplicate_values(values: Iterable[int]) -> list[int]:
    seen: set[int] = set()
    dups: set[int] = set()
    for v in values:
        (dups if v in seen else seen).add(v)
    return sorted(dups)


def _apply_symbol_map(term: Term, mapping: Mapping[str, str]) -> Term:
    return Term.make(term.coeff, {mapping[s]: e for s, e in term.exps})


def _pattern_automorphisms(pat: USetPattern) -> list[dict[str, str]]:
    """Symbol permutations that map the term set onto itself."""
    symbols = pat.symbols
    terms = set(pat.terms)
    out = []
    for perm in itertools.permutations(symbols):
        mapping = dict(zip(symbols, perm))
        if {_apply_symbol_map(t, mapping) for t in pat.terms} == terms:
            out.append(mapping)
    return out


def _prime_divisors(values: Iterable[int], bound: int) -> list[int]:
    """Ascending primes <= bound dividing some positive value, found by
    trial division up to min(bound, sqrt(v)); a cofactor <= bound is prime.

    This is not :func:`factorize`: stopping at ``bound`` keeps a small
    ``bound`` cheap on a target value with a large prime factor."""
    found = set()
    for v in values:
        f = 2
        while f <= bound and f * f <= v:
            if v % f == 0:
                found.add(f)
                while v % f == 0:
                    v //= f
            f += 1 if f == 2 else 2
        if 1 < v <= bound:
            found.add(v)
    return sorted(found)


def match_pattern(pattern: USetPattern | str, target: Iterable[int],
                  bound: int) -> list[dict[str, int]]:
    """All prime assignments (primes <= bound) whose instantiation equals
    the target set exactly, with pairwise-distinct term values.

    Assignments related by a symbol permutation that maps the pattern
    onto itself (e.g. the q/r swap in ``1,rq,8pq,4qr,8pr``) produce the
    same value set; only the lexicographically smallest representative
    of each such orbit is reported.  Results are in ascending order over
    the pattern's symbols; prime values are not forced to be distinct.

    The search assigns the symbols one at a time, in ``SYMBOLS`` order,
    and prunes by two consequences of the exact-set test: every term's
    value lies in the target, so a symbol only takes primes that divide
    some target value, and a term is tested as soon as its last symbol
    is assigned.  Trial division of the target values finds the candidate
    primes, so ``bound`` does not set the cost; the order of the results
    is that of trying every tuple of primes.
    """
    if bound < 2:
        raise ValueError("prime bound must be at least 2")
    pat = _as_pattern(pattern)
    goal = set(target)
    if len(goal) != len(pat.terms):  # distinct term values cannot make up the target
        return []
    symbols = pat.symbols
    if not symbols:
        return [{}] if set(instantiate_pattern(pat, {})) == goal else []
    autos = _pattern_automorphisms(pat)
    primes = _prime_divisors(goal, bound)
    due = [[t for t in pat.terms if t.symbols and t.symbols[-1] == s] for s in symbols]
    assignment: dict[str, int] = {}
    out = []

    def extend(k: int) -> None:
        if k == len(symbols):
            combo = tuple(assignment.values())
            if len(autos) > 1:
                orbit_min = min(tuple(assignment[m[s]] for s in symbols) for m in autos)
                if combo != orbit_min:
                    return
            if set(instantiate_pattern(pat, assignment)) == goal:
                out.append(dict(assignment))
            return
        for p in primes:
            assignment[symbols[k]] = p
            if all(t.evaluate(assignment) in goal for t in due[k]):
                extend(k + 1)
        assignment.pop(symbols[k], None)

    extend(0)
    return out


# ---------------------------------------------------------------------------
# feasibility of concrete count multisets


@dataclass(frozen=True)
class FeasibilityIssue:
    code: str  # "membership" | "burnside" | "parity"
    detail: str


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    issues: tuple[FeasibilityIssue, ...]

    @property
    def verdict(self) -> str:
        return "POSSIBLE" if self.feasible else "INFEASIBLE"

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({i.code for i in self.issues}))


def admissible_class_sizes(count: int) -> list[int]:
    """Class sizes that could produce ``count`` elements in a simple
    group: divisors n > 1 of the count that are not prime powers."""
    return [d for d in divisors(count) if d > 1 and not is_prime_power(d)]


def feasibility_check(u_values: Iterable[int]) -> FeasibilityVerdict:
    """Necessary-condition screen for a multiset of same-size-class
    counts of a nonabelian simple group.  Never asserts existence."""
    values = list(u_values)
    if not values:
        raise ValueError("cannot judge an empty multiset")
    issues = []
    if 1 not in values:
        issues.append(FeasibilityIssue(
            "membership", "the identity class contributes a count of 1"))
    for v in sorted(set(values)):
        if v > 1 and not admissible_class_sizes(v):
            issues.append(FeasibilityIssue(
                "burnside",
                f"count {v} admits no class size > 1 that is not a prime power"))
    total = sum(values)
    if total % 2:
        issues.append(FeasibilityIssue(
            "parity", f"counts sum to {total}, but the group order must be even"))
    return FeasibilityVerdict(not issues, tuple(issues))


# ---------------------------------------------------------------------------
# symbolic divisors and collision analysis


def symbolic_divisors(term: Term) -> list[Term]:
    """All divisors of a term, treating symbols as primes not dividing
    the coefficient."""
    out = []
    for c in divisors(term.coeff):
        for combo in itertools.product(*(range(e + 1) for _, e in term.exps)):
            exps = {s: f for (s, _), f in zip(term.exps, combo) if f}
            out.append(Term.make(c, exps))
    return sorted(set(out))


def is_symbolic_prime_power(term: Term) -> bool:
    """Prime-power test under the standing assumption that symbols denote
    primes distinct from each other and from the coefficient's factors."""
    bases = len(factorize(term.coeff)) + len(term.exps)
    return bases == 1


def admissible_size_options(term: Term) -> list[Term]:
    """Symbolic class sizes compatible with a count term: divisors that
    are neither 1 nor prime powers.  The count 1 (identity class) maps to
    size 1."""
    if term == Term.make(1):
        return [term]
    one = Term.make(1)
    return [d for d in symbolic_divisors(term)
            if d != one and not is_symbolic_prime_power(d)]


def _cancel(a: Term, b: Term) -> tuple[Term, Term]:
    g = math.gcd(a.coeff, b.coeff)
    ea, eb = dict(a.exps), dict(b.exps)
    for s in set(ea) & set(eb):
        m = min(ea[s], eb[s])
        ea[s] -= m
        eb[s] -= m
    return Term.make(a.coeff // g, ea), Term.make(b.coeff // g, eb)


def _shape_solutions(term: Term, value: int) -> bool:
    """Whether coeff * (symbol product) == value is solvable with the
    symbols taking pairwise-distinct odd primes."""
    quotient, rem = divmod(value, term.coeff)
    if rem:
        return False
    factors = factorize(quotient) if quotient > 1 else {}
    if any(p == 2 for p in factors):
        return False
    return sorted(factors.values()) == sorted(e for _, e in term.exps)


def resolve_equation(a: Term, b: Term) -> tuple[str, str | None]:
    """Normalize ``a == b`` by cancelling shared factors and decide it.

    Returns the reduced equation string and a contradiction reason, or
    None when values satisfying the equation exist (symbols as distinct
    odd primes).
    """
    lhs, rhs = _cancel(a, b)
    if rhs.symbols and not lhs.symbols:
        lhs, rhs = rhs, lhs
    eq = f"{lhs} = {rhs}"
    if not lhs.symbols and not rhs.symbols:
        return eq, f"the constants {lhs} and {rhs} differ"
    if lhs.symbols and rhs.symbols:
        if (lhs.coeff, rhs.coeff) == (1, 1) and len(lhs.exps) == len(rhs.exps) == 1 \
                and lhs.exps[0][1] == rhs.exps[0][1] == 1:
            return eq, f"{lhs} and {rhs} denote distinct primes"
        return eq, None  # not decided symbolically
    value = rhs.coeff
    if _shape_solutions(lhs, value):
        return eq, None
    if len(lhs.exps) == 1 and lhs.coeff == 1 and lhs.exps[0][1] == 1:
        return eq, f"{value} is not an odd prime"
    return eq, f"no distinct odd primes give {lhs} the value {value}"


@dataclass(frozen=True)
class SizeAssignment:
    """One candidate class size per count term, aligned with the pattern."""

    sizes: tuple[Term, ...]

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.sizes) + "}"


@dataclass(frozen=True)
class CollisionCase:
    """A size assignment in which two distinct count terms receive the
    same symbolic class size, plus the equation that refutes it."""

    assignment: SizeAssignment
    pair: tuple[int, int]      # indices of the colliding count terms
    equation: str              # raw equation between the two counts
    reduced: str               # after cancelling shared factors
    contradiction: str | None  # None would mean the case is not refuted


def enumerate_collision_assignments(pattern: USetPattern | str) -> list[CollisionCase]:
    """Enumerate size assignments with a repeated class size.

    Each count term is assigned one size from its admissible option list
    (derived via :func:`admissible_size_options`).  For
    every assignment in which two count terms share a size, the two
    counts are equated symbolically: both would equal the number of
    elements of that class size, so their equality is forced, and
    reducing it yields the recorded contradiction.
    """
    pat = _as_pattern(pattern)
    option_lists = [admissible_size_options(t) for t in pat.terms]
    cases = []
    for combo in itertools.product(*option_lists):
        pair = next(((i, j)
                     for i in range(len(combo))
                     for j in range(i + 1, len(combo))
                     if combo[i] == combo[j]), None)
        if pair is None:
            continue
        u_i, u_j = pat.terms[pair[0]], pat.terms[pair[1]]
        reduced, why = resolve_equation(u_i, u_j)
        cases.append(CollisionCase(
            assignment=SizeAssignment(tuple(combo)),
            pair=pair,
            equation=f"{u_i} = {u_j}",
            reduced=reduced,
            contradiction=why,
        ))
    return cases
