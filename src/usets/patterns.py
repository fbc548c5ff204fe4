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
  has no nontrivial class of prime-power size; such a divisor exists
  exactly when u has at least two distinct prime factors;
* ``parity``: the counts sum to the group order, which must be even.

A POSSIBLE verdict never claims a group exists; INFEASIBLE is a proof
that none does.

Six pure functions are memoised, each by a ``functools.lru_cache`` of at
most ``_CACHE_SIZE`` entries: :func:`parse_term`; the text -> pattern
parse behind every function that takes a pattern as text
(``_parse_pattern``); a pattern's symmetries (``_pattern_automorphisms``);
a term's size options (``_size_options``, behind
:func:`admissible_size_options`); :func:`resolve_equation`; and the
prime-power test of a count (``_is_prime_power``, behind
:func:`is_prime_power` and :func:`feasibility_check`).  Sharing the
results is safe: the keys are strings, ints and immutable records, the
cached values are immutable records, tuples of them, strings or bools,
and the public functions that return lists hand out fresh ones.  An input
that raises is never cached, so it is checked and refused on every call.
The gain needs repeated inputs: an analysis that meets each pattern, term
and count once does the same work as without the caches.

The records are ``typing.NamedTuple`` classes, so importing the module
generates no methods; as tuples they hash, sort and compare by their
fields, and :class:`Term` and :class:`USetPattern` check theirs in
``__new__``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

SYMBOLS = ("p", "q", "r")

#: Entries kept by each memo cache of this module: well above the distinct
#: patterns, terms and counts that ``usets verify paper`` meets, and a fixed
#: ceiling on what a long-lived process holds.
_CACHE_SIZE = 1024

# ---------------------------------------------------------------------------
# integer utilities: factorize is the one factorization, and every prime
# question here and in match_pattern is answered from it.


#: Trial division alone runs up to this divisor; past it, factorize tests
#: the cofactor for primality and splits composite ones with _rho.
_TRIAL_ONLY = 1 << 16
#: _rho gets 1/_RHO_SHARE of the trial divisions it would replace.
_RHO_SHARE = 64
#: Miller-Rabin with the bases _MR_BASES has no strong pseudoprime below
#: this bound (Sorenson and Webster, 2015), so the test is exact there.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _miller_rabin(n: int) -> bool:
    """Whether an odd n > 41 passes the strong-probable-prime test to
    every base in _MR_BASES; for n < _MR_LIMIT, whether n is prime."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, steps: int) -> int | None:
    """A proper divisor of the odd composite n, by Pollard's rho with
    Brent's cycle finding on x -> x*x + c for c = 1, 2, ... in turn; None
    once ``steps`` iterations have found none."""
    for c in itertools.count(1):
        x = y = 2
        power = lam = g = 1
        while g == 1:
            if steps <= 0:
                return None
            if power == lam:
                x, power, lam = y, 2 * power, 0
            y = (y * y + c) % n
            lam, steps = lam + 1, steps - 1
            g = math.gcd(x - y, n)
        if g != n:
            return g


def _integer_root(n: int, k: int) -> int:
    """The largest integer r with r**k <= n, for n >= 0 and k >= 1."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > the root
    while True:  # Newton steps decrease to the floor of the root
        d = ((k - 1) * r + n // r ** (k - 1)) // k
        if d >= r:
            return r
        r = d


def _exact_root(n: int, least: int) -> tuple[int, int]:
    """(r, k) with r**k == n, r >= ``least`` and k >= 2 as small as
    possible; (n, 1) if there is none."""
    k = 2
    while least ** k <= n:
        r = _integer_root(n, k)
        if r ** k == n:
            return r, k
        k += 1
    return n, 1


def factorize(n: int, bound: int | None = None) -> dict[int, int]:
    """Prime factorization; the product of p**e reconstructs n.  With a
    ``bound``, the keys are the primes <= bound, ascending, and then the
    product of the rest as one cofactor with exponent 1.

    Trial division runs up to min(bound, 2**16).  What is left has only
    larger prime factors and is taken apart piece by piece: a piece below
    _MR_LIMIT that _miller_rabin passes is prime; one it fails is split
    into k pieces r if it is r**k (by _exact_root; r > 2**16, so k <
    bits/16), else by _rho; and trial division finishes the pieces rho
    gives up on after 1/_RHO_SHARE of the divisions it would save.  Every
    route gives the same keys.  A piece at or above _MR_LIMIT that passes
    raises ValueError, unless the bound leaves no divisor to try."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    bound = n if bound is None else bound
    out: dict[int, int] = {}
    f = 2
    stop = min(bound, _TRIAL_ONLY)
    while f <= stop and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if f > bound or f * f > n:  # n is 1, a prime, or a product of primes > bound
        if n > 1:
            out[n] = 1
        return out
    found: Counter[int] = Counter()  # f is 2**16 + 1, and each piece is odd
    pieces = [n]
    while pieces:
        m = pieces.pop()
        limit = min(bound, math.isqrt(m))
        probable = f <= limit and _miller_rabin(m)
        if f > limit or (probable and m < _MR_LIMIT):  # a prime, or all above bound
            found[m] += 1
            continue
        if probable:  # only trial division up to limit could decide it
            raise ValueError(f"cannot factor {m}: a probable prime at or above "
                             f"{_MR_LIMIT}, where the primality test is not exact")
        r, k = _exact_root(m, f)  # rho would need about sqrt(r) steps on r**k
        if k > 1:
            pieces += [r] * k
            continue
        d = _rho(m, (limit - f) // _RHO_SHARE)
        if d is None:
            d = next((g for g in range(f, limit + 1, 2) if m % g == 0), m)
        if d == m:
            found[m] += 1
        else:
            pieces += [d, m // d]
    rest = math.prod(p ** e for p, e in found.items() if p > bound)
    out.update((p, found[p]) for p in sorted(found) if p <= bound)
    if rest > 1:
        out[rest] = 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def is_prime_power(n: int) -> bool:
    """True iff n = p^k with k >= 1.  By convention 1 is not a prime
    power (it is the identity class size, exempt from the Burnside
    constraint)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return _is_prime_power(n)


@lru_cache(maxsize=_CACHE_SIZE)
def _is_prime_power(n: int) -> bool:
    """:func:`is_prime_power` for n >= 1, one factorisation per n."""
    return len(factorize(n)) == 1


def primes_up_to(bound: int) -> list[int]:
    """The primes <= bound, ascending, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray(2) + bytearray([1]) * (bound - 1)
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return [n for n, flag in enumerate(sieve) if flag]


def solve_psl2_order(order: int) -> int | None:
    """The unique l >= 2 with l(l^2 - 1)/2 == order, if any.

    For l >= 2, (l - 1)^3 <= l^3 - l < l^3, so the only candidate is one
    more than the integer cube root of 2*order, exact at any size.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    l = _integer_root(2 * order, 3) + 1
    return l if l * (l * l - 1) // 2 == order else None


# ---------------------------------------------------------------------------
# symbolic terms and patterns

#: Largest exponent a parsed term may give a symbol; a larger one would
#: make evaluating the term, even at p = 3, cost unbounded time.
MAX_EXPONENT = 64

_TERM_RE = re.compile(r"^(\d+)?((?:[pqr](?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"([pqr])(?:\^(\d+))?")


class _TermFields(NamedTuple):
    coeff: int
    exps: tuple[tuple[str, int], ...]  # sorted by symbol, exponents >= 1


class Term(_TermFields):
    """A product ``coeff * p^a q^b r^c`` with a positive coefficient."""

    __slots__ = ()

    def __new__(cls, coeff: int, exps: tuple[tuple[str, int], ...]) -> "Term":
        if coeff < 1:
            raise ValueError("coefficient must be positive")
        symbols = [s for s, _ in exps]
        if symbols != sorted(symbols) or len(set(symbols)) != len(symbols):
            raise ValueError("exponent list must be sorted and without repeats")
        if any(s not in SYMBOLS for s in symbols) or any(e < 1 for _, e in exps):
            raise ValueError(f"bad exponent list {exps!r}")
        return tuple.__new__(cls, (coeff, exps))

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


@lru_cache(maxsize=_CACHE_SIZE)
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


class _USetPatternFields(NamedTuple):
    terms: tuple[Term, ...]


class USetPattern(_USetPatternFields):
    """A candidate same-size class set given symbolically."""

    __slots__ = ()

    def __new__(cls, terms: tuple[Term, ...]) -> "USetPattern":
        if not terms:
            raise ValueError("pattern needs at least one term")
        if len(set(terms)) != len(terms):
            raise ValueError("pattern terms must be pairwise distinct")
        return tuple.__new__(cls, (terms,))

    @classmethod
    def parse(cls, text: str) -> "USetPattern":
        return cls(tuple(parse_term(part) for part in text.split(",")))

    @property
    def symbols(self) -> tuple[str, ...]:
        present = {s for t in self.terms for s, _ in t.exps}
        return tuple(s for s in SYMBOLS if s in present)

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.terms)


#: USetPattern.parse, once per distinct text.
_parse_pattern = lru_cache(maxsize=_CACHE_SIZE)(USetPattern.parse)


def _as_pattern(pattern: USetPattern | str) -> USetPattern:
    return pattern if isinstance(pattern, USetPattern) else _parse_pattern(pattern)


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


@lru_cache(maxsize=_CACHE_SIZE)
def _pattern_automorphisms(pat: USetPattern) -> tuple[tuple[str, ...], ...]:
    """Symbol permutations that map the term set onto itself, compared
    as (coeff, exps) keys; the terms are distinct, so into is onto.  Each
    is the tuple of the images of ``pat.symbols``, in that order."""
    symbols = pat.symbols
    keys = {(t.coeff, t.exps) for t in pat.terms}
    out = []
    for perm in itertools.permutations(symbols):
        mapping = dict(zip(symbols, perm))
        if all((t.coeff, tuple(sorted((mapping[s], e) for s, e in t.exps))) in keys
               for t in pat.terms):
            out.append(perm)
    return tuple(out)


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
    is assigned.  Trial division of the target values, stopped at
    ``bound``, finds the candidate primes, so ``bound`` caps the cost but
    does not set it; target values below 1 have no prime divisors.  The
    order of the results is that of trying every tuple of primes.
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
    primes = sorted({f for v in goal if v > 0 for f in factorize(v, bound) if f <= bound})
    due = [[t for t in pat.terms if t.exps and t.exps[-1][0] == s] for s in symbols]
    assignment: dict[str, int] = {}
    out = []

    def extend(k: int) -> None:
        if k == len(symbols):
            combo = tuple(assignment.values())
            if len(autos) > 1:
                orbit_min = min(tuple(map(assignment.__getitem__, image)) for image in autos)
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


class FeasibilityIssue(NamedTuple):
    code: str  # "membership" | "burnside" | "parity"
    detail: str


class FeasibilityVerdict(NamedTuple):
    feasible: bool
    issues: tuple[FeasibilityIssue, ...]

    @property
    def verdict(self) -> str:
        return "POSSIBLE" if self.feasible else "INFEASIBLE"

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({i.code for i in self.issues}))


def _divisor_prime_counts(n: int) -> list[tuple[int, int]]:
    """Each divisor of n >= 1 with its number of distinct prime factors,
    from one factorisation."""
    out = [(1, 0)]
    for p, e in factorize(n).items():
        out = [(d * p ** k, m + (k > 0)) for d, m in out for k in range(e + 1)]
    return out


def feasibility_check(u_values: Iterable[int]) -> FeasibilityVerdict:
    """Necessary-condition screen for a multiset of same-size-class
    counts of a nonabelian simple group.  Never asserts existence.  A
    count u > 1 passes the Burnside screen exactly when it has at least
    two distinct prime factors, so each distinct count is factored once,
    and a count already seen by ``_is_prime_power`` not at all."""
    values = list(u_values)
    if not values:
        raise ValueError("cannot judge an empty multiset")
    issues = []
    if 1 not in values:
        issues.append(FeasibilityIssue(
            "membership", "the identity class contributes a count of 1"))
    for v in sorted(set(values)):
        if v > 1 and _is_prime_power(v):
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


def admissible_size_options(term: Term) -> list[Term]:
    """Symbolic class sizes compatible with a count term: divisors that
    are neither 1 nor prime powers, ascending.  The count 1 (identity
    class) maps to size 1."""
    return list(_size_options(term))


@lru_cache(maxsize=_CACHE_SIZE)
def _size_options(term: Term) -> tuple[Term, ...]:
    """:func:`admissible_size_options` as a tuple, once per term.

    The coefficient is factored once.  Each divisor is built as its sort
    key (coeff, exps) with the number of primes and symbols it contains,
    and it is a prime power exactly when that number is 1; only the
    divisors kept become :class:`Term` objects."""
    if term.coeff == 1 and not term.exps:
        return (term,)
    coeffs = _divisor_prime_counts(term.coeff)
    keys = []
    for combo in itertools.product(*(range(e + 1) for _, e in term.exps)):
        exps = tuple((s, f) for (s, _), f in zip(term.exps, combo) if f)
        keys += [(d, exps) for d, n in coeffs if n + len(exps) >= 2]
    return tuple(Term(d, exps) for d, exps in sorted(keys))


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


@lru_cache(maxsize=_CACHE_SIZE)
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


class CollisionCase(NamedTuple):
    """A size assignment in which two distinct count terms receive the
    same symbolic class size, plus the equation that refutes it."""

    sizes: tuple[Term, ...]    # one class size per count term, aligned with the pattern
    pair: tuple[int, int]      # indices of the colliding count terms
    reduced: str               # the two counts equated, shared factors cancelled
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
    n = len(pat.terms)
    option_lists = [_size_options(t) for t in pat.terms]
    ids: dict[Term, int] = {}  # equal sizes share an id, compared as ints
    id_lists = [[ids.setdefault(o, len(ids)) for o in opts] for opts in option_lists]
    solved: dict[tuple[int, int], tuple] = {}  # pair -> reduced, contradiction
    cases = []
    for combo, key in zip(itertools.product(*option_lists), itertools.product(*id_lists)):
        if len(set(key)) == n:
            continue
        pair = next((i, j) for i in range(n) for j in range(i + 1, n) if key[i] == key[j])
        if pair not in solved:
            solved[pair] = resolve_equation(pat.terms[pair[0]], pat.terms[pair[1]])
        cases.append(CollisionCase(combo, pair, *solved[pair]))
    return cases
