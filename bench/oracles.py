"""Reference answers for the benchmark, computed without the package.

Nothing here imports ``usets``: every expected value comes from a
textbook formula, a published list, or a check written independently
of the code under test.  The workloads look these functions up through
the module at call time, so ``selftest.py`` can replace one with a
deliberately wrong version and confirm that the workload reports it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from pathlib import Path

VERIFY_REFERENCE = Path(__file__).parent / "data" / "verify_paper_seed.json"


# -- group orders and class sizes -------------------------------------------

def psl_order(n: int, q: int) -> int:
    """|PSL(n,q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1) / gcd(n, q-1)."""
    size = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        size *= q ** i - 1
    return size // math.gcd(n, q - 1)


def alt_order(n: int) -> int:
    return math.factorial(n) // 2


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def alt_class_sizes(n: int) -> list[int]:
    """Class sizes of A_n, ascending, from cycle types.

    An even cycle type with centralizer order z in S_n gives a class of
    n!/z elements; it splits into two A_n classes of half that size
    exactly when its parts are distinct and odd.
    """
    sizes = []
    for parts in _partitions(n):
        if (n - len(parts)) % 2:
            continue  # odd permutation
        z = 1
        for k, m in Counter(parts).items():
            z *= k ** m * math.factorial(m)
        size = math.factorial(n) // z
        if len(set(parts)) == len(parts) and all(p % 2 for p in parts):
            sizes += [size // 2, size // 2]
        else:
            sizes.append(size)
    return sorted(sizes)


# -- symbolic patterns --------------------------------------------------------

_TERM = re.compile(r"^(\d*)((?:[pqr](?:\^\d+)?)*)$")


def parse_pattern(text: str) -> list[tuple[int, dict[str, int]]]:
    """Terms of a pattern such as ``1,rq,8pq`` as (coefficient, exponents)."""
    terms = []
    for raw in text.split(","):
        m = _TERM.match(raw.strip())
        if not m or not raw.strip():
            raise ValueError(f"bad term {raw!r}")
        exps: dict[str, int] = {}
        for sym, e in re.findall(r"([pqr])(?:\^(\d+))?", m.group(2)):
            exps[sym] = exps.get(sym, 0) + (int(e) if e else 1)
        terms.append((int(m.group(1) or 1), exps))
    return terms


def pattern_symbols(terms) -> list[str]:
    return sorted({s for _, exps in terms for s in exps})


def evaluate(terms, assignment: dict[str, int]) -> list[int]:
    return [c * math.prod(assignment[s] ** e for s, e in exps.items())
            for c, exps in terms]


def _term_key(coeff: int, exps: dict[str, int]):
    return coeff, frozenset(exps.items())


def orbit_representative(terms, assignment: dict[str, int]) -> dict[str, int]:
    """Least assignment, in p,q,r order, among those obtained by a symbol
    permutation that maps the pattern's term set onto itself."""
    symbols = pattern_symbols(terms)
    term_set = {_term_key(c, e) for c, e in terms}
    best = None
    for image in itertools.permutations(symbols):
        rename = dict(zip(symbols, image))
        renamed = {_term_key(c, {rename[s]: x for s, x in e.items()}) for c, e in terms}
        if renamed == term_set:
            cand = tuple(assignment[rename[s]] for s in symbols)
            best = cand if best is None else min(best, cand)
    return dict(zip(symbols, best))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def is_valid_match(terms, target: set[int], bound: int, assignment: dict[str, int]) -> bool:
    """An assignment of primes <= bound whose distinct values form the target."""
    if sorted(assignment) != pattern_symbols(terms):
        return False
    if not all(is_prime(v) and v <= bound for v in assignment.values()):
        return False
    values = evaluate(terms, assignment)
    return len(set(values)) == len(values) and set(values) == target


def _distinct_prime_count(n: int) -> int:
    count, f = 0, 2
    while f * f <= n:
        if n % f == 0:
            count += 1
            while n % f == 0:
                n //= f
        f += 1
    return count + (n > 1)


def feasibility(values: list[int]) -> tuple[str, tuple[str, ...]]:
    """Verdict and sorted reason codes of the simple-group screen.

    The identity count 1 must be present; every count above 1 needs a
    divisor above 1 that is not a prime power, which exists exactly when
    the count has two distinct prime factors; and the counts sum to the
    group order, which is even.
    """
    codes = set()
    if 1 not in values:
        codes.add("membership")
    if any(v > 1 and _distinct_prime_count(v) < 2 for v in values):
        codes.add("burnside")
    if sum(values) % 2:
        codes.add("parity")
    return ("INFEASIBLE" if codes else "POSSIBLE"), tuple(sorted(codes))


#: Published admissible class sizes for each count of {1,rq,16q,16r,4rq}.
COLLISION_OPTIONS = {
    "1": ("1",), "rq": ("qr",), "16q": ("2q", "4q", "8q", "16q"),
    "16r": ("2r", "4r", "8r", "16r"),
    "4rq": ("2r", "4r", "2q", "4q", "qr", "2qr", "4qr"),
}


def collision_case_count() -> int:
    """Size assignments of {1,rq,16q,16r,4rq} in which two counts share a
    class size (the published list shows 31 of these and omits one)."""
    return sum(len(set(combo)) < len(combo)
               for combo in itertools.product(*COLLISION_OPTIONS.values()))


def psl2_solution(order: int) -> int | None:
    """The l >= 2 with l(l^2-1)/2 == order, by bisection on the increasing
    left side."""
    lo, hi = 2, 2
    while hi * (hi * hi - 1) // 2 < order:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * (mid * mid - 1) // 2 < order:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo * (lo * lo - 1) // 2 == order else None


# -- the paper's verification report -----------------------------------------

def verify_reference() -> dict:
    """`usets --format json verify paper` at the seed commit, timestamp removed."""
    return json.loads(VERIFY_REFERENCE.read_text())
