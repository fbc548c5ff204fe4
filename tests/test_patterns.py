import ast
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usets import patterns
from usets.patterns import (
    Term,
    USetPattern,
    admissible_size_options,
    duplicate_values,
    enumerate_collision_assignments,
    factorize,
    feasibility_check,
    instantiate_pattern,
    is_prime_power,
    match_pattern,
    parse_term,
    primes_up_to,
    resolve_equation,
    solve_psl2_order,
)
from usets.verify import (
    CHARACTERIZATION_PATTERN,
    COLLISION_PATTERN,
    ELIMINATION_BURNSIDE,
    ELIMINATION_PARITY,
    K3_ELIMINATION_PATTERN,
    PUBLISHED_USET_SHAPES,
)


class TestParsing:
    def test_terms_normalize(self):
        assert parse_term("4qr") == parse_term("4rq")
        assert str(parse_term("4rq")) == "4qr"
        assert str(parse_term("r^2")) == "r^2"
        assert str(parse_term("1")) == "1"
        assert parse_term("rr") == parse_term("r^2")

    def test_pattern_round_trip(self):
        for text in ("1,rq,8pq,4qr,8pr", "1,r^2,4r^2,16r", "1,2r^2q"):
            pat = USetPattern.parse(text)
            assert USetPattern.parse(str(pat)) == pat

    def test_bad_terms_rejected(self):
        for bad in ("", "x", "3x", "q^", "0p"):
            with pytest.raises(ValueError):
                parse_term(bad)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            USetPattern.parse("rq,qr")

    def test_exponent_limit(self):
        limit = patterns.MAX_EXPONENT
        assert parse_term(f"p^{limit}").exps == (("p", limit),)
        for bad in (f"p^{limit + 1}", f"q^{limit}q", "p^99999999"):
            with pytest.raises(ValueError, match="exceeds the limit"):
                parse_term(bad)

    def test_symbols(self):
        assert USetPattern.parse("1,rq,8pq").symbols == ("p", "q", "r")


class TestInstantiate:
    def test_characterization_set(self):
        values = instantiate_pattern("1,rq,8pq,4qr,8pr", {"p": 3, "q": 5, "r": 11})
        assert sorted(values) == [1, 55, 120, 220, 264]

    def test_parity_example(self):
        values = instantiate_pattern("1,2p,8p,16p", {"p": 3})
        assert values == [1, 6, 24, 48]
        assert sum(values) == 79

    def test_degenerate_equal_primes(self):
        values = instantiate_pattern("1,rq", {"q": 5, "r": 5})
        assert values == [1, 25]
        assert duplicate_values(values) == []

    def test_duplicates_reported(self):
        values = instantiate_pattern("pq,qr", {"p": 7, "q": 5, "r": 7})
        assert duplicate_values(values) == [35]

    def test_unassigned_symbol(self):
        with pytest.raises(ValueError, match="no assigned value"):
            instantiate_pattern("rq", {"q": 5})

    def test_monotone_in_each_symbol(self):
        rng = random.Random(5)
        primes = primes_up_to(60)
        pat = USetPattern.parse("1,rq,8pq,4qr,8pr")
        for _ in range(200):
            a = {s: rng.choice(primes) for s in "pqr"}
            s = rng.choice("pqr")
            bigger = dict(a, **{s: a[s] + 2})
            va, vb = instantiate_pattern(pat, a), instantiate_pattern(pat, bigger)
            assert all(y >= x for x, y in zip(va, vb))


class TestMatch:
    def test_characterization_unique(self):
        got = match_pattern("1,rq,8pq,4qr,8pr", {1, 55, 120, 220, 264}, 100)
        assert got == [{"p": 3, "q": 5, "r": 11}]

    def test_psl27_has_no_match(self):
        # rq = 21 forces {q,r} = {3,7}, then 4qr = 84 is not in the set
        got = match_pattern("1,rq,8pq,4qr,8pr", {1, 21, 42, 48, 56}, 100)
        assert got == []

    def test_trivial_targets(self):
        assert match_pattern("1", {1}, 100) == [{}]
        assert match_pattern("1,rq", {1}, 100) == []

    def test_target_values_below_one_have_no_primes(self):
        assert match_pattern("1,p", {0, 5}, 100) == []
        assert match_pattern("1,p", {1, -5}, 100) == []

    def test_target_size_differs_from_term_count(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("factored a target that cannot match")
        monkeypatch.setattr(patterns, "factorize", refuse)
        assert match_pattern("1,rq,8pq,4qr,8pr", {1, 55, 120, 220, 264, 100000000000031}, 10 ** 7) == []
        assert match_pattern("1,rq,8pq,4qr,8pr", {1, 55, 120, 220}, 100) == []

    def test_round_trip_on_matches(self):
        target = {1, 45, 80, 90, 144}
        for assignment in match_pattern("1,r^2q,16q,2r^2q,16r^2", target, 100):
            assert set(instantiate_pattern("1,r^2q,16q,2r^2q,16r^2", assignment)) == target

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            match_pattern("1", {1}, 1)

    def test_several_matches_in_lexicographic_order(self):
        # {p, pq, r} has no symmetry; {3, 5, 15} arises from two assignments
        got = match_pattern("p,pq,r", {3, 5, 15}, 10)
        assert got == [{"p": 3, "q": 5, "r": 5}, {"p": 5, "q": 3, "r": 3}]

    def test_large_bound_evaluates_few_assignments(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return instantiate_pattern(*args)
        monkeypatch.setattr(patterns, "instantiate_pattern", counted)
        got = match_pattern(CHARACTERIZATION_PATTERN, {1, 55, 120, 220, 264}, 100_000)
        assert got == [{"p": 3, "q": 5, "r": 11}]
        assert len(calls) <= 10

    def test_large_bound_allocates_nothing_bound_sized(self):
        # candidate primes come from the target values, not a sieve to the bound
        tracemalloc.start()
        try:
            got = match_pattern(CHARACTERIZATION_PATTERN, {1, 55, 120, 220, 264}, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [{"p": 3, "q": 5, "r": 11}]
        assert peak < 1_000_000


def reference_match(pattern, target, bound):
    """The definition: try every tuple of primes <= bound, in lexicographic
    order, keeping the smallest of each orbit under pattern automorphisms."""
    pat = USetPattern.parse(pattern)
    symbols, goal = pat.symbols, set(target)
    autos = patterns._pattern_automorphisms(pat)
    out = []
    for combo in itertools.product(primes_up_to(bound), repeat=len(symbols)):
        assignment = dict(zip(symbols, combo))
        if combo != min(tuple(assignment[s] for s in image) for image in autos):
            continue
        values = instantiate_pattern(pat, assignment)
        if not duplicate_values(values) and set(values) == goal:
            out.append(assignment)
    return out


PAPER_PATTERNS = (
    [shape for shape, _ in PUBLISHED_USET_SHAPES.values()]
    + list(ELIMINATION_BURNSIDE + ELIMINATION_PARITY)
    + [COLLISION_PATTERN, K3_ELIMINATION_PATTERN, CHARACTERIZATION_PATTERN])


@st.composite
def match_queries(draw):
    """A pattern, a target planted from primes <= 7 or <= 60 (2 included,
    equal primes allowed) and then perhaps perturbed, truncated or given
    a non-positive value, and a bound in 2..60."""
    pattern = draw(st.sampled_from(
        PAPER_PATTERNS + ["pq,qr", "p,q,r", "pqr,2", "1,rq", "1,2", "p,pq,r", "qr,2p"]))
    pat = USetPattern.parse(pattern)
    primes = primes_up_to(draw(st.sampled_from([7, 60])))  # few primes: repeats
    assignment = {s: draw(st.sampled_from(primes)) for s in pat.symbols}
    target = sorted(set(instantiate_pattern(pat, assignment)))
    change = draw(st.sampled_from(["none", "perturb", "drop", "non-positive"]))
    i = draw(st.integers(0, len(target) - 1))
    if change == "perturb":
        target[i] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif change == "drop":
        del target[i]
    elif change == "non-positive":
        target.append(draw(st.integers(-60, 0)))
    return pattern, target, draw(st.integers(2, 60))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(match_queries())
def test_match_agrees_with_exhaustive_search(query):
    pattern, target, bound = query
    got = match_pattern(pattern, target, bound)
    expected = reference_match(pattern, target, bound)
    assert got == expected
    assert [list(a) for a in got] == [list(a) for a in expected]


class TestFeasibility:
    def test_burnside_rejection(self):
        # {1, p^2, 4p^2, 8p^2} at p=3: the count 9 has only prime-power divisors
        verdict = feasibility_check([1, 9, 36, 72])
        assert not verdict.feasible
        assert verdict.codes == ("burnside",)
        assert any("9" in issue.detail for issue in verdict.issues)

    def test_parity_rejection(self):
        # {1, 2p, 8p, 16p} at p=3 sums to 79
        verdict = feasibility_check([1, 6, 24, 48])
        assert not verdict.feasible
        assert verdict.codes == ("parity",)

    def test_membership_rejection(self):
        verdict = feasibility_check([6, 24, 48])
        assert not verdict.feasible
        assert "membership" in verdict.codes

    def test_realized_set_passes(self):
        assert feasibility_check([1, 55, 120, 220, 264]).verdict == "POSSIBLE"

    def test_s3_counts_fail_for_simple_context(self):
        # u-multiset of S3 is {1, 2, 3}; 2 and 3 only have prime-power divisors
        verdict = feasibility_check([1, 2, 3])
        assert not verdict.feasible
        assert "burnside" in verdict.codes

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            feasibility_check([])


class TestSymbolicSizes:
    def test_symbolic_prime_power(self):
        assert is_symbolic_prime_power(parse_term("16"))
        assert is_symbolic_prime_power(parse_term("q^2"))
        assert not is_symbolic_prime_power(parse_term("2q"))
        assert not is_symbolic_prime_power(parse_term("rq"))
        assert not is_symbolic_prime_power(parse_term("1"))
        # a count keeps itself as a size option iff it is not a prime power
        for text, kept in [("16", False), ("q^2", False), ("2q", True), ("rq", True)]:
            term = parse_term(text)
            assert (term in admissible_size_options(term)) == kept, text

    def test_options_for_collision_counts(self):
        as_str = lambda terms: sorted(str(t) for t in terms)
        assert as_str(admissible_size_options(parse_term("rq"))) == ["qr"]
        assert as_str(admissible_size_options(parse_term("16q"))) == \
            ["16q", "2q", "4q", "8q"]
        assert as_str(admissible_size_options(parse_term("4rq"))) == \
            ["2q", "2qr", "2r", "4q", "4qr", "4r", "qr"]
        assert admissible_size_options(parse_term("1")) == [Term.make(1)]


class TestCollisions:
    def test_case_count_and_breakdown(self):
        cases = enumerate_collision_assignments("1,rq,16q,16r,4rq")
        # the repeated size can only involve the last count: 16 ways to
        # collide with rq, 8 with 16q, 8 with 16r
        assert len(cases) == 32
        by_pair = {}
        for c in cases:
            by_pair[c.pair] = by_pair.get(c.pair, 0) + 1
        assert by_pair == {(1, 4): 16, (2, 4): 8, (3, 4): 8}

    def test_published_example_case(self):
        cases = enumerate_collision_assignments("1,rq,16q,16r,4rq")
        target = [c for c in cases
                  if [str(t) for t in c.sizes] == ["1", "qr", "2q", "2r", "2r"]]
        assert len(target) == 1
        case = target[0]
        assert case.reduced == "q = 4"
        assert case.contradiction == "4 is not an odd prime"

    def test_count_equals_count_family(self):
        cases = enumerate_collision_assignments("1,rq,16q,16r,4rq")
        rq_cases = [c for c in cases if c.pair == (1, 4)]
        assert all(c.reduced == "1 = 4" for c in rq_cases)

    def test_every_case_is_refuted(self):
        cases = enumerate_collision_assignments("1,rq,16q,16r,4rq")
        assert all(c.contradiction is not None for c in cases)


# Reference routines: the direct forms of the Burnside screen, the
# automorphism search and the collision enumeration, which the faster
# routines in usets.patterns must agree with exactly.


def divisors(n):
    """The positive divisors of n >= 1, ascending, by trial division up
    to the square root."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(low + [n // d for d in low]))


def reference_admissible_class_sizes(count):
    """Scan every divisor of the count and factor each one."""
    return [d for d in divisors(count) if d > 1 and not is_prime_power(d)]


def reference_feasibility_check(values):
    issues = []
    if 1 not in values:
        issues.append(patterns.FeasibilityIssue(
            "membership", "the identity class contributes a count of 1"))
    for v in sorted(set(values)):
        if v > 1 and not reference_admissible_class_sizes(v):
            issues.append(patterns.FeasibilityIssue(
                "burnside",
                f"count {v} admits no class size > 1 that is not a prime power"))
    total = sum(values)
    if total % 2:
        issues.append(patterns.FeasibilityIssue(
            "parity", f"counts sum to {total}, but the group order must be even"))
    return patterns.FeasibilityVerdict(not issues, tuple(issues))


def symbolic_divisors(term):
    """All divisors of a term, treating symbols as primes not dividing
    the coefficient."""
    out = []
    for c in divisors(term.coeff):
        for combo in itertools.product(*(range(e + 1) for _, e in term.exps)):
            exps = {s: f for (s, _), f in zip(term.exps, combo) if f}
            out.append(Term.make(c, exps))
    return sorted(set(out))


def is_symbolic_prime_power(term):
    """Prime-power test under the standing assumption that symbols denote
    primes distinct from each other and from the coefficient's factors."""
    return len(factorize(term.coeff)) + len(term.exps) == 1


def reference_admissible_size_options(term):
    """Build and check a Term for every divisor, then factor each
    divisor's coefficient again to drop 1 and the prime powers."""
    if term == Term.make(1):
        return [term]
    one = Term.make(1)
    return [d for d in symbolic_divisors(term) if d != one and not is_symbolic_prime_power(d)]


def reference_symbols(pat):
    return tuple(s for s in patterns.SYMBOLS if any(s in t.symbols for t in pat.terms))


def reference_automorphisms(pat):
    """Build each term's image under the symbol map and compare term sets."""
    symbols, terms = pat.symbols, set(pat.terms)
    out = []
    for perm in itertools.permutations(symbols):
        mapping = dict(zip(symbols, perm))
        if {Term.make(t.coeff, {mapping[s]: e for s, e in t.exps}) for t in pat.terms} == terms:
            out.append(mapping)
    return out


def reference_collision_assignments(pattern):
    """Try every size assignment, find its first equal pair of Terms and
    resolve that pair's equation afresh."""
    pat = USetPattern.parse(pattern)
    cases = []
    for combo in itertools.product(*(admissible_size_options(t) for t in pat.terms)):
        pair = next(((i, j) for i in range(len(combo)) for j in range(i + 1, len(combo))
                     if combo[i] == combo[j]), None)
        if pair is None:
            continue
        u_i, u_j = pat.terms[pair[0]], pat.terms[pair[1]]
        reduced, why = resolve_equation(u_i, u_j)
        cases.append(patterns.CollisionCase(tuple(combo), pair, reduced, why))
    return cases


def collision_variants():
    """COLLISION_PATTERN under every renaming of p, q, r, and with its
    terms in every order under one renaming."""
    terms = COLLISION_PATTERN.split(",")
    out = []
    for perm in itertools.permutations("pqr"):
        table = str.maketrans("pqr", "".join(perm))
        out.append(",".join(t.translate(table) for t in terms))
    out += [",".join(order) for order in itertools.permutations(
        [t.translate(str.maketrans("qr", "rp")) for t in terms])]
    return out


ORACLE_PATTERNS = PAPER_PATTERNS + ["pq,qr", "p,q,r", "pqr,2", "1,rq", "1,2", "p,pq,r",
                                    "qr,2p", "p^2q,q^2r,r^2p", "pq,pr,qr,2"]


@pytest.mark.parametrize("pattern", ORACLE_PATTERNS + collision_variants())
def test_pattern_layer_agrees_with_the_reference_routines(pattern):
    pat = USetPattern.parse(pattern)
    assert pat.symbols == reference_symbols(pat)
    assert patterns._pattern_automorphisms(pat) == tuple(
        tuple(m[s] for s in pat.symbols) for m in reference_automorphisms(pat))
    assert enumerate_collision_assignments(pattern) == reference_collision_assignments(pattern)


def patterns_in_this_file():
    """Every string constant in this file that parses as a pattern."""
    with open(__file__) as f:
        tree = ast.parse(f.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out.append(USetPattern.parse(node.value))
            except ValueError:
                pass
    return out


def test_size_options_agree_with_the_reference_routine():
    pats = patterns_in_this_file() + [USetPattern.parse(p)
                                      for p in ORACLE_PATTERNS + collision_variants()]
    terms = {t for pat in pats for t in pat.terms}
    assert len(terms) > 40
    for term in sorted(terms):
        assert admissible_size_options(term) == reference_admissible_size_options(term), term


def test_size_options_factor_the_coefficient_once(monkeypatch):
    calls = []

    def counted(n, bound=None):
        calls.append(n)
        return factorize(n, bound)
    monkeypatch.setattr(patterns, "factorize", counted)
    patterns._size_options.cache_clear()
    for text in ("4rq", "16q", "360p^2qr", "rq"):
        term = parse_term(text)
        expected = reference_admissible_size_options(term)
        calls.clear()
        assert admissible_size_options(term) == expected
        assert calls == [term.coeff]
        assert admissible_size_options(parse_term(text)) == expected
        assert calls == [term.coeff]  # the second call reads the cache


def test_burnside_screen_agrees_with_the_divisor_scan():
    for v in range(1, 20_001):
        assert feasibility_check([v]) == reference_feasibility_check([v]), v


def test_feasibility_factors_each_distinct_count_once(monkeypatch):
    values = [1, 55, 120, 220, 264, 55, 9, 9, 36, 72, 0, -4]
    expected = reference_feasibility_check(values)
    calls = []

    def counted(n, bound=None):
        calls.append(n)
        return factorize(n, bound)
    monkeypatch.setattr(patterns, "factorize", counted)
    patterns._is_prime_power.cache_clear()
    assert feasibility_check(values) == expected
    assert sorted(calls) == sorted({v for v in values if v > 1})
    calls.clear()
    assert feasibility_check(values) == expected
    assert calls == []  # every count is in the cache


def test_collisions_resolve_each_colliding_pair_once(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return resolve_equation(a, b)
    monkeypatch.setattr(patterns, "resolve_equation", counted)
    cases = enumerate_collision_assignments(COLLISION_PATTERN)
    assert len(cases) == 32
    assert len(calls) == len(set(calls)) == len({c.pair for c in cases}) <= 10


# the memo caches: same answers from text and from a parsed pattern, fresh
# lists out, no refusal cached, every cache bounded

BENCHMARK_PATTERNS = (
    "1,rq,2rq,16r,8q", "1,r^2q,8r^3,32q", "1,r^2q,16q,2r^2q,16r^2",
    "1,r^2q,32r^2,2r^3q,64q", "1,rq,16q,16r,4rq", "1,rq,4rq,8rq,8r^2",
    "1,rq,8pq,4qr,8pr", "1,r^2,4r^2,16r", "1,p^2,4p^2,8p^2",
    "1,r^2,4r^2,8pr", "1,2p,8p,16p", "1,2q,8pq,8q,16p", "1,2p,8p,16p,8p^2",
)


@pytest.mark.parametrize("text", BENCHMARK_PATTERNS)
def test_match_from_text_equals_match_from_a_parsed_pattern(text):
    rng = random.Random(text)
    pat = USetPattern.parse(text)
    patterns._parse_pattern.cache_clear()
    for bound in (100, 150, 200):
        primes = [p for p in primes_up_to(bound) if p > 2]
        planted = dict(zip(pat.symbols, rng.sample(primes, len(pat.symbols))))
        hit = instantiate_pattern(pat, planted)
        miss = hit[:-1] + [hit[-1] * 211]  # 211 is a prime above every bound
        for target in (hit, miss):
            expected = match_pattern(USetPattern.parse(text), target, bound)
            assert bool(expected) == (target is hit and not duplicate_values(hit))
            assert match_pattern(text, target, bound) == expected  # cold or warm
            assert match_pattern(text, target, bound) == expected  # warm
    assert patterns._parse_pattern.cache_info().currsize == 1


def test_returned_lists_are_fresh_copies():
    term = parse_term("4rq")
    first = admissible_size_options(term)
    expected = list(first)
    first.append(term)
    first.reverse()
    assert admissible_size_options(term) == expected
    got = match_pattern(CHARACTERIZATION_PATTERN, {1, 55, 120, 220, 264}, 100)
    got[0]["p"] = 7
    got.append({})
    assert match_pattern(CHARACTERIZATION_PATTERN, {1, 55, 120, 220, 264}, 100) == [
        {"p": 3, "q": 5, "r": 11}]


@pytest.mark.parametrize("bad", ["1,x", "1,1", "", "p,,q", "1,p^65", "rq,qr"])
def test_a_malformed_pattern_raises_on_every_call(bad):
    before = patterns._parse_pattern.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):
            match_pattern(bad, {1, 3}, 100)
        with pytest.raises(ValueError):
            instantiate_pattern(bad, {"p": 3, "q": 5})
        with pytest.raises(ValueError):
            enumerate_collision_assignments(bad)
    assert patterns._parse_pattern.cache_info().currsize == before


def test_every_cache_is_bounded_and_hands_out_immutable_values():
    caches = {name: fn for name, fn in vars(patterns).items() if hasattr(fn, "cache_info")}
    assert sorted(caches) == ["_is_prime_power", "_parse_pattern", "_pattern_automorphisms",
                              "_size_options", "parse_term", "resolve_equation"]
    for name, fn in caches.items():
        maxsize = fn.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 4096, name
    pat = patterns._parse_pattern(COLLISION_PATTERN)
    assert isinstance(pat, USetPattern) and isinstance(pat.terms, tuple)
    autos = patterns._pattern_automorphisms(pat)
    assert autos == (("q", "r"), ("r", "q"))
    assert all(isinstance(image, tuple) for image in autos)
    assert all(isinstance(patterns._size_options(t), tuple) for t in pat.terms)


class TestResolveEquation:
    def test_distinct_symbols_contradict(self):
        eq, why = resolve_equation(parse_term("2q"), parse_term("2r"))
        assert eq == "q = r"
        assert "distinct primes" in why

    def test_solvable_square_is_not_refuted(self):
        eq, why = resolve_equation(parse_term("q^2"), parse_term("9"))
        assert eq == "q^2 = 9"
        assert why is None  # q = 3 works

    def test_unsolvable_square(self):
        _, why = resolve_equation(parse_term("q^2"), parse_term("4"))
        assert why is not None

    def test_solvable_product_shape(self):
        _, why = resolve_equation(parse_term("qr"), parse_term("15"))
        assert why is None  # {q,r} = {3,5}

    def test_even_value_refutes_product_shape(self):
        _, why = resolve_equation(parse_term("qr"), parse_term("10"))
        assert why is not None


class TestIntegerUtilities:
    def test_is_prime_power(self):
        assert is_prime_power(16)
        assert is_prime_power(2)
        assert is_prime_power(343)
        assert not is_prime_power(55)
        assert not is_prime_power(1)  # convention: identity class size
        with pytest.raises(ValueError):
            is_prime_power(0)

    def test_primes_up_to_sieves_what_factorize_calls_prime(self):
        for bound in range(-2, 400):
            assert primes_up_to(bound) == [n for n in range(2, bound + 1)
                                           if factorize(n) == {n: 1}]

    def test_factorize(self):
        assert factorize(660) == {2: 2, 3: 1, 5: 1, 11: 1}
        assert len(factorize(168)) == 3
        assert factorize(2) == {2: 1}
        assert factorize(1) == {}
        for bad in (0, -6):
            with pytest.raises(ValueError):
                factorize(bad)
        assert factorize(660, 3) == {2: 2, 3: 1, 55: 1}  # 55 is a composite cofactor
        assert factorize(660, 5) == {2: 2, 3: 1, 5: 1, 11: 1}
        assert factorize(2 * 100000000000031, 100) == {2: 1, 100000000000031: 1}

    def test_factorize_past_the_trial_division_only_range(self):
        # cofactors above 2**16: prime ones end the search, composite ones
        # (including strong pseudoprimes to the first 11 bases) do not
        assert factorize(8 * 100000000000031) == {2: 3, 100000000000031: 1}
        assert factorize(65537 * 65539) == {65537: 1, 65539: 1}
        assert factorize(65537 ** 3 * 1000000007) == {65537: 3, 1000000007: 1}
        assert factorize(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
        assert factorize(3825123056546413051, 200000) == {149491: 1, 25587647795161: 1}

    def test_factorize_splits_composite_cofactors(self):
        assert factorize(10000019 * 10000079) == {10000019: 1, 10000079: 1}
        assert factorize(999999937 * 1000000007, 10 ** 9) == {999999937: 1, 1000000007: 1}
        # primes above the bound stay together as one cofactor
        assert factorize(1000000007 * 1000000009, 10 ** 9) == {1000000007 * 1000000009: 1}
        assert factorize(1000003 ** 2 * 999983, 10 ** 6) == {999983: 1, 1000003 ** 2: 1}
        assert factorize(1000003 ** 2 * 999983) == {999983: 1, 1000003: 2}
        # a budget too small for rho leaves the cofactor to trial division
        big = (2 ** 89 - 1) * (2 ** 61 - 1)
        assert factorize(big, 10 ** 5) == {big: 1}

    def test_factorize_refuses_a_probable_prime_past_the_exact_test(self):
        # the least prime above 4·10^24: the prime test cannot prove it, and
        # trial division past the bound 2**16 would run to min(bound, 2·10^12)
        p = 4000000000000000000000027
        assert p > patterns._MR_LIMIT
        assert factorize(p, 2 ** 16) == {p: 1}
        start = time.perf_counter()
        for bound in (2 ** 20, None):
            with pytest.raises(ValueError, match=f"cannot factor {p}: .* {patterns._MR_LIMIT}"):
                factorize(p, bound)
        with pytest.raises(ValueError, match=f"cannot factor {p}"):
            factorize(6 * p)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_factorize_takes_exact_roots_of_prime_powers(self, k):
        # rho would need about 2**30 steps to split (2**61 - 1)**k
        p = 2 ** 61 - 1
        start = time.perf_counter()
        assert factorize(p ** k) == {p: k}
        assert time.perf_counter() - start < 1.0
        assert factorize(p ** k * 65537 ** 2 * 6, 2 ** 20) == {2: 1, 3: 1, 65537: 2, p ** k: 1}

    def test_exact_root(self):
        assert patterns._exact_root(1099511627791 ** 2, 65537) == (1099511627791, 2)
        assert patterns._exact_root(65537 ** 6, 65537) == (65537 ** 3, 2)
        assert patterns._exact_root(65537 ** 5, 65537) == (65537, 5)
        assert patterns._exact_root(65537 * 65539, 65537) == (65537 * 65539, 1)
        # roots below the least factor are not tried
        assert patterns._exact_root(65521 ** 3, 65537) == (65521 ** 3, 1)

    def test_rho_finds_a_proper_divisor_or_gives_up(self):
        n = 10000019 * 10000079
        assert patterns._rho(n, 10 ** 6) in (10000019, 10000079)
        assert patterns._rho(n, 0) is None

    def test_miller_rabin_needs_all_thirteen_bases(self):
        # a strong pseudoprime to the bases 2..37, and the least one to all
        # thirteen, which is why the test is trusted only below it
        assert not patterns._miller_rabin(318665857834031151167461)
        assert patterns._miller_rabin(patterns._MR_LIMIT)
        assert patterns._MR_LIMIT == 1287836182261 * 2575672364521

    def test_factorize_reconstructs(self):
        for n in (2, 12, 660, 5616, 25920, 97):
            points = factorize(n)
            prod = 1
            for p, e in points.items():
                prod *= p ** e
            assert prod == n


PRIMES_TO_1000 = [n for n in range(2, 1001) if all(n % d for d in range(2, n))]  # brute force


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 5), st.integers(2, 1000))
def test_bounded_factorize_finds_exactly_the_small_prime_divisors(v, bound):
    factors = factorize(v, bound)
    assert sorted(f for f in factors if f <= bound) == \
        [p for p in PRIMES_TO_1000 if p <= bound and v % p == 0]
    prod = 1
    for p, e in factors.items():
        prod *= p ** e
    assert prod == v


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 1 << 18), st.integers(2, 1 << 18))
def test_factorize_of_a_product_merges_the_factors(a, b):
    # a and b factor by trial division below 2**9; a * b needs the range past 2**16
    merged = dict(factorize(a))
    for p, e in factorize(b).items():
        merged[p] = merged.get(p, 0) + e
    assert factorize(a * b) == merged


LARGE_PRIMES = [65537, 65539, 999983, 1000003, 1000033, 10000019, 10000079,
                999999937, 1000000007, 2 ** 31 - 1]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 1000), st.lists(st.sampled_from(LARGE_PRIMES), min_size=1, max_size=4),
       st.sampled_from([None, 1000, 65537, 10 ** 6, 10 ** 9]))
def test_factorize_with_large_prime_factors(small, large, bound):
    # keys: every prime <= bound ascending, then the product of the rest
    n = small * math.prod(large)
    primes = Counter(large)
    for p in PRIMES_TO_1000:
        while small % p == 0:
            primes[p] += 1
            small //= p
    limit = n if bound is None else bound
    expected = {p: primes[p] for p in sorted(primes) if p <= limit}
    rest = math.prod(p ** e for p, e in primes.items() if p > limit)
    if rest > 1:
        expected[rest] = 1
    assert list(factorize(n, bound).items()) == list(expected.items())


class TestSolvePSL2Order:
    def test_published_solution(self):
        assert solve_psl2_order(660) == 11

    def test_a5_order(self):
        assert solve_psl2_order(60) == 5

    def test_near_miss(self):
        assert solve_psl2_order(661) is None

    def test_round_trip_over_odd_primes(self):
        from usets.construct import classical_order
        for l in primes_up_to(97):
            if l > 2:
                assert solve_psl2_order(classical_order("PSL", 2, l)) == l

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            solve_psl2_order(0)

    def test_huge_order_without_solution(self):
        assert solve_psl2_order(10 ** 400) is None

    def test_huge_round_trip(self):
        l = 10 ** 130
        assert solve_psl2_order(l * (l * l - 1) // 2) == l


def test_integer_root():
    rng = random.Random(6)
    for k in (1, 2, 3, 4, 7):
        for n in list(range(100)) + [rng.getrandbits(rng.randrange(1, 800)) for _ in range(100)]:
            r = patterns._integer_root(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_integer_cube_root():
    # solve_psl2_order's cube root of 2 * order is exact at 400 digits
    l = 10 ** 133
    assert solve_psl2_order(l * (l * l - 1) // 2) == l
