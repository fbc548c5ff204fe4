import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usets import patterns
from usets.patterns import (
    Term,
    USetPattern,
    admissible_class_sizes,
    admissible_size_options,
    classify_k,
    divisors,
    duplicate_values,
    enumerate_collision_assignments,
    factorize,
    feasibility_check,
    instantiate_pattern,
    integer_cube_root,
    is_prime,
    is_prime_power,
    is_symbolic_prime_power,
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

    def test_target_size_differs_from_term_count(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("factored a target that cannot match")
        monkeypatch.setattr(patterns, "_prime_divisors", refuse)
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
        if combo != min(tuple(assignment[m[s]] for s in symbols) for m in autos):
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


def test_admissible_class_sizes():
    assert admissible_class_sizes(9) == []
    assert admissible_class_sizes(6) == [6]
    assert admissible_class_sizes(24) == [6, 12, 24]
    assert admissible_class_sizes(55) == [55]


class TestSymbolicSizes:
    def test_symbolic_prime_power(self):
        assert is_symbolic_prime_power(parse_term("16"))
        assert is_symbolic_prime_power(parse_term("q^2"))
        assert not is_symbolic_prime_power(parse_term("2q"))
        assert not is_symbolic_prime_power(parse_term("rq"))
        assert not is_symbolic_prime_power(parse_term("1"))

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
                  if [str(t) for t in c.assignment.sizes] == ["1", "qr", "2q", "2r", "2r"]]
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

    def test_classify_k(self):
        assert classify_k(660) == (4, {2: 2, 3: 1, 5: 1, 11: 1})
        assert classify_k(168)[0] == 3
        assert classify_k(2) == (1, {2: 1})
        with pytest.raises(ValueError):
            classify_k(1)

    def test_factorize_reconstructs(self):
        for n in (2, 12, 660, 5616, 25920, 97):
            points = factorize(n)
            prod = 1
            for p, e in points.items():
                prod *= p ** e
            assert prod == n

    def test_primes_up_to_against_trial_division(self):
        assert primes_up_to(100) == [n for n in range(101) if is_prime(n)]

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]


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


def test_integer_cube_root():
    rng = random.Random(5)
    for n in list(range(200)) + [rng.getrandbits(rng.randrange(1, 1500)) for _ in range(300)]:
        c = integer_cube_root(n)
        assert c ** 3 <= n < (c + 1) ** 3
    assert integer_cube_root(10 ** 399) == 10 ** 133
