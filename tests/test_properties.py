"""Property tests: round trips of the text forms, the stabilizer chain
against a full-closure Schreier-Sims, and the CLI's exit codes over
fuzzed arguments built from the real subcommands."""

import contextlib
import io
import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usets import cli
from usets.catalog import default_catalog
from usets.construct import alternating_group, psl_group
from usets.patterns import MAX_EXPONENT, SYMBOLS, Term, USetPattern
from usets.perm import Permutation, _raw, _schreier_sims

from helpers import CHAIN_GROUPS


@st.composite
def permutations(draw):
    n = draw(st.integers(0, 12))
    return n, Permutation(draw(st.permutations(range(n))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(permutations())
def test_cycle_notation_round_trips(case):
    # the order is the lcm of the parsed cycle lengths: 1 for the identity
    # and for degree 0
    n, p = case
    text = p.cycle_string()
    assert text.startswith("(") and text.endswith(")")
    cycles = [[int(pt) - 1 for pt in body.split(",")]
              for body in text[1:-1].split(")(") if body]
    assert Permutation.from_cycles(n, *cycles) == p
    assert p.order() == math.lcm(*map(len, cycles))


def full_closure_schreier_sims(raw_gens, degree):
    """Schreier-Sims that re-sifts every Schreier generator of a level each
    time the level is closed; (base, level generators, transversals,
    inverses) as :class:`usets.perm.BSGS` stores them."""
    ident = tuple(range(degree))
    base, level_gens, transversals, inverses = [], [], [], []

    def compose(a, b):
        return tuple(b[x] for x in a)

    def invert(a):
        inv = [0] * len(a)
        for i, j in enumerate(a):
            inv[j] = i
        return tuple(inv)

    def sift(g, level):
        for pt, inverse in zip(base[level:], inverses[level:]):
            uinv = inverse.get(g[pt])
            if uinv is None:
                break
            g = compose(g, uinv)
        return g

    def gens_at(i):
        return [g for lvl in level_gens[i:] for g in lvl]

    def new_level(pt):
        base.append(pt)
        level_gens.append([])
        transversals.append((ident,))
        inverses.append({pt: ident})

    def rebuild_transversal(i):
        trans = [None] * degree
        trans[base[i]] = ident
        frontier = [base[i]]
        gens = gens_at(i)
        while frontier:
            new_pts = []
            for gamma in frontier:
                for s in gens:
                    delta = s[gamma]
                    if trans[delta] is None:
                        trans[delta] = compose(trans[gamma], s)
                        new_pts.append(delta)
            frontier = sorted(new_pts)
        transversals[i] = tuple(u for u in trans if u is not None)
        inverses[i] = {gamma: invert(u) for gamma, u in enumerate(trans) if u is not None}

    def add_nonmember(i, g):
        if i == len(base):
            new_level(min(x for x in range(degree) if g[x] != x))
        if g[base[i]] == base[i]:
            add_nonmember(i + 1, g)
        else:
            level_gens[i].append(g)
        rebuild_transversal(i)
        inverse = inverses[i]
        gens = gens_at(i)
        for gamma, u in zip(inverse, transversals[i]):
            for s in gens:
                schreier = compose(compose(u, s), inverse[s[gamma]])
                if schreier == ident:
                    continue
                residue = sift(schreier, i + 1)
                if residue != ident:
                    add_nonmember(i + 1, residue)

    moved = [x for g in raw_gens for x in range(degree) if g[x] != x]
    if moved:
        new_level(min(moved))
    for g in raw_gens:
        residue = sift(g, 0)
        if residue != ident:
            add_nonmember(0, residue)
    return base, level_gens, transversals, inverses


@st.composite
def raw_generating_sets(draw):
    """Degree 1-10; the identity and repeated generators are allowed."""
    n = draw(st.integers(1, 10))
    perm = st.permutations(range(n)).map(tuple)
    gens = draw(st.lists(st.one_of(perm, perm, st.just(tuple(range(n)))),
                         min_size=1, max_size=4))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return n, draw(st.permutations(gens))


def assert_chain_equals_full_closure(bsgs, gens, degree):
    base, level_gens, transversals, inverses = full_closure_schreier_sims(gens, degree)
    # the chain's elements compared as tuples, whatever their internal form;
    # an inverse on the degree's points, as a bytes one is a 256-byte table
    assert bsgs.base == tuple(base)
    assert [list(map(tuple, lvl)) for lvl in bsgs._level_gens] == level_gens
    assert [tuple(map(tuple, lvl)) for lvl in bsgs.transversals] == transversals
    assert [[(k, tuple(v[:degree])) for k, v in d.items()] for d in bsgs.inverses] == [
        list(d.items()) for d in inverses]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw_generating_sets())
def test_chain_equals_full_closure_schreier_sims(case):
    # the build stops at |A_n| or |S_n|, by the generators' parity
    n, gens = case
    assert_chain_equals_full_closure(_schreier_sims([_raw(g) for g in gens], n), gens, n)


#: CHAIN_GROUPS and the construct-bsgs benchmark's groups, whose builds
#: stop at |PSL(n,q)| or, for Alt(n), at |A_n| by the generators' parity.
NAMED_CHAINS = {**CHAIN_GROUPS, **{f"PSL({n},{q})": partial(psl_group, n, q) for n, q in (
    (2, 19), (3, 4), (2, 25), (3, 5), (5, 2), (4, 3), (2, 47), (3, 7), (6, 2),
    (3, 8), (2, 81), (4, 4), (3, 9), (2, 113))}}
NAMED_CHAINS.update((f"Alt({n})", partial(alternating_group, n)) for n in (12, 16, 20, 24))
#: Degrees 40-307, in the slow tier.
LARGE_CHAINS = {**{f"PSL({n},{q})": partial(psl_group, n, q) for n, q in (
    (3, 17), (3, 16), (5, 3), (2, 256))}, "Alt(40)": partial(alternating_group, 40)}


@pytest.mark.parametrize("name", [*sorted(NAMED_CHAINS),
                                  *(pytest.param(name, marks=pytest.mark.slow)
                                    for name in LARGE_CHAINS)])
def test_named_chains_equal_full_closure_schreier_sims(name):
    # the stop is exact: the chain is the one that closing every level builds
    group = {**NAMED_CHAINS, **LARGE_CHAINS}[name]()
    assert_chain_equals_full_closure(group.bsgs, [g.images for g in group.generators],
                                     group.degree)


terms = st.builds(
    Term.make,
    st.integers(1, 1000),
    st.dictionaries(st.sampled_from(SYMBOLS), st.integers(0, MAX_EXPONENT)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(terms, min_size=1, max_size=6, unique=True))
def test_pattern_text_round_trips(term_list):
    pattern = USetPattern(tuple(term_list))
    assert USetPattern.parse(str(pattern)) == pattern


# Pieces of arguments: mostly valid, some malformed.  The caps stay at
# 10 000 or below, so `group classes` enumerates at most M11.
CAPS = ("0", "60", "660", "5000", "10000", "-1")
NAMES = tuple(default_catalog().names()) + ("L2(11)", "PSU(3,3)", "M24", "", "-v")
PATTERNS = ("1,rq,8pq,4qr,8pr", "1,r^2,4r^2,16r", "1,rq", "p^2q", "p^65", "2x")
INT_LISTS = ("1,55,120,220,264", "1,15,20,24", "1,foo", "", "-3,0")
ASSIGNMENTS = ("p=3,q=5,r=11", "p=3,q=7,r=3", "q=3", "z=4")
CHECK_IDS = ("psl2-order-solve", "uset:A5", "order:A10", "size5:J2",
             "centralizer-count:PSL(2,11)", "k3-screen", "bogus")

words = st.one_of(st.sampled_from(NAMES + PATTERNS + INT_LISTS),
                  st.text("0123456789,-pqr^", max_size=8))
commands = st.one_of(
    st.tuples(st.just("group"), st.sampled_from(("info", "uset", "classes", "bad")),
              st.sampled_from(NAMES)),
    st.tuples(st.just("catalog"), st.just("list"),
              st.sampled_from(((), ("--k", "4"), ("--k", "x"), ("--max-order", "1000"))))
    .map(lambda t: t[:2] + t[2]),
    st.tuples(st.just("search"), st.just("--uset"), st.sampled_from(INT_LISTS)),
    st.tuples(st.just("pattern"), st.just("instantiate"), st.just("--pattern"),
              st.sampled_from(PATTERNS), st.just("--assign"), st.sampled_from(ASSIGNMENTS)),
    st.tuples(st.just("pattern"), st.just("match"), st.just("--pattern"),
              st.sampled_from(PATTERNS), st.just("--target"), st.sampled_from(INT_LISTS),
              st.just("--bound"), st.sampled_from(("1", "100", "1000000000", "x"))),
    st.tuples(st.just("solve-psl2"), st.sampled_from(("660", "0", "-1", "x", "10" * 20))),
    st.tuples(st.sampled_from((("verify", "paper"), ("verify", "paper"), ("verify", "other"))),
              st.sampled_from(((), ("-v",))),
              st.lists(st.sampled_from(CHECK_IDS), min_size=1, max_size=3).map(tuple))
    .map(lambda t: t[0] + t[1] + ("--only",) + t[2]),
    st.lists(words, max_size=3).map(tuple),
)
argvs = st.tuples(
    st.sampled_from(((), (), ("--format", "json"), ("--format", "xml"))),
    st.sampled_from(CAPS).map(lambda c: ("--cap", c)),
    commands,
).map(lambda parts: [tok for part in parts for tok in part])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argvs)
def test_cli_exit_code_is_documented(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), argv
