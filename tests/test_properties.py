"""Property tests: round trips of the text forms, and the CLI's exit codes
over fuzzed arguments built from the real subcommands."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from usets import cli
from usets.catalog import (default_catalog, load_generator_file, parse_cycle_notation,
                           write_generator_file)
from usets.patterns import MAX_EXPONENT, SYMBOLS, Term, USetPattern
from usets.perm import PermGroup, Permutation


@st.composite
def permutations(draw):
    n = draw(st.integers(1, 12))
    return n, Permutation(draw(st.permutations(range(n))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(permutations())
def test_cycle_notation_round_trips(case):
    n, p = case
    assert parse_cycle_notation(p.cycle_string(), n) == p


@st.composite
def generating_sets(draw):
    n = draw(st.integers(1, 12))
    return draw(st.lists(st.permutations(range(n)).map(Permutation), min_size=1, max_size=3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(generating_sets())
def test_generator_file_round_trips(gens):
    group = PermGroup(gens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.gen"
        write_generator_file(path, group, comments=["random generators"])
        entry = load_generator_file(path)
    loaded = entry.group()
    assert [g.images for g in loaded.generators] == [g.images for g in gens]
    assert entry.expected_order == loaded.order() == group.order()


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
    st.tuples(st.just("verify"), st.sampled_from(("paper", "paper", "other")), st.just("--only"),
              st.lists(st.sampled_from(CHECK_IDS), min_size=1, max_size=3).map(",".join)),
    st.lists(words, max_size=3).map(tuple),
)
argvs = st.tuples(
    st.sampled_from(((), (), ("--format", "json"), ("--format", "xml"))),
    st.sampled_from(CAPS).map(lambda c: ("--cap", c)),
    st.sampled_from(((), ("-v",))),
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
