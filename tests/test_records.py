"""The package's record types: how they are built, shown, compared and
refused, and that importing the package generates none of their methods
at run time (no ``dataclasses``, no ``inspect``)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import usets
from usets.catalog import CatalogEntry
from usets.invariants import ConjClass, InvariantProfile
from usets.patterns import (CollisionCase, FeasibilityIssue, FeasibilityVerdict, Term,
                            USetPattern, parse_term)
from usets.perm import Permutation
from usets.verify import CheckResult, CheckRow, VerificationReport

Q_R2 = (("q", 1), ("r", 2))


def _builder():
    return None


#: One instance of each record type, with the repr the earlier
#: ``dataclasses`` classes gave it, character for character.
RECORDS = [
    (Term(4, Q_R2), "Term(coeff=4, exps=(('q', 1), ('r', 2)))"),
    (USetPattern((Term(1, ()), Term(8, (("p", 1),)))),
     "USetPattern(terms=(Term(coeff=1, exps=()), Term(coeff=8, exps=(('p', 1),))))"),
    (FeasibilityIssue("parity", "odd"), "FeasibilityIssue(code='parity', detail='odd')"),
    (FeasibilityVerdict(False, (FeasibilityIssue("parity", "odd"),)),
     "FeasibilityVerdict(feasible=False, issues=(FeasibilityIssue(code='parity', "
     "detail='odd'),))"),
    (CollisionCase((Term(2, (("q", 1),)),), (0, 1), "q = r", None),
     "CollisionCase(sizes=(Term(coeff=2, exps=(('q', 1),)),), pair=(0, 1), "
     "reduced='q = r', contradiction=None)"),
    (ConjClass(Permutation([1, 0, 2]), 3, 2),
     "ConjClass(representative=Permutation([1, 0, 2]), size=3, element_order=2)"),
    (InvariantProfile(2, (1, 1), (1,), 0, 2, {1: 2}, frozenset({2}), frozenset({2})),
     "InvariantProfile(group_order=2, class_sizes=(1, 1), V=(1,), rank=0, class_count=2, "
     "u_map={1: 2}, U=frozenset({2}), pi=frozenset({2}))"),
    (CheckResult("uset:A5", "claim", "pass", [1], [1], "derived", "n"),
     "CheckResult(check_id='uset:A5', claim='claim', status='pass', computed=[1], "
     "expected=[1], expected_source='derived', note='n')"),
    (CheckRow("k3-screen", "claim", "published", None),
     "CheckRow(check_id='k3-screen', claim='claim', source='published', run=None, groups=())"),
    (VerificationReport("0.1.0", "t", [CheckResult("a", "b", "fail")]),
     "VerificationReport(version='0.1.0', timestamp='t', results=[CheckResult("
     "check_id='a', claim='b', status='fail', computed=None, expected=None, "
     "expected_source='', note='')])"),
    (CatalogEntry("X", "constructor", 60, "p", None),
     "CatalogEntry(name='X', source='constructor', expected_order=60, provenance='p', "
     "builder=None)"),
]

#: The immutable records, each with one of its fields.
FROZEN = [(record, field) for (record, _), field in zip(RECORDS, (
    "coeff", "terms", "code", "feasible", "pair", "size", "rank", "status", "run"))]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(Path(usets.__file__).resolve().parents[1]))
    code = ("import sys, usets, usets.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_is_the_one_the_dataclass_gave(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, field", FROZEN, ids=lambda r: type(r).__name__)
def test_a_frozen_record_refuses_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_equal_records_are_equal_and_hash_equal():
    pairs = [
        (Term(4, Q_R2), parse_term("4r^2q")),
        (USetPattern.parse("1,rq"), USetPattern.parse("1, qr")),
        (FeasibilityIssue("parity", "odd"), FeasibilityIssue("parity", "odd")),
        (CollisionCase((Term(1, ()),), (0, 1), "1 = 4", "c"),
         CollisionCase((Term(1, ()),), (0, 1), "1 = 4", "c")),
        (ConjClass(Permutation([1, 0]), 1, 2), ConjClass(Permutation([1, 0]), 1, 2)),
        (CheckResult("a", "b", "pass", 1, 1), CheckResult("a", "b", "pass", 1, 1)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b
    assert Term(4, Q_R2) != Term(2, Q_R2)
    assert CheckResult("a", "b", "pass") != CheckResult("a", "b", "fail")


def test_sorted_terms_keep_their_order():
    # by coefficient, then by the exponent list, as the dataclass ordered them
    terms = [parse_term(t) for t in
             ("16q", "4rq", "1", "rq", "2q", "16r", "4q", "2r", "8p^2", "q^2", "q", "2rq")]
    assert [str(t) for t in sorted(terms)] == [
        "1", "q", "qr", "q^2", "2q", "2qr", "2r", "4q", "4qr", "8p^2", "16q", "16r"]


@pytest.mark.parametrize("coeff, exps, message", [
    (0, (), "coefficient must be positive"),
    (1, (("q", 1), ("p", 1)), "exponent list must be sorted and without repeats"),
    (1, (("p", 1), ("p", 2)), "exponent list must be sorted and without repeats"),
    (1, (("s", 1),), "bad exponent list (('s', 1),)"),
    (1, (("p", 0),), "bad exponent list (('p', 0),)"),
])
def test_term_refuses_a_bad_coefficient_or_exponent_list(coeff, exps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Term(coeff, exps)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Term(coeff=coeff, exps=exps)


@pytest.mark.parametrize("terms, message", [
    ((), "pattern needs at least one term"),
    ((Term(1, ()), Term(1, ())), "pattern terms must be pairwise distinct"),
])
def test_pattern_refuses_no_terms_or_repeated_terms(terms, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        USetPattern(terms)


def test_the_mutable_records_build_by_keyword():
    result = CheckResult(check_id="a", claim="b", status="pass", note="n")
    assert (result.computed, result.expected, result.expected_source, result.note) == (
        None, None, "", "n")
    entry = CatalogEntry(name="X", source="generator_file", expected_order=6,
                         provenance="declared", builder=_builder)
    assert (entry.name, entry.source, entry.expected_order, entry.provenance,
            entry.builder) == ("X", "generator_file", 6, "declared", _builder)
    report = VerificationReport(version="v", timestamp="t", results=[result])
    assert report.results == [result] and report.result("a") is result
    assert VerificationReport(version="v", timestamp="t").results == []


def test_a_check_result_subclass_passes_its_arguments_on():
    # as a tracer marks the end of each check
    seen = []

    class Traced(CheckResult):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.check_id)

    r = Traced("a", "claim", "fail", [1], expected=[2], note="n")
    assert seen == ["a"]
    assert (r.check_id, r.claim, r.status, r.computed, r.expected, r.expected_source,
            r.note) == ("a", "claim", "fail", [1], [2], "", "n")
    report = VerificationReport("v", "t", [r])
    assert report.as_dict()["results"] == [{
        "check_id": "a", "claim": "claim", "status": "fail", "computed": [1],
        "expected": [2], "expected_source": "", "note": "n"}]
