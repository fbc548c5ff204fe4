"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

All comparisons are exact integer checks, tolerance zero.  The scope of
the per-group criteria is every catalog group within the default harness
cap; A10 is cap-gated and must surface as not_checked, never as a pass.
"""

import itertools

import pytest

from usets.patterns import (
    USetPattern,
    enumerate_collision_assignments,
    feasibility_check,
    instantiate_pattern,
    match_pattern,
    primes_up_to,
    solve_psl2_order,
)
from usets.perm import DEFAULT_CAP
from usets.verify import GOLDEN_USETS

ODD_PRIMES_50 = [p for p in primes_up_to(50) if p > 2]


def record(criterion, ok, detail=""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail and not ok else ""))
    assert ok, f"{criterion}: {detail}"


def checkable_profiles(catalog):
    out = {}
    for entry in catalog.entries():
        if entry.expected_order <= DEFAULT_CAP:
            out[entry.name] = entry.profile()
    return out


def test_criterion_01_golden_uset_table(catalog):
    mismatches = {}
    for name, expected in GOLDEN_USETS.items():
        got = catalog.entry(name).profile().U
        if got != expected:
            mismatches[name] = sorted(got)
    shape_ok = match_pattern("1,r^2q,16q,2r^2q,16r^2",
                             catalog.entry("PSL(2,9)").profile().U,
                             bound=100) == [{"q": 5, "r": 3}]
    record("criterion-01 golden-uset-table",
           not mismatches and shape_ok, f"mismatches={mismatches}")


def test_criterion_02_order_identity(catalog):
    bad = [name for name, prof in checkable_profiles(catalog).items()
           if sum(prof.u_multiset()) != prof.group_order]
    record("criterion-02 order-identity", bad == [], f"violations={bad}")


def test_criterion_03_divisibility(catalog):
    bad = [(name, n)
           for name, prof in checkable_profiles(catalog).items()
           for n in prof.V if prof.u_map[n] % n]
    record("criterion-03 size-divides-count", bad == [], f"violations={bad}")


def test_criterion_04_burnside(catalog):
    from usets.patterns import is_prime_power
    bad = [(name, n)
           for name, prof in checkable_profiles(catalog).items()
           for n in prof.V if n > 1 and is_prime_power(n)]
    record("criterion-04 no-prime-power-class", bad == [], f"violations={bad}")


def test_criterion_05_conjugate_type_rank(catalog):
    ranks = {l: catalog.entry(f"PSL(2,{l})").profile().rank
             for l in (7, 9, 11, 13, 17)}
    rank8 = catalog.entry("PSL(2,8)").profile().rank
    ok = all(r == 4 for r in ranks.values()) and rank8 != 4
    record("criterion-05 rank-four-family", ok, f"ranks={ranks}, PSL(2,8)={rank8}")


def test_criterion_06_k3_screening(catalog):
    expected = {"A5", "A6", "PSL(2,7)", "PSL(2,8)", "PSL(2,17)", "PSL(3,3)",
                "U3(3)", "U4(2)"} | {f"PSL(2,{q})" for q in (4, 5, 9)}
    got = {e.name for e in catalog.entries() if e.expected_order <= DEFAULT_CAP
           if len(e.profile().pi) == 3}
    above_cap_k3 = {e.name for e in catalog.entries(k=3)
                    if e.expected_order > DEFAULT_CAP}
    record("criterion-06 k3-screening",
           got == expected and not above_cap_k3, f"got={sorted(got)}")


def test_criterion_07_collision_enumeration(report):
    cases = enumerate_collision_assignments("1,rq,16q,16r,4rq")
    unrefuted = [c for c in cases if c.contradiction is None]
    note = report.result("collision-screen").note
    ok = len(cases) == 32 and not unrefuted and "31" in note
    record("criterion-07 collision-enumeration", ok,
           f"cases={len(cases)}, unrefuted={len(unrefuted)}")


@pytest.mark.parametrize("shape,code", [
    ("1,r^2,4r^2,16r", "burnside"),
    ("1,p^2,4p^2,8p^2", "burnside"),
    ("1,r^2,4r^2,8pr", "burnside"),
    ("1,2p,8p,16p", "parity"),
    ("1,2q,8pq,8q,16p", "parity"),
    ("1,2p,8p,16p,8p^2", "parity"),
])
def test_criterion_08_eliminations(shape, code):
    pat = USetPattern.parse(shape)
    outcomes = set()
    for combo in itertools.product(ODD_PRIMES_50, repeat=len(pat.symbols)):
        verdict = feasibility_check(
            instantiate_pattern(pat, dict(zip(pat.symbols, combo))))
        outcomes.add((verdict.verdict, verdict.codes))
    ok = outcomes == {("INFEASIBLE", (code,))}
    record(f"criterion-08 eliminate {{{shape}}}", ok, f"outcomes={outcomes}")


def test_criterion_09_k3_uset_elimination(catalog):
    eight = ("A5", "A6", "PSL(2,7)", "PSL(2,8)", "PSL(2,17)", "PSL(3,3)",
             "U3(3)", "U4(2)")
    matched = [name for name in eight
               if match_pattern("1,rq,4rq,8rq,8r^2",
                                catalog.entry(name).profile().U, bound=100)]
    record("criterion-09 five-term-shape-eliminated", matched == [],
           f"matched={matched}")


def test_criterion_10_size_five_screening(catalog, report):
    sizes = {name: len(catalog.entry(name).profile().U)
             for name in ("PSL(2,11)", "PSL(2,13)", "A9", "M11", "PSL(3,4)")}
    holds = all(sizes[name] == 5 for name in ("PSL(2,11)", "PSL(2,13)"))
    failing = [name for name in ("A9", "M11", "PSL(3,4)") if sizes[name] != 5]
    gated = report.result("size5:A10").status == "not_checked"
    ok = holds and len(failing) >= 3 and gated
    record("criterion-10 size-five-screening", ok, f"sizes={sizes}, gated={gated}")


def test_criterion_11_characterization(catalog):
    target = frozenset({1, 55, 120, 220, 264})
    solved = solve_psl2_order(660)
    with_target = [e.name for e in catalog.entries()
                   if e.expected_order <= DEFAULT_CAP
                   and e.profile().U == target]
    assignment = match_pattern("1,rq,8pq,4qr,8pr", target, bound=100)
    ok = (solved == 11
          and with_target == ["PSL(2,11)"]
          and assignment == [{"p": 3, "q": 5, "r": 11}])
    record("criterion-11 characterization", ok,
           f"l={solved}, groups={with_target}, assignment={assignment}")


def test_criterion_12_cross_validation(catalog):
    def comparable(name):
        return catalog.entry(name).profile().as_dict()

    a5_family = [comparable(n) for n in ("A5", "PSL(2,4)", "PSL(2,5)")]
    a6_family = [comparable(n) for n in ("A6", "PSL(2,9)")]
    ok = (a5_family[0] == a5_family[1] == a5_family[2]
          and a6_family[0] == a6_family[1])
    record("criterion-12 exceptional-isomorphisms", ok)


def test_gated_groups_report_not_checked_not_pass(report):
    # the plain order check uses only the BSGS and stays cheap for A10;
    # everything that would enumerate elements must be gated explicitly
    statuses = {r.check_id: r.status for r in report.results
                if r.check_id.endswith(":A10") and r.check_id != "order:A10"}
    ok = statuses and all(s == "not_checked" for s in statuses.values())
    record("criterion-10a cap-gating-is-explicit", ok, f"statuses={statuses}")
