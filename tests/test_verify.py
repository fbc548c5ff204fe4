import json
from pathlib import Path

import pytest

from usets import verify
from usets.invariants import centralizer_count
from usets.perm import DEFAULT_CAP
from usets.verify import (
    GOLDEN_USETS,
    VerificationReport,
    run_verification,
)

from helpers import group_elements


def test_no_failures(report):
    failed = [r.check_id for r in report.results if r.status == "fail"]
    assert failed == []


def test_summary_matches_tally(report):
    tally = {"pass": 0, "fail": 0, "not_checked": 0}
    for r in report.results:
        tally[r.status] += 1
    assert report.summary == tally
    assert report.all_passed


def test_check_ids_unique(report):
    ids = [r.check_id for r in report.results]
    assert len(ids) == len(set(ids))


def test_every_golden_uset_checked(report):
    for name in GOLDEN_USETS:
        assert report.result(f"uset:{name}").status == "pass"


def test_gated_groups_are_not_checked_rather_than_skipped(report):
    a10 = report.result("size5:A10")
    assert a10.status == "not_checked"
    assert "cap" in a10.note
    j2 = report.result("size5:J2")
    assert j2.status == "not_checked"
    assert "no generator data" in j2.note


def test_collision_note_mentions_published_count(report):
    note = report.result("collision-screen").note
    assert "32" in note and "31" in note


def test_centralizer_count_recorded(report):
    r = report.result("centralizer-count:PSL(2,11)")
    assert r.status == "pass"
    assert "|Cent(PSL(2,11))|" in r.note


def test_centralizer_count_has_a_second_labelling(monkeypatch):
    # the row's two counts run on different element tuples of PSL(2,11)
    element_sets = []

    def recording(group, cap):
        element_sets.append(group_elements(group, cap))
        return centralizer_count(group, cap)
    monkeypatch.setattr(verify, "centralizer_count", recording)
    r = run_verification(["centralizer-count:PSL(2,11)"]).results[0]
    assert (r.status, r.computed, r.expected) == ("pass", 189, 189)
    assert len(element_sets) == 2 and element_sets[0] != element_sets[1]


def test_deterministic_modulo_timestamp():
    a = run_verification().as_dict()
    b = run_verification().as_dict()
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_selection_runs_subset():
    report = run_verification(["uset:A5", "psl2-order-solve"])
    assert [r.check_id for r in report.results] == ["uset:A5", "psl2-order-solve"]
    assert report.all_passed


def test_selection_rejects_unknown_ids():
    with pytest.raises(ValueError, match="nonsense"):
        run_verification(["nonsense"])


def test_empty_selection_is_refused():
    # a run that checks nothing must not read as a pass
    with pytest.raises(ValueError, match="^no check ids selected$"):
        run_verification([])


def test_json_round_trip(report):
    parsed = json.loads(report.to_json())
    assert parsed["summary"] == report.summary
    assert parsed["results"][0]["check_id"] == report.results[0].check_id
    assert parsed["version"] == report.version


def test_format_table_contains_summary_line(report):
    table = report.format_table()
    assert f"{report.summary['pass']} passed" in table
    assert "FAIL" not in table


def test_unknown_result_lookup(report):
    with pytest.raises(KeyError):
        report.result("bogus")


def test_an_empty_report_counts_nothing_and_passes():
    empty = VerificationReport(version="x", timestamp="t")
    assert empty.summary == {"pass": 0, "fail": 0, "not_checked": 0}
    assert empty.all_passed


def test_no_check_compares_a_record(report):
    # the package's records are tuples, equal to a plain tuple of their
    # fields, so a check comparing one could pass on a plain tuple; the
    # compared values hold only plain data
    def kinds(value):
        yield type(value)
        if isinstance(value, dict):
            for key, item in value.items():
                yield from kinds(key)
                yield from kinds(item)
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                yield from kinds(item)

    seen = {kind for r in report.results for value in (r.computed, r.expected)
            for kind in kinds(value)}
    assert seen <= {type(None), bool, int, str, tuple, list, dict}


def test_low_cap_gates_more_groups():
    report = run_verification(["uset:U4(2)", "uset:A5"], cap=1000)
    assert report.result("uset:U4(2)").status == "not_checked"
    assert report.result("uset:A5").status == "pass"


def test_low_cap_gates_the_k3_elimination():
    r = run_verification(["k3-uset-elimination"], cap=1000).result(
        "k3-uset-elimination")
    assert r.status == "not_checked"
    assert "cap" in r.note


def test_report_matches_the_seed_report(report):
    """The whole report, apart from the timestamp, equals the report the
    seed commit produced at the default cap."""
    seed = Path(__file__).resolve().parents[1] / "bench" / "data" / "verify_paper_seed.json"
    got = json.loads(report.to_json())
    got.pop("timestamp")
    assert got == json.loads(seed.read_text())


def test_default_cap_includes_a9_excludes_a10():
    assert 181_440 <= DEFAULT_CAP < 1_814_400
