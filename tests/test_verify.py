import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from usets import cli, invariants, verify
from usets.catalog import Catalog, CatalogEntry, default_catalog
from usets.construct import classical_order, psl_group
from usets.perm import DEFAULT_CAP
from usets.verify import (
    GOLDEN_USETS,
    VerificationReport,
    run_verification,
)

from helpers import assert_revision, group_elements, plant_centralizer, spy, wrap

#: ``usets --cap N --format json verify paper`` at CI's caps, each without
#: its timestamp line; CI compares the command's output with these files.
PINS = Path(__file__).resolve().parent / "data"


def pinned(cap):
    return (PINS / f"verify_paper_cap{cap}.json").read_text()


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
    calls = spy(monkeypatch, verify, "centralizer_count")
    r = run_verification(["centralizer-count:PSL(2,11)"]).results[0]
    assert (r.status, r.computed, r.expected) == ("pass", 189, 189)
    element_sets = [group_elements(group, cap) for group, cap in calls]
    assert len(element_sets) == 2 and element_sets[0] != element_sets[1]


def test_a_failed_profile_is_kept_and_raised_again(monkeypatch):
    # a |C(x)| planted wrong for PSL(2,11) fails each of the 12 rows that
    # profile PSL(2,11) with the profile's error, from one sampler run and
    # at most one walk, not one of each per row.  Doubled for the elements
    # of order 5, it leaves the class equation open, and the walk then
    # finds no class of the sampled size; halved for the involutions, it
    # overshoots |G|, and nothing walks
    plants = ((5, lambda order: 2 * order, "no enumerated class has the sampled sizes [66]", 1),
              (2, lambda order: order // 2, "class sizes add up to 715, group order is 660", 0))
    entry = default_catalog().entry("PSL(2,11)")
    bsgs = entry.group().bsgs
    sampled = spy(monkeypatch, invariants, "_sampled_class_sizes")
    walked = spy(monkeypatch, invariants, "_classes")
    for element_order, planted, note, walks in plants:
        with monkeypatch.context() as plant:
            plant_centralizer(plant, planted, lambda b, x, x_len: b is bsgs
                              and math.lcm(*x_len) == element_order)
            plant.setattr(entry, "_profile", None)
            sampled.clear()
            walked.clear()
            report = run_verification()
        failed = [r for r in report.results if r.status == "fail"]
        assert len(failed) == 12
        assert {r.note for r in failed} == {note}
        assert (sum(b is bsgs for b, *_ in sampled), len(walked)) == (1, walks)


def test_one_catalog_entry_computes_a_listed_groups_screening(monkeypatch):
    # L3(5), listed among the four-prime groups under its short name, is
    # screened from its profile once the catalog holds PSL(3,5)
    catalog = Catalog()
    catalog._entries["PSL(3,5)"] = CatalogEntry(
        "PSL(3,5)", classical_order("PSL", 3, 5), "a test entry", lambda: psl_group(3, 5))
    monkeypatch.setattr(verify, "default_catalog", lambda: catalog)
    report = run_verification(["size5:L3(5)", "k4-screen"], cap=10 ** 6)
    size5, k4 = report.result("size5:L3(5)"), report.result("k4-screen")
    assert (size5.status, size5.note) == ("pass", "|U(L3(5))| = 8")
    assert k4.status == "pass" and "PSL(3,5)" in k4.computed


def test_duplicate_check_ids_raise(monkeypatch):
    wrap(monkeypatch, verify, "_rows", lambda real, catalog, cap: [*real(catalog, cap)] * 2)
    with pytest.raises(RuntimeError, match=r"^duplicate check ids in the check table$"):
        run_verification()


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
    empty = VerificationReport(version="x", timestamp="t", results=[])
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


@pytest.mark.parametrize("cap", [0, 500, 250_000, 2_000_000])
def test_report_matches_its_pin(cap):
    """The report, byte for byte, so also the key order of the report and of
    each row, with its one timestamp line right after the version."""
    # the command prints the JSON and a newline
    lines = (run_verification(cap=cap).to_json() + "\n").splitlines(keepends=True)
    assert [i for i, line in enumerate(lines) if '"timestamp"' in line] == [2]
    got = "".join(line for line in lines if '"timestamp"' not in line)
    assert got.encode() == (PINS / f"verify_paper_cap{cap}.json").read_bytes()


@pytest.mark.parametrize("seed", ["0", "1"])
def test_report_is_independent_of_the_hash_seed(seed, capsys):
    # the hash of bytes, the internal form of a permutation of degree 256 or
    # less and so the hash of a Permutation, follows PYTHONHASHSEED: a report
    # or class table that read the order of a set or dict of permutations
    # would change with it
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))

    def usets(*argv):
        done = subprocess.run([sys.executable, "-m", "usets", "--format", "json", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout
    report = usets("--cap", "500", "verify", "paper")
    assert "".join(line for line in report.splitlines(keepends=True)
                   if '"timestamp"' not in line) == pinned(500)
    assert cli.main(["--format", "json", "group", "classes", "PSL(2,11)"]) == 0
    assert usets("group", "classes", "PSL(2,11)") == capsys.readouterr().out


def test_a_new_row_passes_the_revision_test_only_when_declared(monkeypatch):
    probe = verify.CheckRow("probe:planted", "a planted row", "internal", lambda: (1, 1))
    wrap(monkeypatch, verify, "_rows", lambda real, catalog, cap: real(catalog, cap) + [probe])
    revised = run_verification().to_json()
    assert_revision(pinned(DEFAULT_CAP), revised, ["probe:planted"])
    with pytest.raises(AssertionError, match="not declared"):
        assert_revision(pinned(DEFAULT_CAP), revised, [])
    # a summary that is not the tally of the rows
    with pytest.raises(AssertionError):
        assert_revision(pinned(DEFAULT_CAP), revised.replace('"pass": 166', '"pass": 165', 1),
                        ["probe:planted"])


def test_a_reworded_note_passes_the_revision_test_only_when_its_rows_are_declared(monkeypatch):
    monkeypatch.setattr(verify, "NO_DATA_NOTE", "no construction of this group is shipped")
    report = run_verification()
    reworded = [r.check_id for r in report.results if r.note == verify.NO_DATA_NOTE]
    assert len(reworded) == 23 and all(i.startswith("size5:") for i in reworded)
    assert_revision(pinned(DEFAULT_CAP), report.to_json(), reworded)
    with pytest.raises(AssertionError, match="undeclared row"):
        assert_revision(pinned(DEFAULT_CAP), report.to_json(), reworded[1:])


def test_default_cap_includes_a9_excludes_a10():
    assert 181_440 <= DEFAULT_CAP < 1_814_400
