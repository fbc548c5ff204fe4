import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from usets import cli, invariants
from usets.catalog import default_catalog
from usets.verify import CheckResult, VerificationReport, _uset_uniqueness

from helpers import readme_command_lines


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_group_uset(capsys):
    code, out, _ = run(capsys, "group", "uset", "PSL(2,11)")
    assert code == 0
    assert out == "{1, 55, 120, 220, 264}"


def test_group_uset_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "group", "uset", "A5")
    assert code == 0
    assert json.loads(out) == {"name": "A5", "U": [1, 15, 20, 24]}


def test_group_info_json_round_trips(capsys):
    code, out, _ = run(capsys, "--format", "json", "group", "info", "PSL(2,7)")
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 168
    assert payload["degree"] == 8
    assert payload["U"] == [1, 21, 42, 48, 56]


def test_group_classes(capsys):
    code, out, _ = run(capsys, "--format", "json", "group", "classes", "A5")
    rows = json.loads(out)["classes"]
    assert code == 0
    assert [r["size"] for r in rows] == [1, 12, 12, 15, 20]


@pytest.mark.parametrize("command", ["info", "uset", "classes"])
def test_group_above_the_cap_is_refused_by_name_before_it_is_built(capsys, monkeypatch,
                                                                    command):
    entry = default_catalog().entry("A10")

    def must_not_build():
        raise AssertionError("A10 built although it is above the cap")
    monkeypatch.setattr(entry, "builder", must_not_build)
    monkeypatch.setattr(entry, "_group", None)
    code, out, err = run(capsys, "group", command, "A10")
    assert (code, out) == (2, "")
    assert err == ("error: group order 1814400 exceeds cap 250000; "
                   "rerun with a higher cap to include A10")


def test_group_accepts_alias(capsys):
    code, out, _ = run(capsys, "group", "uset", "L2(11)")
    assert code == 0
    assert out == "{1, 55, 120, 220, 264}"


def test_catalog_list_k3(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "list", "--k", "3")
    names = [g["name"] for g in json.loads(out)["groups"]]
    assert code == 0
    assert len(names) == 11 and "U4(2)" in names and "M11" not in names


def test_catalog_list_max_order(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--max-order", "200")
    assert code == 0
    assert set(out.split()) >= {"A5", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)"}


@pytest.mark.parametrize("filters", [("--k", "-1"), ("--max-order=-5",)])
def test_catalog_list_says_when_no_group_matches(capsys, filters):
    assert run(capsys, "catalog", "list", *filters) == (
        0, "no catalog group matches these filters", "")
    code, out, _ = run(capsys, "--format", "json", "catalog", "list", *filters)
    assert (code, json.loads(out)) == (0, {"groups": []})


def test_search_finds_unique_group(capsys):
    code, out, _ = run(capsys, "--format", "json",
                       "search", "--uset", "1,55,120,220,264")
    payload = json.loads(out)
    assert code == 0
    assert payload["matches"] == ["PSL(2,11)"]
    assert payload["skipped"] == ["A10"]  # above the default cap


def test_pattern_instantiate(capsys):
    code, out, _ = run(capsys, "pattern", "instantiate",
                       "--pattern", "1,rq,8pq,4qr,8pr", "--assign", "p=3,q=5,r=11")
    assert code == 0
    assert out == "{1, 55, 120, 220, 264}"


def test_pattern_instantiate_skips_empty_assignment_items(capsys):
    code, out, _ = run(capsys, "pattern", "instantiate",
                       "--pattern", "1,p", "--assign", "p=3,,")
    assert (code, out) == (0, "{1, 3}")


def test_pattern_instantiate_warns_on_duplicates(capsys):
    code, out, _ = run(capsys, "pattern", "instantiate",
                       "--pattern", "pq,qr", "--assign", "p=7,q=5,r=7")
    assert code == 0
    assert "warning" in out and "35" in out


def test_pattern_match(capsys):
    code, out, _ = run(capsys, "pattern", "match",
                       "--pattern", "1,rq,8pq,4qr,8pr",
                       "--target", "1,55,120,220,264", "--bound", "100")
    assert code == 0
    assert out == "p=3 q=5 r=11"


def test_pattern_match_large_bound(capsys):
    code, out, _ = run(capsys, "pattern", "match",
                       "--pattern", "1,rq,8pq,4qr,8pr",
                       "--target", "1,55,120,220,264", "--bound", "100000")
    assert code == 0
    assert out == "p=3 q=5 r=11"


def test_pattern_match_no_result(capsys):
    code, out, _ = run(capsys, "pattern", "match",
                       "--pattern", "1,rq,8pq,4qr,8pr",
                       "--target", "1,21,42,48,56")
    assert code == 0
    assert out == "no assignment matches"


def test_pattern_match_refuses_a_target_of_the_wrong_size_at_once(capsys):
    # six target values for five terms: no factoring of the large prime
    start = time.perf_counter()
    code, out, _ = run(capsys, "pattern", "match",
                       "--pattern", "1,rq,8pq,4qr,8pr",
                       "--target", "1,55,120,220,264,100000000000031", "--bound", "10000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (0, "no assignment matches")


@pytest.mark.parametrize("prime,bound", [
    ("100000000000031", "10000000"),         # 5·10^6 trial divisions without the prime test
    ("1000000000000000003", "1000000000"),   # 5·10^8
])
def test_pattern_match_stops_dividing_a_large_prime_target(capsys, prime, bound):
    start = time.perf_counter()
    code, out, _ = run(capsys, "pattern", "match",
                       "--pattern", "1,rq,8pq,4qr,8pr,p",
                       "--target", f"1,55,120,220,264,{prime}", "--bound", bound)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "no assignment matches")


def test_pattern_match_refuses_a_prime_target_past_the_exact_prime_test():
    # the least prime above 4·10^24, where trial division would run to 10^9;
    # a subprocess, so a hang fails on its timeout
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "usets", "pattern", "match",
                           "--pattern", "1,rq", "--target", "1,4000000000000000000000027",
                           "--bound", "1000000000"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 5.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: cannot factor 4000000000000000000000027")


@pytest.mark.parametrize("p,q", [
    (999999937, 999999929),   # both primes below the bound: 5·10^8 trial divisions without rho
    (999999893, 999999883),
    (999999937, 1000000007),  # the larger one above it
])
def test_pattern_match_splits_a_semiprime_target(capsys, p, q):
    start = time.perf_counter()
    code, out, _ = run(capsys, "pattern", "match",
                       "--pattern", "1,rq,8pq,4qr,8pr,p",
                       "--target", f"1,55,120,220,264,{p * q}", "--bound", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "no assignment matches")


def test_solve_psl2(capsys):
    assert run(capsys, "solve-psl2", "660")[1] == "11"
    assert run(capsys, "solve-psl2", "661")[1] == "none"


def test_python_m_usets_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "usets", "solve-psl2", "660"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "11", "")


def test_solve_psl2_huge_order(capsys):
    assert run(capsys, "solve-psl2", str(10 ** 400)) == (0, "none", "")


def test_verify_selected_checks(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "paper",
                       "--only", "uset:A5", "psl2-order-solve",
                       "--report", str(path))
    assert code == 0
    assert out.count("PASS") == 2
    saved = json.loads(path.read_text())
    assert saved["summary"] == {"pass": 2, "fail": 0, "not_checked": 0}


def test_verify_json_and_report_serialize_once(capsys, tmp_path, monkeypatch):
    calls = []
    to_json = VerificationReport.to_json

    def counted(report):
        calls.append(report)
        return to_json(report)
    monkeypatch.setattr(VerificationReport, "to_json", counted)
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "--format", "json", "verify", "paper",
                       "--only", "psl2-order-solve", "--report", str(path))
    assert code == 0
    assert len(calls) == 1
    assert path.read_text() == out + "\n"


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "paper",
                       "--only", "uset:PSL(2,11)")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"][0]["status"] == "pass"


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = VerificationReport(version="x", timestamp="t", results=[
        CheckResult("c", "claim", "fail", computed=1, expected=2)])
    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "paper")
    assert code == 1
    assert "FAIL" in out


def test_an_order_mismatch_fails_its_row_and_the_run_goes_on(capsys, monkeypatch):
    entry = default_catalog().entry("A5")
    monkeypatch.setattr(entry, "expected_order", 61)
    monkeypatch.setattr(entry, "_group", None)
    code, out, _ = run(capsys, "--format", "json", "verify", "paper",
                       "--only", "order:A5", "uset:A6")
    rows = {r["check_id"]: r for r in json.loads(out)["results"]}
    assert code == 1
    assert (rows["order:A5"]["status"], rows["order:A5"]["note"]) == \
        ("fail", "A5: built order 60, expected 61")
    assert rows["uset:A6"]["status"] == "pass"
    code, out, _ = run(capsys, "verify", "paper", "--only", "order:A5", "uset:A6")
    assert code == 1
    assert out.splitlines()[1] == ("FAIL  order:A5  computed=None expected=None  "
                                   "[A5: built order 60, expected 61]")


def test_an_inconsistent_profile_fails_its_rows_and_the_report_is_written(capsys, monkeypatch,
                                                                         tmp_path):
    # an overstated |C(x)|: the first count _centralizer returns for
    # PSL(2,11) doubled, every time, so no profile of it closes its class
    # equation and its fallback raises RuntimeError
    entry = default_catalog().entry("PSL(2,11)")
    monkeypatch.setattr(entry, "_profile", None)
    bsgs, centralizer, first = entry.group().bsgs, invariants._centralizer, {}

    def overstated(b, x, *args):
        order, cent = centralizer(b, x, *args)
        if b is bsgs and first.setdefault("x", x) == x:
            order *= 2
        return order, cent
    monkeypatch.setattr(invariants, "_centralizer", overstated)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "paper", "--report", str(report), "--only",
                         "uset:PSL(2,11)", "centralizer-count:PSL(2,11)", "uset:A6")
    assert (code, err) == (1, "")
    rows = {r["check_id"]: r for r in json.loads(report.read_text())["results"]}
    note = "no enumerated class has the sampled sizes [66]"
    for check in ("uset:PSL(2,11)", "centralizer-count:PSL(2,11)"):
        assert (rows[check]["status"], rows[check]["note"]) == ("fail", note)
    assert rows["uset:A6"]["status"] == "pass"
    assert f"FAIL  uset:PSL(2,11)               computed=None expected=None  [{note}]" in out
    assert "1 passed, 2 failed" in out


def test_verify_at_a_low_cap_reports_not_checked(capsys):
    code, out, _ = run(capsys, "--cap", "1000", "verify", "paper")
    assert code == 0
    assert "SKIP  k3-uset-elimination" in out


def test_verify_below_psl_2_11_fails_nothing(capsys):
    code, out, _ = run(capsys, "--cap", "500", "verify", "paper")
    assert code == 0
    assert ", 0 failed," in out
    assert "SKIP  uset-uniqueness" in out


def test_verify_below_psl_2_11_computes_nothing_on_it(capsys):
    code, out, _ = run(capsys, "--cap", "500", "--format", "json", "verify", "paper",
                       "--only", "centralizer-count:PSL(2,11)")
    assert code == 0
    [row] = json.loads(out)["results"]
    assert row["status"] == "not_checked"
    assert row["note"] == ("group order 660 exceeds cap 500; "
                           "rerun with a higher cap to include PSL(2,11)")


@pytest.mark.parametrize("cap", [500, 660, 250_000])
def test_search_and_uset_uniqueness_scan_alike(capsys, cap):
    code, out, _ = run(capsys, "--cap", str(cap), "--format", "json",
                       "search", "--uset", "1,55,120,220,264")
    assert code == 0
    payload = json.loads(out)
    matches, _, note = _uset_uniqueness(default_catalog(), cap)
    assert payload["matches"] == matches == (["PSL(2,11)"] if cap >= 660 else [])
    assert note == f"groups above the cap, not scanned: {payload['skipped']}"
    assert ("PSL(2,11)" in payload["skipped"]) == (cap < 660)


def test_negative_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cap", "-5", "group", "uset", "PSL(2,11)"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_non_integer_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cap", "abc", "catalog", "list"])
    assert exc.value.code == 2
    assert "expected a non-negative integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("pattern", "instantiate", "--pattern", "1,p^99999999", "--assign", "p=3"),
    ("pattern", "match", "--pattern", "p^99999999,1", "--target", "1,3", "--bound", "5"),
])
def test_oversized_exponent_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exceeds the limit" in err and "\n" not in err


@pytest.mark.parametrize("argv, exponent", [
    (("pattern", "instantiate", "--pattern", "p^0", "--assign", "p=3"), "p^0"),
    (("pattern", "instantiate", "--pattern", "p^00q", "--assign", "p=3,q=5"), "p^00"),
    (("pattern", "match", "--pattern", "1,p^0q", "--target", "1,5"), "p^0"),
    (("pattern", "match", "--pattern", "1,p^0", "--target", "1,3"), "p^0"),
])
def test_zero_exponent_is_a_usage_error(capsys, argv, exponent):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"exponent {exponent} in term" in err


def test_cached_profile_still_honours_the_cap(capsys):
    assert run(capsys, "group", "uset", "A5")[0] == 0
    code, out, err = run(capsys, "--cap", "10", "group", "uset", "A5")
    assert code == 2 and out == ""
    assert "exceeds cap 10" in err


def test_unknown_group_is_a_usage_error(capsys):
    code, _, err = run(capsys, "group", "uset", "M24")
    assert code == 2
    assert "unknown group" in err


def test_unknown_check_id_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "paper", "--only", "bogus")
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("only", [",", "", " , ", "order:A5,uset:A6"])
def test_only_that_selects_nothing_is_a_usage_error(capsys, only):
    # ids are separate arguments, so no argument is split or trimmed
    code, out, err = run(capsys, "verify", "paper", "--only", only)
    assert (code, out, err) == (2, "", f"error: unknown check ids: {[only]}")


def test_only_without_an_id_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "paper", "--only"])
    assert exc.value.code == 2
    assert "--only: expected at least one argument" in capsys.readouterr().err


def test_every_check_id_can_be_selected(capsys):
    # ids such as eliminate:1,r^2,4r^2,16r hold commas, alone or together
    code, out, _ = run(capsys, "--format", "json", "verify", "paper")
    ids = [r["check_id"] for r in json.loads(out)["results"]]
    assert code == 0 and len(ids) == 195
    assert any("," in i and "(" not in i for i in ids)
    for check_id in ids:
        code, out, _ = run(capsys, "--cap", "0", "--format", "json", "verify", "paper",
                           "--only", check_id)
        assert [r["check_id"] for r in json.loads(out)["results"]] == [check_id]
    code, out, _ = run(capsys, "--cap", "0", "--format", "json", "verify", "paper")
    whole = json.loads(out)
    code, out, _ = run(capsys, "--cap", "0", "--format", "json", "verify", "paper",
                       "--only", *reversed(ids))
    chosen = json.loads(out)
    assert [r["check_id"] for r in chosen["results"]] == \
        [r["check_id"] for r in whole["results"]] == ids
    assert chosen["summary"] == whole["summary"] == {"pass": 31, "fail": 0, "not_checked": 164}


def test_verbose_is_a_verify_option(capsys):
    code, out, _ = run(capsys, "verify", "paper", "-v", "--only", "psl2-order-solve")
    assert code == 0
    assert out.splitlines()[0] == "PASS  psl2-order-solve  computed=11"
    with pytest.raises(SystemExit) as exc:
        cli.main(["-v", "group", "info", "A5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_assignment_is_a_usage_error(capsys):
    code, _, err = run(capsys, "pattern", "instantiate",
                       "--pattern", "rq", "--assign", "z=4")
    assert code == 2
    assert "bad assignment" in err


def test_repeated_assignment_is_a_usage_error(capsys):
    code, out, err = run(capsys, "pattern", "instantiate",
                         "--pattern", "1,p", "--assign", "p=3,p=5")
    assert (code, out) == (2, "")
    assert err == "error: symbol 'p' is assigned twice"


def test_bad_target_is_a_usage_error(capsys):
    code, _, err = run(capsys, "search", "--uset", "1,foo")
    assert code == 2
    assert "comma-separated integers" in err


@pytest.mark.parametrize("argv", [
    ("search", "--uset", ""),
    ("search", "--uset", " , "),
    ("search", "--uset", ","),
    ("pattern", "match", "--pattern", "1,p", "--target", ""),
    ("pattern", "match", "--pattern", "1,p", "--target", " , "),
])
def test_an_empty_integer_list_is_a_usage_error(capsys, monkeypatch, argv):
    # refused before any group is built or profiled
    def no_group_work():
        raise AssertionError("the catalog was opened")
    monkeypatch.setattr(cli, "default_catalog", no_group_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: expected at least one integer, got {argv[-1]!r}"


@pytest.mark.parametrize("argv", [
    ("group", "info", "A5"),
    ("group", "uset", "A5"),
    ("group", "classes", "A5"),
    ("catalog", "list"),
    ("search", "--uset", "1,15,20,24"),
    ("pattern", "instantiate", "--pattern", "1,rq", "--assign", "q=3,r=5"),
    ("pattern", "match", "--pattern", "1,rq", "--target", "1,15", "--bound", "10"),
    ("solve-psl2", "60"),
    ("verify", "paper", "--only", "psl2-order-solve"),
])
def test_every_subcommand_emits_valid_json(capsys, argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert isinstance(json.loads(out), dict)


def test_readme_command_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `verify paper --report report.json` writes here
    lines = readme_command_lines()
    assert len(lines) == 9
    shown = 0
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        if "# ->" in line:  # the value shown runs up to a double space
            assert out == line.split("# ->", 1)[1].strip().split("  ")[0], line
            shown += 1
    assert shown == 2


def test_readme_library_names_resolve():
    # every backticked usets.<module>[.<name>...] names a module attribute
    text = (Path(__file__).parents[1] / "README.md").read_text()
    names = re.findall(r"`usets\.(\w+)((?:\.\w+)*)", text)
    assert len(names) >= 15
    for module, attrs in names:
        obj = importlib.import_module(f"usets.{module}")
        for attr in attrs.split(".")[1:]:
            assert hasattr(obj, attr), f"usets.{module}{attrs}"
            obj = getattr(obj, attr)


def test_unwritable_report_path_is_an_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "paper", "--only", "psl2-order-solve",
                       "--report", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")
