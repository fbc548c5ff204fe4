import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from usets import cli
from usets.catalog import default_catalog
from usets.verify import CheckResult, VerificationReport, _uset_uniqueness


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
                       "--only", "uset:A5,psl2-order-solve",
                       "--report", str(path))
    assert code == 0
    assert out.count("PASS") == 2
    saved = json.loads(path.read_text())
    assert saved["summary"] == {"pass": 2, "fail": 0, "not_checked": 0}


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


@pytest.mark.parametrize("only", [",", "", " , "])
def test_only_that_selects_nothing_is_a_usage_error(capsys, only):
    code, out, err = run(capsys, "verify", "paper", "--only", only)
    assert (code, out, err) == (2, "", "error: no check ids selected")


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


def readme_command_lines():
    """The ``usets ...`` lines of the README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("usets ")]


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


def test_unwritable_report_path_is_an_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "paper", "--only", "psl2-order-solve",
                       "--report", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")
