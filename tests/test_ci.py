"""Whole-program checks of the slow tier, ``python -m pytest -m slow``: the
A10 class table at cap 2 000 000, the benchmark's workloads through
``bench/run.py``, a statement trace of the package, and its line counts
and import time.  What they measure goes to the step summary (see the
``step_summary`` fixture), reported, not gated."""

import ast
import contextlib
import hashlib
import io
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import pytest

from helpers import readme_command_lines

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted((SRC / "usets").glob("*.py"))


def docstrings(tree):
    """The docstring statements of a module's syntax tree."""
    return [node.body[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None]


def bench_run(workload, seconds, trace=0):
    """The metrics of one ``bench/run.py`` run at seed 1, which must exit 0
    with every operation correct."""
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and not result["failed"], lines[-2:]
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_a10_class_table_is_pinned(step_summary):
    # the class walk at cap 2 000 000, which no other test runs
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "usets", "--cap", "2000000", "--format", "json",
                          "group", "classes", "A10"], stdout=subprocess.PIPE, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    step_summary(f"A10 class table at cap 2000000: {wall:.1f} s wall, {rss_mb:.0f} MB max RSS")
    assert hashlib.md5(out).hexdigest() == "fb63439fd1683a1a019b9547ece972f0"


@pytest.mark.parametrize("workload, seconds", [("profile-a10", 5), ("pattern-match", 2)])
def test_workload_runs(step_summary, workload, seconds):
    metrics = bench_run(workload, seconds)
    step_summary(f"{workload} (seed 1, {seconds} s): wall_s {metrics['wall_s']:.4f} s,"
                 f" op_p50_ms {metrics['op_p50_ms']:.4f} ms")


@pytest.mark.parametrize("workload, counts", [
    # the checks that went through the tracer's verify.CheckResult subclass
    ("verify-paper", {"verify.checks": 195}),
    # the search reaches the same leaves, each one a match
    ("pattern-match", {"patterns.match.assignments": 103, "patterns.match.hit_ratio": 1.0}),
])
def test_traced_workload_counts(workload, counts):
    metrics = bench_run(workload, 2, trace=1)
    assert {name: metrics[name] for name in counts} == counts


def test_statement_trace(monkeypatch, tmp_path, step_summary):
    # sys.settrace over verify paper at the four pinned caps, each benchmark
    # workload once at seed 1 and the README's command lines, on the package
    # imported afresh under the trace so that its module bodies count; the
    # statements none of them reaches go to the step summary, per module
    hits = {str(path): set() for path in MODULES}

    def lines(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, _event, _arg):  # only the package's frames are traced line by line
        return lines if frame.f_code.co_filename in hits else None

    class Clock:  # what workloads.Outcome reads of a speed meter
        clock = staticmethod(time.perf_counter)
    for name in [name for name in sys.modules if name.split(".")[0] == "usets"]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(SRC))
    monkeypatch.chdir(tmp_path)  # `verify paper --report report.json` writes here
    start, previous = time.perf_counter(), sys.gettrace()
    sys.settrace(calls)
    try:
        import usets.cli
        import workloads
        for cap in (0, 500, 250_000, 2_000_000):
            usets.verify.run_verification(cap=cap)
        for name, workload in workloads.WORKLOADS.items():
            run = workload(usets, 1)
            run.construct()
            run.prepare()
            out = workloads.Outcome(Clock())
            run.run(out)  # a call that raises fails its check
            assert not out.failed, (name, out.errors)
        for line in readme_command_lines():
            with contextlib.redirect_stdout(io.StringIO()):
                assert usets.cli.main(shlex.split(line, comments=True)[1:]) == 0, line
    finally:
        sys.settrace(previous)
    assert any(hits.values()), "the trace saw no line of the package"
    step_summary(f"Statements of src/usets/*.py that no traced run reaches"
                 f" ({time.perf_counter() - start:.1f} s):")
    for path, seen in hits.items():
        source = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(source)
        skipped = set(map(id, docstrings(tree)))
        total, missed = 0, []
        for node in ast.walk(tree):  # a `try:` line runs no code of its own
            if not isinstance(node, ast.stmt) or id(node) in skipped or isinstance(node, ast.Try):
                continue
            total += 1
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
            if seen.isdisjoint(range(first, last + 1)):  # a compound statement by its header
                missed.append(node.lineno)
        text = source.splitlines()
        step_summary(f"{Path(path).relative_to(ROOT)}: {len(missed)} of {total} unreached")
        if missed:
            step_summary("```\n" + "\n".join(f"{n:5d}  {text[n - 1].strip()}"
                                              for n in sorted(missed)) + "\n```")


def test_source_line_counts(step_summary):
    # ROADMAP aim 2's measure: the lines of each module, and its lines of
    # code without docstrings, comments and blank lines
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    rows = []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        prose = {n for node in docstrings(ast.parse(source))
                 for n in range(node.lineno, node.end_lineno + 1)}
        code = {n for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type not in layout for n in range(token.start[0], token.end[0] + 1)}
        rows.append((len(source.splitlines()), len(code - prose), path.relative_to(ROOT)))
    step_summary(f"Lines in src/usets/*.py: {sum(r[0] for r in rows)}; without docstrings,"
                 f" comments and blank lines: {sum(r[1] for r in rows)}")
    step_summary("```\n" + "\n".join(f"{lines:6d} {code:6d} {path}" for lines, code, path in rows)
                 + "\n```")


def test_import_time(tmp_path, step_summary):
    # a fresh import of the package, median of 20 processes each, with the
    # source compiled, as the benchmark's workers compile it, and with the
    # bytecode cached; -B writes no bytecode, so each process finds what
    # the last one did
    code = ("import time; start = time.perf_counter(); import usets, usets.cli; "
            "print(time.perf_counter() - start)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    src = shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    env["PYTHONPATH"] = str(src)

    def median_ms():
        return 1000 * statistics.median(float(subprocess.run(
            [sys.executable, "-B", "-c", code], env=env, stdout=subprocess.PIPE, text=True,
            check=True).stdout) for _ in range(20))
    compiled = median_ms()
    subprocess.run([sys.executable, "-c", "import usets, usets.cli"], env=env, check=True)
    cached = median_ms()
    step_summary(f"import usets, usets.cli (median of 20 processes): {compiled:.1f} ms"
                 f" source compiled, {cached:.1f} ms bytecode cached")
