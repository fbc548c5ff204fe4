"""The usets benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-paper, profile-a10, pattern-match, construct-bsgs (see
README.md).  The generator is a closed loop over fresh worker processes,
one at a time: each worker imports the package from this checkout's
``src/``, sets up, makes one pass over the seeded inputs, checks every
output against an oracle and reports.  Workers are started until
``--seconds`` have passed.  Every time is scaled by the machine's speed
while it was measured (see ``speed.py``).

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` it carries the per-layer metrics, taken from traced workers
(at least two, whose exact counts must agree), and the tracing overhead
against untraced workers run first.  Lines before the last one give
details: failures, sample counts, per-group peak RSS.

Exit status is 0 when a result was printed, and 2 when the checkout has
no package or a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-paper", "profile-a10", "pattern-match", "construct-bsgs")
DEADLINE_S = 170       # every run must end within 180 s
#: A fixed string-hash seed removes one source of run-to-run variation.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.started = time.monotonic()

    def worker(self, *args: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"out of time before worker {args}")
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} did not finish within the deadline")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def series(self, workload: str, seconds: float, trace: bool, at_least: int = 1) -> list[dict]:
        """Closed loop: start the next worker when the previous one ends."""
        start, passes = time.monotonic(), []
        while len(passes) < at_least or time.monotonic() - start < seconds:
            passes.append(self.worker("--workload", workload, "--seed", str(self.seed),
                                      "--trace", "1" if trace else "0"))
        return passes


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    largest sample when there are ten or fewer)."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(passes: list[dict]) -> dict:
    """Medians over passes; latency percentiles are taken within each pass."""
    med = statistics.median
    return {
        "wall_s": med(p["pass_s"] for p in passes),
        "setup_s": med(s for p in passes for s in p["setup_s"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": med(med(p["op_s"]) for p in passes) * 1e3,
        "op_tail_ms": med(tail(p["op_s"]) for p in passes) * 1e3,
    }


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms"}


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "usets" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'usets'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args.seed)
    try:
        untraced = runner.series(args.workload, args.seconds, trace=False)
        traced = runner.series(args.workload, args.seconds, trace=True, at_least=2) if args.trace else []
        rss = per_group_rss(runner, args.workload, untraced) if args.trace else {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    everything = untraced + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    e2e = end_to_end(untraced)
    info = {
        "workload": args.workload, "seed": args.seed, "passes": len(untraced),
        "fail_ratio": failed / attempted,
        "op_samples_per_pass": len(untraced[0]["op_s"]),
        "errors": [e for p in everything for e in p["errors"]][:5],
    }
    info["raw_wall_s"] = statistics.median(p["raw_pass_s"] for p in untraced)
    if untraced[0]["elements"]:
        info["elements_per_s"] = untraced[0]["elements"] / e2e["wall_s"]
    correct = failed == 0
    if args.trace:
        layers = [p["layers"] for p in traced]
        # counts and ratios of counts are exact; they must repeat in every traced worker
        mismatched = [k for k in layers[0]
                      if layer_unit(k) in ("count", "ratio") and len({l[k] for l in layers}) != 1]
        if mismatched:
            correct = False
            info["counts_not_repeated"] = mismatched
        metrics = {}
        for k in layers[0]:
            values = [l[k] for l in layers]
            metrics[k] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(
            p["pass_s"] for p in untraced)
        info["traced_passes"] = len(traced)
        if rss:
            print(json.dumps({"per_group_peak_rss_mb": rss}))
        result = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        result = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def per_group_rss(runner: Runner, workload: str, untraced: list[dict]) -> dict:
    """Peak RSS of profiling one catalog group alone in a fresh process:
    every group at or below the verification cap on verify-paper, and A10
    (the untraced profile-a10 workers, which profile nothing else)."""
    if workload == "profile-a10":
        return {"A10": max(p["peak_rss_mb"] for p in untraced)}
    if workload != "verify-paper":
        return {}
    names = runner.worker("--list-groups")["groups"]
    return {name: runner.worker("--rss-group", name)["peak_rss_mb"] for name in names}


if __name__ == "__main__":
    sys.exit(main())
