"""One pass of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1
    python3 bench/worker.py --list-groups
    python3 bench/worker.py --rss-group NAME

The package is imported from ``src/`` of the checkout this file sits in.
Set-up (import, plus catalog or group construction) is repeated
``SETUP_REPS`` times, each time from a fresh import, and every duration
is reported; the last set-up is the one the pass uses.  Every time is
scaled by the machine's speed while it ran (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from workloads import VERIFY_CAP, WORKLOADS, Outcome  # noqa: E402

SETUP_REPS = 5


def import_usets():
    """Import the package afresh from the checkout's ``src/``."""
    for name in [k for k in sys.modules if k == "usets" or k.startswith("usets.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    usets = importlib.import_module("usets")
    importlib.import_module("usets.cli")
    if SRC not in Path(usets.__file__).resolve().parents:
        raise ImportError(f"usets was imported from {usets.__file__}, not from {SRC}")
    return usets


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(t: tracing.Tracer, done: Outcome, families: list[str]) -> dict:
    """Per-layer metrics of one traced pass.  Every ``.s`` is a self time,
    scaled by the pass's mean speed factor."""
    scale = done.pass_s / done.raw_s
    s, c = defaultdict(float, {k: v * scale for k, v in t.self_s.items()}), t.counts
    checks = {k.split(":", 1)[1]: v for k, v in s.items() if k.startswith("verify.check:")}
    out = {
        "construct.s": s["construct"],
        "construct.points": c["construct.points"],
        "construct.generators": c["construct.generators"],
        "perm.bsgs.s": s["perm.bsgs"],
        "perm.bsgs.base_len": c["perm.bsgs.base_len"],
        "perm.bsgs.strong_gens": c["perm.bsgs.strong_gens"],
        "perm.sift.s": s["perm.sift"],
        "perm.sift.calls": c["perm.sift.calls"],
        "perm.enumerate.s": s["perm.enumerate"],
        "perm.enumerate.elements": c["perm.enumerate.elements"],
        "perm.enumerate.compositions": c["perm.enumerate.compositions"],
        "perm.enumerate.rss_mb": t.rss_mb["perm.enumerate"],
        "invariants.classes.self_s": s["invariants.classes"],
        "invariants.classes.conjugations": c["invariants.classes.conjugations"],
        "invariants.classes.count": c["invariants.classes.count"],
        "invariants.classes.rss_mb": t.rss_mb["invariants.classes"],
        "invariants.profile.s": s["invariants.profile"],
        "invariants.centralizer.s": s["invariants.centralizer"],
        "invariants.centralizer.pairs": c["invariants.centralizer.pairs"],
        "catalog.group.s": s["catalog.group"],
        "catalog.profile.s": s["catalog.profile"],
        "catalog.profile.calls": c["catalog.profile.calls"],
        "catalog.profile.hit_ratio": (c["catalog.profile.hits"] / c["catalog.profile.calls"]
                                      if c["catalog.profile.calls"] else 0.0),
        "patterns.match.s": s["patterns.match"],
        "patterns.match.assignments": c["patterns.match.assignments"],
        "patterns.match.hit_ratio": (c["patterns.match.matches"] / c["patterns.match.assignments"]
                                     if c["patterns.match.assignments"] else 0.0),
        "patterns.collision.s": s["patterns.collision"],
        "patterns.feasibility.s": s["patterns.feasibility"],
        "patterns.solve.s": s["patterns.solve"],
        "verify.run.self_s": s["verify.run"],
        "verify.check.self_s": sum(checks.values()),
        "verify.checks": c["verify.checks"],
        "cli.self_s": s["cli"],
    }
    for family in families:
        out[f"verify.check.{family}.self_s"] = checks.get(family, 0.0)
    out["trace.wall_s"] = done.pass_s
    out["trace.unattributed_s"] = done.pass_s - sum(s.values())
    return out


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    tracer = None
    with SpeedMeter() as meter:
        setups = []
        for _ in range(SETUP_REPS):
            start = meter.clock()
            usets = import_usets()
            wl = WORKLOADS[workload](usets, seed)
            wl.construct()
            setups.append((start, meter.clock()))
        wl.prepare()
        out = Outcome(meter)
        if trace:
            tracer = tracing.Tracer(meter.clock)
            tracer.install(usets)
        wl.run(out)
    out.finish()
    setup_s = [meter.scaled(start, end) for start, end in setups]
    result = {
        "setup_s": setup_s,
        "pass_s": out.pass_s,
        "raw_pass_s": out.raw_s,
        "op_s": out.op_s,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "elements": out.elements,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        families = sorted({r["check_id"].split(":")[0] for r in oracles.verify_reference()["results"]})
        result["layers"] = layer_metrics(tracer, out, families)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-groups", action="store_true",
                    help="catalog groups at or below the verification cap")
    ap.add_argument("--rss-group", metavar="NAME",
                    help="profile one catalog group and report peak RSS")
    args = ap.parse_args(argv)
    if args.list_groups:
        catalog = import_usets().catalog.default_catalog()
        result = {"groups": [e.name for e in catalog.entries(max_order=VERIFY_CAP)]}
    elif args.rss_group:
        import_usets().catalog.default_catalog().entry(args.rss_group).profile(VERIFY_CAP)
        result = {"group": args.rss_group, "peak_rss_mb": peak_rss_mb()}
    elif args.workload:
        result = run_pass(args.workload, args.seed, bool(args.trace))
    else:
        ap.error("give --workload, --list-groups or --rss-group")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
