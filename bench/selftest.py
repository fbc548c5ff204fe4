"""Self-test: every workload's oracle catches a planted wrong answer.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload one pass runs with the true expected values and must
report no failure, then one pass runs with a deliberately corrupted
expected value and must report at least one.  Takes about a minute;
profile-a10 is most of it.  Exit status 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import sys

import oracles
import worker

SEED = 7


def _wrong_reference():
    ref = _originals["verify_reference"]()
    ref["results"][0]["computed"] = ["corrupted"]
    return ref


def _wrong_alt_sizes(n):
    sizes = _originals["alt_class_sizes"](n)
    return sizes[:-1] + [sizes[-1] + 1]


def _wrong_representative(terms, assignment):
    rep = _originals["orbit_representative"](terms, assignment)
    first = min(rep)
    return {**rep, first: rep[first] + 2}


def _wrong_psl_order(n, q):
    return _originals["psl_order"](n, q) + 1


CORRUPTIONS = {
    "verify-paper": ("verify_reference", _wrong_reference),
    "profile-a10": ("alt_class_sizes", _wrong_alt_sizes),
    "pattern-match": ("orbit_representative", _wrong_representative),
    "construct-bsgs": ("psl_order", _wrong_psl_order),
}
_originals = {name: getattr(oracles, name) for name, _ in CORRUPTIONS.values()}


@contextlib.contextmanager
def corrupted(name, replacement):
    setattr(oracles, name, replacement)
    try:
        yield
    finally:
        setattr(oracles, name, _originals[name])


def main(argv: list[str]) -> int:
    ok = True
    for workload in argv or list(CORRUPTIONS):
        name, replacement = CORRUPTIONS[workload]
        clean = worker.run_pass(workload, SEED, trace=False)
        with corrupted(name, replacement):
            bad = worker.run_pass(workload, SEED, trace=False)
        passed = clean["failed"] == 0 and bad["failed"] > 0
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {workload}: clean {clean['failed']}/{clean['attempted']} "
              f"failed, with a wrong {name} {bad['failed']}/{bad['attempted']} failed", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
