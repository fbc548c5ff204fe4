"""The four benchmark workloads.

Each workload is one pass of closed-loop operations: the next call into
the package starts when the previous one returns.  ``construct`` is the
package-side set-up that precedes the timed phase, ``prepare`` builds
the seeded inputs (benchmark code, untimed) and ``run`` makes the calls,
timing each one and checking its output against ``oracles``.  A pass's
wall time is the sum of the timed calls, so input generation and oracle
checks are not part of it.  Every call's time is scaled by the machine's
speed while it ran (see ``speed.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import oracles
from speed import SpeedMeter

VERIFY_CAP = 250_000  # the package's default verification cap


def _compose(a: tuple, b: tuple) -> tuple:
    """Apply ``a`` first, then ``b``."""
    return tuple(b[x] for x in a)


class Outcome:
    """Operations attempted and failed in one pass, plus their timings."""

    def __init__(self, meter: SpeedMeter):
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.calls: list[tuple[float, float, bool]] = []  # meter clock at start and end, unit operation?
        self.raw_s = 0.0             # sum of the timed calls, unscaled
        self.pass_s = 0.0            # sum of the timed calls, scaled
        self.op_s: list[float] = []  # scaled latency of each unit operation
        self.elements = 0            # group elements profiled

    def call(self, fn, *args, unit: bool = False, **kwargs):
        """Time one call into the package; an exception is a failed result.
        ``unit`` marks the workload's unit operation, whose latency is kept."""
        start = self.meter.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the package must not raise on these inputs
            result = exc
        self.calls.append((start, self.meter.clock(), unit))
        return result

    def finish(self) -> None:
        """Scale every call, once the meter has taken its last sample."""
        scaled = [(self.meter.scaled(start, end), unit) for start, end, unit in self.calls]
        self.raw_s = sum(end - start for start, end, _ in self.calls)
        self.pass_s = sum(t for t, _ in scaled)
        self.op_s = [t for t, unit in scaled if unit]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


class VerifyPaper:
    """`usets --format json verify paper` at the default cap, in-process."""

    ARGV = ["--format", "json", "verify", "paper"]

    def __init__(self, usets, seed: int):
        self.usets = usets  # the check list is fixed, so the seed changes nothing

    def construct(self) -> None:
        self.usets.catalog.default_catalog()

    def prepare(self) -> None:
        self.reference = oracles.verify_reference()

    def run(self, out: Outcome) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = out.call(self.usets.cli.main, self.ARGV, unit=True)
        try:
            report = json.loads(buf.getvalue())
        except ValueError:
            report = {}
        ref = self.reference
        out.check(code == 0 and report.get("version") == ref["version"]
                  and report.get("summary") == ref["summary"] and "timestamp" in report,
                  f"exit code {code!r}, summary {report.get('summary')!r}")
        results = report.get("results", [])
        for i, expected in enumerate(ref["results"]):
            got = results[i] if i < len(results) else None
            out.check(got == expected, f"check {expected['check_id']}: {got!r}")
        out.check(len(results) == len(ref["results"]), f"{len(results)} checks reported")
        out.elements = sum(r["computed"] for r in results
                           if r["check_id"].startswith("order:") and r["computed"] <= VERIFY_CAP)


class ProfileA10:
    """``invariants.profile`` on A10 with seeded point labels."""

    N = 10

    def __init__(self, usets, seed: int):
        self.usets, self.seed = usets, seed

    def construct(self) -> None:
        rng = random.Random(self.seed)
        perm = self.usets.perm
        relabel = list(range(self.N))
        rng.shuffle(relabel)
        gens = []
        for g in self.usets.construct.alternating_group(self.N).generators:
            images = [0] * self.N
            for i, j in enumerate(g.images):
                images[relabel[i]] = relabel[j]
            gens.append(perm.Permutation(images))
        rng.shuffle(gens)
        self.group = perm.PermGroup(gens)

    def prepare(self) -> None:
        self.sizes = oracles.alt_class_sizes(self.N)

    def run(self, out: Outcome) -> None:
        prof = out.call(self.usets.invariants.profile, self.group, cap=2_000_000, unit=True)
        sizes = self.sizes
        u_values = {n * sizes.count(n) for n in set(sizes)}
        ok = (not isinstance(prof, Exception)
              and list(prof.class_sizes) == sizes
              and prof.group_order == oracles.alt_order(self.N)
              and set(prof.U) == u_values)
        out.check(ok, f"A{self.N} profile {prof!r}")
        out.elements = oracles.alt_order(self.N)


class PatternMatch:
    """Seeded ``match_pattern`` queries on the paper's patterns, interleaved
    with feasibility screens, collision enumerations and PSL(2,l) order
    solves.  No group is built."""

    PATTERNS = (
        "1,rq,2rq,16r,8q", "1,r^2q,8r^3,32q", "1,r^2q,16q,2r^2q,16r^2",
        "1,r^2q,32r^2,2r^3q,64q", "1,rq,16q,16r,4rq", "1,rq,4rq,8rq,8r^2",
        "1,rq,8pq,4qr,8pr", "1,r^2,4r^2,16r", "1,p^2,4p^2,8p^2",
        "1,r^2,4r^2,8pr", "1,2p,8p,16p", "1,2q,8pq,8q,16p", "1,2p,8p,16p,8p^2",
    )
    #: Bounds per number of symbols: the cost grows as pi(bound)^symbols.
    BOUNDS = {1: (100, 150, 200), 2: tuple(range(100, 201, 10)), 3: (100, 150, 200)}
    COLLISION = "1,rq,16q,16r,4rq"

    def __init__(self, usets, seed: int):
        self.usets, self.seed = usets, seed

    def construct(self) -> None:
        pass

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        queries = []
        for text in self.PATTERNS:
            terms = oracles.parse_pattern(text)
            for bound in self.BOUNDS[len(oracles.pattern_symbols(terms))]:
                # one query that must match and one that must miss, so
                # every seed asks for the same mix of work
                queries.append(self._query(rng, text, terms, bound, miss=False))
                queries.append(self._query(rng, text, terms, bound, miss=True))
        rng.shuffle(queries)
        odd = [p for p in range(3, 50) if oracles.is_prime(p)]
        self.ops = []
        for i, query in enumerate(queries):
            self.ops.append(query)
            text = rng.choice(self.PATTERNS)
            terms = oracles.parse_pattern(text)
            values = oracles.evaluate(terms, {s: rng.choice(odd) for s in oracles.pattern_symbols(terms)})
            self.ops.append(("feasibility", values))
            if i % 4 == 0:
                l = rng.randrange(2, 100_000)
                self.ops.append(("solve", l * (l * l - 1) // 2 + rng.randrange(2)))
            if i % 8 == 0:
                self.ops.append(("collision", self._renamed_collision(rng)))

    @staticmethod
    def _query(rng, text, terms, bound, miss):
        symbols = oracles.pattern_symbols(terms)
        primes = [p for p in range(3, bound + 1) if oracles.is_prime(p)]
        while True:
            planted = dict(zip(symbols, rng.sample(primes, len(symbols))))
            values = oracles.evaluate(terms, planted)
            if len(set(values)) == len(values):
                break
        if miss:
            # A value with an odd prime factor above the bound cannot come
            # from primes <= bound and power-of-two coefficients.
            big = rng.choice([p for p in range(bound + 1, 2 * bound) if oracles.is_prime(p)])
            i = rng.choice([k for k, v in enumerate(values) if v > 1])
            values[i] *= big
            return ("match", text, sorted(values), bound, None)
        return ("match", text, sorted(values), bound, oracles.orbit_representative(terms, planted))

    def _renamed_collision(self, rng):
        names = dict(zip("qr", rng.sample("pqr", 2)))
        terms = ["".join(names.get(c, c) for c in t) for t in self.COLLISION.split(",")]
        rng.shuffle(terms)
        return ",".join(terms)

    def run(self, out: Outcome) -> None:
        pat = self.usets.patterns
        for op in self.ops:
            kind = op[0]
            if kind == "match":
                _, text, target, bound, planted = op
                got = out.call(pat.match_pattern, text, target, bound, unit=True)
                terms = oracles.parse_pattern(text)
                if planted is None:
                    ok = got == []
                else:
                    ok = (isinstance(got, list) and planted in got
                          and len({tuple(sorted(a.items())) for a in got}) == len(got)
                          and all(oracles.is_valid_match(terms, set(target), bound, a)
                                  and oracles.orbit_representative(terms, a) == a for a in got))
                out.check(ok, f"match {text} {target} bound {bound}: {got!r}, planted {planted!r}")
            elif kind == "feasibility":
                got = out.call(pat.feasibility_check, op[1])
                ok = not isinstance(got, Exception) and (got.verdict, got.codes) == oracles.feasibility(op[1])
                out.check(ok, f"feasibility {op[1]}: {got!r}")
            elif kind == "solve":
                got = out.call(pat.solve_psl2_order, op[1])
                out.check(got == oracles.psl2_solution(op[1]), f"solve {op[1]}: {got!r}")
            else:
                got = out.call(pat.enumerate_collision_assignments, op[1])
                ok = (isinstance(got, list) and len(got) == oracles.collision_case_count()
                      and all(c.contradiction is not None for c in got))
                out.check(ok, f"collision {op[1]}: {got!r}")


class ConstructBsgs:
    """Build PSL(n,q) and Alt(n), take the order from the BSGS, then sift
    seeded members and non-members."""

    GROUPS = (("PSL", 2, 19), ("PSL", 3, 4), ("PSL", 2, 25), ("PSL", 3, 5),
              ("PSL", 5, 2), ("PSL", 4, 3), ("PSL", 2, 47), ("PSL", 3, 7),
              ("PSL", 6, 2), ("PSL", 3, 8), ("PSL", 2, 81), ("PSL", 4, 4),
              ("PSL", 3, 9), ("PSL", 2, 113),
              ("Alt", 12), ("Alt", 16), ("Alt", 20), ("Alt", 24))
    SIFTS = 12      # members, and as many non-members, per group
    WORD_LENGTH = 24

    def __init__(self, usets, seed: int):
        self.usets, self.seed = usets, seed

    def construct(self) -> None:
        pass

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        # each group's word choices are fixed now; the words themselves
        # need the constructed generators and are formed in run()
        self.choices = []
        for _ in self.GROUPS:
            words = [[rng.randrange(1 << 30) for _ in range(self.WORD_LENGTH)]
                     for _ in range(self.SIFTS)]
            swaps = [rng.randrange(1 << 30) for _ in range(2 * self.SIFTS)]
            order = list(range(2 * self.SIFTS))
            rng.shuffle(order)
            self.choices.append((words, swaps, order))

    def _inputs(self, group, choices):
        """Members are words in the generators; a member times a
        transposition is not a member, because a primitive group that
        contains a transposition is the full symmetric group (Jordan)."""
        words, swaps, order = choices
        gens = [g.images for g in group.generators]
        n = group.degree
        members = []
        for word in words:
            images = tuple(range(n))
            for k in word:
                images = _compose(images, gens[k % len(gens)])
            members.append(images)
        inputs = [(m, True) for m in members]
        for i, m in enumerate(members):
            a = swaps[2 * i] % n
            b = (a + 1 + swaps[2 * i + 1] % (n - 1)) % n
            images = list(m)
            i_a, i_b = images.index(a), images.index(b)
            images[i_a], images[i_b] = b, a
            inputs.append((tuple(images), False))
        perm = self.usets.perm
        return [(perm.Permutation(inputs[i][0]), inputs[i][1]) for i in order]

    def run(self, out: Outcome) -> None:
        construct = self.usets.construct
        for spec, choices in zip(self.GROUPS, self.choices):
            if spec[0] == "PSL":
                group = out.call(construct.psl_group, spec[1], spec[2])
                expected = oracles.psl_order(spec[1], spec[2])
            else:
                group = out.call(construct.alternating_group, spec[1])
                expected = oracles.alt_order(spec[1])
            if isinstance(group, Exception):
                out.check(False, f"{spec}: {group!r}")
                continue
            order = out.call(group.order)
            out.check(order == expected, f"{spec}: order {order!r}, expected {expected}")
            for k, (element, member) in enumerate(self._inputs(group, choices)):
                # building the inputs flushes the caches: the first sift warms them
                got = out.call(group.contains, element, unit=k > 0)
                out.check(got is member, f"{spec}: contains gave {got!r}, expected {member}")


WORKLOADS = {
    "verify-paper": VerifyPaper,
    "profile-a10": ProfileA10,
    "pattern-match": PatternMatch,
    "construct-bsgs": ConstructBsgs,
}
