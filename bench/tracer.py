"""In-memory spans around the package's layer entry points.

Only the traced worker installs this.  Each wrapped entry point opens a
span on entry and closes it on return; a span's self time is its
duration minus the time covered by its child spans, so the self times
of all spans in a pass add up to the time the pass spent inside the
package.  The same boundaries record exact counts (elements enumerated,
conjugations, base lengths, assignments tried) and how far the
process's peak RSS rose while each layer ran.

Most boundaries are public functions or methods.  Three are not, because
the public path offers none: ``PermGroup._element_images`` (the
enumeration that ``conjugacy_classes`` calls directly),
``perm._schreier_sims`` (the BSGS build behind the lazy ``bsgs``
property) and ``patterns.instantiate_pattern`` as seen from inside
``match_pattern`` (one call per assignment tried).  A missing boundary is
skipped, so its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import defaultdict


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _distinct_generators(group) -> int:
    identity = tuple(range(group.degree))
    return len({g.images for g in group.generators} - {identity})


class Tracer:
    """Span stack, per-span-name self times and RSS rises, and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_s, rss_at_start, child_rss]
        self.self_s: dict[str, float] = defaultdict(float)
        self.rss_mb: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, _maxrss_mb(), 0.0])

    def exit(self, name: str | None = None) -> None:
        """Close the innermost span, optionally booking it under another name."""
        opened, start, child_s, rss0, child_rss = self.stack.pop()
        end = self.clock()
        rise = _maxrss_mb() - rss0
        name = name or opened
        self.self_s[name] += end - start - child_s
        self.rss_mb[name] += rise - child_rss
        if self.stack:
            self.stack[-1][2] += end - start
            self.stack[-1][4] += rise

    def check_done(self, check_id: str) -> None:
        """A verification check produced its result: close its span and
        open the next one.  The first check's span starts when
        ``run_verification`` is entered, so it also carries building the
        check list."""
        if self.stack and self.stack[-1][0] == "verify.check":
            self.exit("verify.check:" + check_id.split(":")[0])
            self.counts["verify.checks"] += 1
            self.enter("verify.check")

    # -- installation ---------------------------------------------------------

    def install(self, usets) -> None:
        """Wrap the layer entry points of an imported ``usets`` package."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "usets" or k.startswith("usets."))]
        perm, inv, pat = usets.perm, usets.invariants, usets.patterns
        counts = self.counts

        def on_group(_args, group):
            counts["construct.points"] += group.degree
            counts["construct.generators"] += len(group.generators)

        def on_bsgs(_args, bsgs):
            counts["perm.bsgs.base_len"] += len(bsgs.base)
            counts["perm.bsgs.strong_gens"] += len(bsgs.strong_generators)

        def on_sift(_args, _result):
            counts["perm.sift.calls"] += 1

        def on_enumerate(args, elements):
            counts["perm.enumerate.elements"] += len(elements)
            counts["perm.enumerate.compositions"] += len(elements) * _distinct_generators(args[0])

        def on_classes(args, classes):
            order = sum(c.size for c in classes)
            counts["invariants.classes.count"] += len(classes)
            counts["invariants.classes.conjugations"] += order * _distinct_generators(args[0])

        def on_profile(_args, _prof):
            counts["invariants.profile.calls"] += 1

        def on_centralizer(args, _count):
            counts["invariants.centralizer.pairs"] += args[0].order() ** 2

        def on_match(_args, matches):
            counts["patterns.match.matches"] += len(matches)

        for module, attr, span, after in (
                (usets.construct, "psl_group", "construct", on_group),
                (usets.construct, "alternating_group", "construct", on_group),
                (perm, "_schreier_sims", "perm.bsgs", on_bsgs),
                (inv, "conjugacy_classes", "invariants.classes", on_classes),
                (inv, "profile", "invariants.profile", on_profile),
                (inv, "centralizer_count", "invariants.centralizer", on_centralizer),
                (pat, "match_pattern", "patterns.match", on_match),
                (pat, "enumerate_collision_assignments", "patterns.collision", None),
                (pat, "feasibility_check", "patterns.feasibility", None),
                (pat, "solve_psl2_order", "patterns.solve", None),
                (usets.cli, "main", "cli", None)):
            if hasattr(module, attr):
                self._replace(modules, getattr(module, attr), self._wrap(getattr(module, attr), span, after))
        for cls, attr, span, after in (
                (perm.BSGS, "sift", "perm.sift", on_sift),
                (perm.PermGroup, "_element_images", "perm.enumerate", on_enumerate),
                (usets.catalog.CatalogEntry, "group", "catalog.group", None)):
            if hasattr(cls, attr):
                setattr(cls, attr, self._wrap(getattr(cls, attr), span, after))
        self._install_catalog_profile(usets.catalog.CatalogEntry)
        self._install_verify(modules, usets.verify)
        if hasattr(pat, "instantiate_pattern"):
            instantiate = pat.instantiate_pattern

            def counted(*args, **kwargs):
                counts["patterns.match.assignments"] += 1
                return instantiate(*args, **kwargs)
            pat.instantiate_pattern = counted  # only match_pattern's own calls see this

    def _wrap(self, fn, span, after):
        def wrapper(*args, **kwargs):
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    @staticmethod
    def _replace(modules, original, replacement) -> None:
        # modules bind imported names separately (``from .perm import ...``)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)

    def _install_catalog_profile(self, entry_cls) -> None:
        """A catalog profile request is a hit when it computes no profile."""
        if not hasattr(entry_cls, "profile"):
            return
        original, counts = entry_cls.profile, self.counts

        def profile(entry, *args, **kwargs):
            before = counts["invariants.profile.calls"]
            self.enter("catalog.profile")
            try:
                return original(entry, *args, **kwargs)
            finally:
                self.exit()
                counts["catalog.profile.calls"] += 1
                counts["catalog.profile.hits"] += counts["invariants.profile.calls"] == before
        entry_cls.profile = profile

    def _install_verify(self, modules, verify) -> None:
        """Spans for ``run_verification`` and for each check inside it.

        Checks are not separate entry points; each one ends by creating
        its ``CheckResult``, so a subclass marks the boundary.
        """
        if not (hasattr(verify, "run_verification") and hasattr(verify, "CheckResult")):
            return
        original, tracer = verify.run_verification, self

        class TracedCheckResult(verify.CheckResult):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.check_done(self.check_id)

        def run_verification(*args, **kwargs):
            self.enter("verify.run")
            self.enter("verify.check")
            try:
                return original(*args, **kwargs)
            finally:
                self.exit("verify.run")  # the stretch after the last check
                self.exit()
        verify.CheckResult = TracedCheckResult
        self._replace(modules, original, run_verification)
