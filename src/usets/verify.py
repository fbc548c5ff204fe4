"""Verification harness: recompute published invariants from scratch.

Every check compares an exactly computed integer quantity against an
expected value whose origin is tagged:

* ``published``  - a value taken verbatim from published tables of
  same-size class sets and related screenings;
* ``formula``    - a classical order formula evaluated independently;
* ``derived``    - obtained here by exhaustive enumeration or search;
* ``internal``   - a self-consistency cross-check between two
  independent computation routes inside this package.

The checks form one table, built by ``_rows``: each :class:`CheckRow`
holds the check id, the claim, the expected value's source, the catalog
groups it needs and a ``run`` that maps their profiles to ``(computed,
expected[, note])``.  One runner, ``_outcome``, profiles the row's groups
at the configured cap, runs it and compares the two values;
``run_verification`` turns each outcome into a :class:`CheckResult`.

The cap is the package's one cap, :data:`usets.perm.DEFAULT_CAP` unless
given.  Every row that profiles, enumerates or scans a group lists that
group, so a group above the cap makes the row ``not_checked`` (never
silently skipped, never a pass on an uncomputed group), as are the listed
k4 groups the catalog does not hold.  Reports are deterministic:
running twice gives byte-identical output apart from the timestamp.
"""

from __future__ import annotations

import itertools
import json
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, NamedTuple

from . import __version__
from .catalog import Catalog, CatalogError, _canonical, _natural_key, default_catalog
from .invariants import InvariantProfile, centralizer_count
from .patterns import (
    USetPattern,
    admissible_size_options,
    enumerate_collision_assignments,
    factorize,
    feasibility_check,
    instantiate_pattern,
    is_prime_power,
    match_pattern,
    parse_term,
    primes_up_to,
    solve_psl2_order,
)
from .perm import DEFAULT_CAP, GroupTooLargeError, PermGroup

PASS, FAIL, NOT_CHECKED = "pass", "fail", "not_checked"

# Published same-size class sets for the catalog groups (golden table).
GOLDEN_USETS: dict[str, frozenset[int]] = {
    "A5": frozenset({1, 15, 20, 24}),
    "A6": frozenset({1, 45, 80, 90, 144}),
    "PSL(2,7)": frozenset({1, 21, 42, 48, 56}),
    "PSL(2,8)": frozenset({1, 63, 216, 224}),
    "PSL(2,9)": frozenset({1, 45, 80, 90, 144}),
    "PSL(2,11)": frozenset({1, 55, 120, 220, 264}),
    "PSL(2,17)": frozenset({1, 153, 288, 918, 1088}),
    "PSL(3,3)": frozenset({1, 104, 117, 624, 936, 1728, 2106}),
    "U3(3)": frozenset({1, 56, 189, 378, 672, 1512, 1728}),
    "U4(2)": frozenset({1, 45, 80, 240, 270, 480, 540, 720, 1440,
                        3240, 5184, 5760, 6480}),
}

# Published symbolic shapes of those sets, with the assignment realizing
# each; the harness re-derives the assignment by bounded search.
PUBLISHED_USET_SHAPES: dict[str, tuple[str, dict[str, int]]] = {
    "PSL(2,7)": ("1,rq,2rq,16r,8q", {"q": 7, "r": 3}),
    "PSL(2,8)": ("1,r^2q,8r^3,32q", {"q": 7, "r": 3}),
    "PSL(2,9)": ("1,r^2q,16q,2r^2q,16r^2", {"q": 5, "r": 3}),
    "PSL(2,17)": ("1,r^2q,32r^2,2r^3q,64q", {"q": 17, "r": 3}),
}

#: The eight simple groups whose order has exactly three prime divisors.
K3_GROUPS = ("A5", "A6", "PSL(2,7)", "PSL(2,8)", "PSL(2,17)",
             "PSL(3,3)", "U3(3)", "U4(2)")
#: Catalog copies of listed groups, by the exceptional isomorphisms.
COPIES = {"PSL(2,4)": "A5", "PSL(2,5)": "A5", "PSL(2,9)": "A6"}

#: The simple groups with four prime divisors screened for |U(G)| = 5, in
#: report order: the six the catalog builds, then those it does not, whose
#: screenings are reported as not_checked.
K4_GROUPS = (
    "A9", "A10", "M11", "PSL(2,11)", "PSL(2,13)", "PSL(3,4)",
    "J2", "Sz(8)", "Sz(32)", "3D4(2)", "F4(2)'", "G2(3)",
    "O5(4)", "O5(5)", "O5(7)", "O5(9)", "O7(2)", "O8+(2)",
    "L3(5)", "L3(7)", "L3(8)", "L3(17)", "L4(3)",
    "U3(4)", "U3(5)", "U3(7)", "U3(9)", "U4(3)", "U5(2)",
)

CONJUGATE_RANK_EXPECTATIONS = {
    "PSL(2,7)": 4, "PSL(2,9)": 4, "PSL(2,11)": 4, "PSL(2,13)": 4,
    "PSL(2,17)": 4,
    # q = 8 is the even-characteristic member of the k3 family; its rank
    # is 3, which keeps the rank-4 classification consistent.
    "PSL(2,8)": 3,
}

#: Candidate sets ruled out by the Burnside/divisibility screen alone.
ELIMINATION_BURNSIDE = ("1,r^2,4r^2,16r", "1,p^2,4p^2,8p^2", "1,r^2,4r^2,8pr")
#: Candidate sets ruled out by the parity (even order) screen.
ELIMINATION_PARITY = ("1,2p,8p,16p", "1,2q,8pq,8q,16p", "1,2p,8p,16p,8p^2")
ELIMINATION_PRIME_BOUND = 50

#: Count terms of the five-value candidate set whose collision analysis
#: shows all class sizes must differ, with the published per-count
#: admissible size lists and the published number of collision cases.
COLLISION_PATTERN = "1,rq,16q,16r,4rq"
PUBLISHED_COLLISION_OPTIONS = {
    "1": ("1",),
    "rq": ("rq",),
    "16q": ("2q", "4q", "8q", "16q"),
    "16r": ("2r", "4r", "8r", "16r"),
    "4rq": ("2r", "4r", "2q", "4q", "rq", "2rq", "4rq"),
}
PUBLISHED_COLLISION_CASE_COUNT = 31

#: Five-term shape that matches no k3 group's class set.
K3_ELIMINATION_PATTERN = "1,rq,4rq,8rq,8r^2"

CHARACTERIZATION_PATTERN = "1,rq,8pq,4qr,8pr"
CHARACTERIZATION_TARGET = GOLDEN_USETS["PSL(2,11)"]
CHARACTERIZATION_ASSIGNMENT = {"p": 3, "q": 5, "r": 11}

#: PSL(2,p) members checked for the order formula plus a class of size
#: (p^2 - 1)/gcd(2, p-1); p = 7 is excluded from that classification.
ORDER_AND_CLASS_PRIMES = (5, 11, 13, 17)


class _CheckResultFields(NamedTuple):
    check_id: str
    claim: str
    status: str
    computed: Any = None
    expected: Any = None
    expected_source: str = ""
    note: str = ""


class CheckResult(_CheckResultFields):
    """One check's outcome, immutable, with its fields in report order:
    ``status`` is "pass", "fail" or "not_checked", and ``expected_source``
    "published", "formula", "derived" or "internal"."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        """Does nothing, so that a subclass which extends ``__init__`` can
        pass its arguments on with ``super().__init__(*args, **kwargs)``;
        ``object.__init__`` would refuse them."""


class VerificationReport(NamedTuple):
    """The check results in report order, with the toolkit version and the
    time of the run."""

    version: str
    timestamp: str
    results: list[CheckResult]

    @property
    def summary(self) -> dict[str, int]:
        counts = {PASS: 0, FAIL: 0, NOT_CHECKED: 0}
        for r in self.results:
            counts[r.status] += 1
        return counts

    @property
    def all_passed(self) -> bool:
        return self.summary[FAIL] == 0

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(f"no check {check_id!r} in this report")

    def as_dict(self) -> dict:
        """The report as JSON-ready data.  Rows are shallow dicts, keyed in
        field order, that share their values with the results."""
        return {
            "version": self.version,
            "timestamp": self.timestamp,
            "summary": self.summary,
            "results": [r._asdict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    def format_table(self, verbose: bool = False) -> str:
        lines = []
        width = max(len(r.check_id) for r in self.results) if self.results else 10
        for r in self.results:
            tag = {PASS: "PASS", FAIL: "FAIL", NOT_CHECKED: "SKIP"}[r.status]
            line = f"{tag:5} {r.check_id:<{width}}"
            if r.status == FAIL:
                line += f"  computed={r.computed!r} expected={r.expected!r}"
                line += f"  [{r.note}]" if r.note else ""
            elif r.status == NOT_CHECKED:
                line += f"  [{r.note}]"
            elif verbose:
                detail = r.note or f"computed={r.computed!r}"
                line += f"  {detail}"
            lines.append(line)
        s = self.summary
        lines.append(
            f"{s[PASS]} passed, {s[FAIL]} failed, {s[NOT_CHECKED]} not checked "
            f"({len(self.results)} checks, toolkit {self.version})")
        return "\n".join(lines)


class CheckRow(NamedTuple):
    """One line of the check table.

    ``run`` receives the profiles of ``groups``, in order, and returns
    ``(computed, expected)`` or ``(computed, expected, note)``; the check
    passes when the two are equal.  ``run=None`` marks a check with no
    construction shipped.
    """

    check_id: str
    claim: str
    source: str
    run: Callable[..., tuple] | None
    groups: tuple[str, ...] = ()


NO_DATA_NOTE = ("no generator data shipped for this group; outside the "
                "constructible subset, published screening not recomputed")

#: Checks run on every catalog group: id family, claim (``{g}`` stands for
#: the group), expected-value source, and ``run`` on the group's profile.
PER_GROUP_ROWS = (
    ("order-identity", "the counts u(n) of {g} sum to the group order", "internal",
     lambda p: (sum(p.u_multiset()), p.group_order)),
    ("divisibility", "every class size n of {g} divides its count u(n)", "derived",
     lambda p: (sorted(n for n in p.V if p.u_map[n] % n), [])),
    ("burnside", "{g} is simple, so no class size above 1 is a prime power", "derived",
     lambda p: (sorted(n for n in p.V if is_prime_power(n)), [])),
    ("prime-set", "{g} has trivial center, so the primes dividing the order are "
     "exactly those dividing some class size", "derived",
     lambda p: (sorted({q for n in p.V for q in factorize(n)}), sorted(p.pi))),
    ("center", "{g} has exactly one element in classes of size 1", "derived",
     lambda p: (p.u_map.get(1), 1)),
    ("feasibility", "the count multiset of {g} passes every necessary condition "
     "(a realized set can never be rejected)", "derived",
     lambda p: (feasibility_check(p.u_multiset()).verdict, "POSSIBLE")),
)


def _semiprimes(prof: InvariantProfile) -> list[int]:
    return sorted(u for u in prof.U if sorted(factorize(u).values()) == [1, 1])


def _collision_options() -> tuple:
    pat = USetPattern.parse(COLLISION_PATTERN)
    got = {str(t): tuple(sorted(str(o) for o in admissible_size_options(t)))
           for t in pat.terms}
    expected = {str(parse_term(t)): tuple(sorted(str(parse_term(o)) for o in opts))
                for t, opts in PUBLISHED_COLLISION_OPTIONS.items()}
    return got, expected


def _collision_screen() -> tuple:
    cases = enumerate_collision_assignments(COLLISION_PATTERN)
    unrefuted = ["{" + ",".join(map(str, c.sizes)) + "}" for c in cases if c.contradiction is None]
    note = (f"systematic enumeration yields {len(cases)} collision cases; "
            f"the published case list shows {PUBLISHED_COLLISION_CASE_COUNT} "
            f"(one case, sizes {{1,rq,2q,2r,rq}}, is omitted there but is "
            f"refuted the same way)")
    return ({"cases": len(cases), "unrefuted": unrefuted},
            {"cases": 32, "unrefuted": []}, note)


def _eliminate(shape: str, code: str, odd_primes: list[int]) -> tuple:
    pat = USetPattern.parse(shape)
    symbols = pat.symbols
    outcomes = set()
    for combo in itertools.product(odd_primes, repeat=len(symbols)):
        verdict = feasibility_check(
            instantiate_pattern(pat, dict(zip(symbols, combo))))
        outcomes.add((verdict.verdict, verdict.codes))
    return sorted(outcomes), [("INFEASIBLE", (code,))]


def _order_shape(l: int) -> tuple:
    primes = sorted(factorize(l * (l * l - 1)))
    big = [p for p in primes if p > 3]
    computed = {"primes": primes, "large_distinct": big}
    expected = {"primes": [2, 3] + big, "large_distinct": big}
    return computed, expected if len(big) == 2 else {"primes": None}


def _uset_uniqueness(catalog: Catalog, cap: int) -> tuple:
    matches, skipped = catalog.search(CHARACTERIZATION_TARGET, cap)
    note = f"groups above the cap, not scanned: {skipped}" if skipped else ""
    return matches, ["PSL(2,11)"], note


def _centralizer_counts(group: PermGroup, cap: int) -> tuple:
    first = centralizer_count(group, cap)
    # the same group on the points relabelled i -> n-1-i: other element
    # tuples, so another chain, other draws and other C(x) generators
    n = group.degree
    mirrored = PermGroup([[n - 1 - x for x in reversed(g.images)] for g in group.generators])
    second = centralizer_count(mirrored, cap)
    return first, second, f"|Cent(PSL(2,11))| = {first}"


def _rows(catalog: Catalog, cap: int) -> list[CheckRow]:
    """The check table, in report order."""
    rows: list[CheckRow] = []

    # -- golden table of same-size class sets ------------------------------
    for name, expected in GOLDEN_USETS.items():
        rows.append(CheckRow(
            f"uset:{name}", f"computed-from-scratch U({name}) equals the published set",
            "published", lambda p, e=expected: (sorted(p.U), sorted(e)), (name,)))

    # -- published symbolic shapes of those sets ---------------------------
    for name, (shape, assignment) in PUBLISHED_USET_SHAPES.items():
        rows.append(CheckRow(
            f"uset-shape:{name}", f"U({name}) matches the published symbolic shape "
            f"{{{shape}}} for a unique prime assignment below 100", "published",
            lambda p, s=shape, a=assignment: (match_pattern(s, p.U, bound=100), [a]),
            (name,)))

    # -- per-group arithmetic invariants -----------------------------------
    for name in catalog.names():
        entry = catalog.entry(name)
        rows.append(CheckRow(
            f"order:{name}", f"computed order of {name} equals {entry.provenance}",
            "formula", lambda e=entry: (e.group().order(), e.expected_order)))
        rows += [CheckRow(f"{family}:{name}", claim.format(g=name), source, run, (name,))
                 for family, claim, source, run in PER_GROUP_ROWS]

    # -- conjugate type rank ------------------------------------------------
    for name, rank in CONJUGATE_RANK_EXPECTATIONS.items():
        rows.append(CheckRow(
            f"rank:{name}", f"conjugate type rank of {name} equals {rank}",
            "derived", lambda p, r=rank: (p.rank, r), (name,)))

    # -- prime-divisor screenings ------------------------------------------
    held = {_canonical(name) for name in K4_GROUPS} & set(catalog.names())
    rows.append(CheckRow(
        "k3-screen", "catalog members whose order has exactly three prime "
        f"divisors are the published eight (with {', '.join(COPIES)} as "
        "isomorphic copies)", "published",
        lambda: ([e.name for e in catalog.entries(k=3)],
                 sorted(K3_GROUPS + tuple(COPIES), key=_natural_key))))
    rows.append(CheckRow(
        "k4-screen", "catalog members whose order has exactly four prime divisors",
        "derived", lambda: ([e.name for e in catalog.entries(k=4)],
                            sorted(held, key=_natural_key))))

    # -- collision analysis of the five-value candidate set -----------------
    rows.append(CheckRow(
        "collision-options", "admissible class sizes derived for each count of "
        f"{{{COLLISION_PATTERN}}} equal the published lists", "published",
        _collision_options))
    rows.append(CheckRow(
        "collision-screen", "every size assignment with a repeated class size is "
        "symbolically contradictory, so all class sizes differ", "derived",
        _collision_screen))

    # -- eliminations of symbolic candidate sets ----------------------------
    odd_primes = [p for p in primes_up_to(ELIMINATION_PRIME_BOUND) if p > 2]
    for shape in ELIMINATION_BURNSIDE + ELIMINATION_PARITY:
        code = "burnside" if shape in ELIMINATION_BURNSIDE else "parity"
        rows.append(CheckRow(
            f"eliminate:{shape}", f"{{{shape}}} is infeasible for a simple group, by "
            f"the {code} condition, for all odd-prime values below "
            f"{ELIMINATION_PRIME_BOUND}", "published",
            lambda s=shape, c=code: _eliminate(s, c, odd_primes)))

    # -- no count in these sets is a product of two distinct primes ---------
    for name in ("A6", "PSL(2,17)"):
        rows.append(CheckRow(
            f"no-semiprime:{name}", f"no member of U({name}) is a product of two "
            f"distinct primes, so the five-count shape with second count rq "
            f"cannot match", "published", lambda p: (_semiprimes(p), []), (name,)))

    rows.append(CheckRow(
        "pattern-no-match:PSL(2,7)", f"{{{CHARACTERIZATION_PATTERN}}} does not "
        f"match U(PSL(2,7)) for any primes below 100", "derived",
        lambda p: (match_pattern(CHARACTERIZATION_PATTERN, p.U, 100), []),
        ("PSL(2,7)",)))
    rows.append(CheckRow(
        "k3-uset-elimination", f"{{{K3_ELIMINATION_PATTERN}}} matches the class "
        f"set of none of the eight three-prime simple groups (primes below 100)",
        "published",
        lambda *profs: ([name for name, p in zip(K3_GROUPS, profs)
                         if match_pattern(K3_ELIMINATION_PATTERN, p.U, 100)], []),
        K3_GROUPS))

    # -- |U(G)| = 5 screening over four-prime groups ------------------------
    for name in K4_GROUPS:
        five = name in ("PSL(2,11)", "PSL(2,13)")
        rows.append(CheckRow(
            f"size5:{name}", f"{name} has {'exactly' if five else 'not'} five "
            f"distinct same-size class counts", "published",
            lambda p, n=name, f=five: (len(p.U) == 5, f, f"|U({n})| = {len(p.U)}"),
            (name,)) if _canonical(name) in held else CheckRow(
            f"size5:{name}", f"published screening reports |U({name})| != 5",
            "published", None))

    for l in (11, 13):
        rows.append(CheckRow(
            f"order-shape:PSL(2,{l})", f"q(q^2-1) for q={l} factors as gcd(2,q-1) "
            f"times a {{2,3,s,t}}-number with s,t > 3 distinct primes", "derived",
            lambda l=l: _order_shape(l)))

    # -- order formula plus the distinguished class size --------------------
    for q in ORDER_AND_CLASS_PRIMES:
        special = (q * q - 1) // (2 if q % 2 else 1)
        rows.append(CheckRow(
            f"order-and-class:PSL(2,{q})", f"PSL(2,{q}) has order "
            f"p(p^2-1)/gcd(2,p-1) and a class of size {special}", "formula",
            lambda p, q=q, s=special: (
                {"order": p.group_order, "has_special_class": s in p.V},
                {"order": q * (q * q - 1) // 2, "has_special_class": True}),
            (f"PSL(2,{q})",)))

    # -- the characterization endgame ---------------------------------------
    rows.append(CheckRow(
        "psl2-order-solve", "l(l^2-1)/2 = 660 has the unique solution l = 11",
        "derived", lambda: (solve_psl2_order(660), 11)))
    rows.append(CheckRow(
        "uset-uniqueness", f"within the catalog (at the configured cap), exactly "
        f"PSL(2,11) has U(G) = {sorted(CHARACTERIZATION_TARGET)}", "published",
        lambda _: _uset_uniqueness(catalog, cap), ("PSL(2,11)",)))
    rows.append(CheckRow(
        "prime-match-uniqueness", f"{{{CHARACTERIZATION_PATTERN}}} matches "
        f"{sorted(CHARACTERIZATION_TARGET)} only at p=3, q=5, r=11 (primes below "
        f"100)", "derived",
        lambda: (match_pattern(CHARACTERIZATION_PATTERN, CHARACTERIZATION_TARGET, 100),
                 [CHARACTERIZATION_ASSIGNMENT])))

    # -- cross-validation via exceptional isomorphisms ----------------------
    for b, a in COPIES.items():
        rows.append(CheckRow(
            f"profile-match:{a}={b}", f"{a} and {b} are isomorphic, so their "
            f"independently computed invariant profiles coincide", "derived",
            lambda pa, pb: (pa.as_dict(), pb.as_dict()), (a, b)))

    # -- centralizer count (recorded value, determinism cross-check) --------
    rows.append(CheckRow(
        "centralizer-count:PSL(2,11)", "the number of distinct centralizers of "
        "PSL(2,11) is well defined: two element orderings agree (no published "
        "value)", "internal",
        lambda _: _centralizer_counts(catalog.get("PSL(2,11)"), cap), ("PSL(2,11)",)))
    return rows


def _outcome(row: CheckRow, catalog: Catalog, cap: int) -> tuple:
    """``(status, computed, expected, source, note)`` of one row: profile
    its groups at ``cap``, run it and compare.  A group above a cap makes
    the row not_checked, and a catalog failure (a built order that is not
    the declared one) or a RuntimeError (two routes of a computation that
    disagree, as a sampled class size with no enumerated class) makes it
    fail; the error message is the note."""
    if row.run is None:
        return NOT_CHECKED, None, None, "", NO_DATA_NOTE
    try:
        computed, expected, *note = row.run(
            *[catalog.entry(name).profile(cap) for name in row.groups])
    except GroupTooLargeError as exc:
        return NOT_CHECKED, None, None, "", str(exc)
    except (CatalogError, RuntimeError) as exc:
        return FAIL, None, None, row.source, str(exc)
    status = PASS if computed == expected else FAIL
    return status, computed, expected, row.source, note[0] if note else ""


def run_verification(selection: Iterable[str] | None = None, *,
                     cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run the published-value checks on :func:`default_catalog` and
    return a structured report.

    ``selection`` restricts the run to the given check ids (unknown ids,
    or none at all, raise).  Groups whose order exceeds ``cap`` surface as
    not_checked.
    """
    catalog = default_catalog()
    rows = _rows(catalog, cap)
    ids = [row.check_id for row in rows]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate check ids in the check table")
    if selection is not None:
        wanted = set(selection)
        if not wanted:
            raise ValueError("no check ids selected")
        unknown = wanted - set(ids)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
        rows = [row for row in rows if row.check_id in wanted]
    # the timestamp comes first; each CheckResult is created once its check's work is done
    return VerificationReport(
        __version__, datetime.now(timezone.utc).isoformat(timespec="seconds"),
        [CheckResult(row.check_id, row.claim, *_outcome(row, catalog, cap)) for row in rows])
