"""Command-line surface over the library.

Subcommands::

    usets group info <name>
    usets group uset <name>
    usets group classes <name>
    usets catalog list [--k N] [--max-order M]
    usets search --uset 1,55,120,220,264
    usets pattern instantiate --pattern P --assign p=3,q=5,r=11
    usets pattern match --pattern P --target 1,55,... --bound 100
    usets solve-psl2 N
    usets verify paper [--only id,...] [--report PATH]

Global flags: ``--format text|json``, ``--cap N``, ``-v``.  Group names
are accepted in both notations (PSL(2,11) or L2(11), U3(3) or PSU(3,3)).

Exit status: 0 on success (and when all verification checks pass),
1 when any verification check fails, 2 on usage or infrastructure
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .catalog import CatalogError, default_catalog
from .invariants import conjugacy_classes
from .patterns import (
    USetPattern,
    duplicate_values,
    instantiate_pattern,
    match_pattern,
    solve_psl2_order,
)
from .perm import DEFAULT_CAP, GroupTooLargeError, check_cap
from .verify import run_verification


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(text)


def _parse_ints(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise ValueError(f"expected at least one integer, got {text!r}")
    return values


def _parse_assignment(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in text.split(","):
        if not item.strip():
            continue
        sym, _, val = item.partition("=")
        sym = sym.strip()
        if sym not in ("p", "q", "r") or not val.strip().isdigit():
            raise ValueError(f"bad assignment item {item!r} (want p=3,q=5,...)")
        if sym in out:
            raise ValueError(f"symbol {sym!r} is assigned twice")
        out[sym] = int(val)
    return out


def _cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return cap


def _uset_str(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _cmd_group(args: argparse.Namespace) -> int:
    entry = default_catalog().entry(args.name)
    if args.group_cmd == "classes":
        check_cap(entry.expected_order, args.cap, entry.name)
        classes = conjugacy_classes(entry.group(), args.cap)
        rows = [{"size": c.size, "element_order": c.element_order,
                 "representative": c.representative.cycle_string()}
                for c in classes]
        text = "\n".join(
            f"size {r['size']:>8}  element order {r['element_order']:>4}  "
            f"rep {r['representative']}" for r in rows)
        _emit(args, {"name": entry.name, "classes": rows}, text)
        return 0
    prof = entry.profile(args.cap)
    if args.group_cmd == "uset":
        _emit(args, {"name": entry.name, "U": sorted(prof.U)},
              _uset_str(prof.U))
        return 0
    # group info
    payload = {
        "name": entry.name,
        "source": entry.source,
        "degree": entry.group().degree,
        "provenance": entry.provenance,
        **prof.as_dict(),
    }
    text = "\n".join([
        f"name          {entry.name}",
        f"order         {prof.group_order}",
        f"degree        {entry.group().degree}",
        f"source        {entry.source} ({entry.provenance})",
        f"primes        {sorted(prof.pi)} (k{len(prof.pi)})",
        f"classes       {prof.class_count}",
        f"class sizes   {list(prof.class_sizes)}",
        f"V             {list(prof.V)} (rank {prof.rank})",
        f"u map         " + ", ".join(f"u({n})={prof.u_map[n]}" for n in prof.V),
        f"U             {_uset_str(prof.U)}",
    ])
    _emit(args, payload, text)
    return 0


def _cmd_catalog_list(args: argparse.Namespace) -> int:
    entries = default_catalog().entries(k=args.k, max_order=args.max_order)
    rows = [{"name": e.name, "order": e.expected_order, "k": e.k,
             "source": e.source} for e in entries]
    text = "\n".join(
        f"{r['name']:<10} order {r['order']:>8}  k{r['k']}  {r['source']}"
        for r in rows)
    _emit(args, {"groups": rows}, text)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    target = frozenset(_parse_ints(args.uset))
    hits, skipped = default_catalog().search(target, args.cap)
    payload = {"target": sorted(target), "matches": hits, "skipped": skipped}
    text = "\n".join(hits) if hits else "no catalog group has this U-set"
    if skipped:
        text += f"\n(not scanned, above cap: {', '.join(skipped)})"
    _emit(args, payload, text)
    return 0


def _cmd_pattern(args: argparse.Namespace) -> int:
    pattern = USetPattern.parse(args.pattern)
    if args.pattern_cmd == "instantiate":
        assignment = _parse_assignment(args.assign)
        values = instantiate_pattern(pattern, assignment)
        dups = duplicate_values(values)
        payload = {"pattern": str(pattern), "assignment": assignment,
                   "values": values, "duplicates": dups}
        text = _uset_str(values)
        if dups:
            text += f"\nwarning: duplicated values {dups} (not a valid U-set)"
        _emit(args, payload, text)
        return 0
    # match
    target = _parse_ints(args.target)
    matches = match_pattern(pattern, target, args.bound)
    payload = {"pattern": str(pattern), "target": sorted(set(target)),
               "bound": args.bound, "matches": matches}
    text = ("\n".join(" ".join(f"{s}={a[s]}" for s in sorted(a)) for a in matches)
            if matches else "no assignment matches")
    _emit(args, payload, text)
    return 0


def _cmd_solve_psl2(args: argparse.Namespace) -> int:
    l = solve_psl2_order(args.order)
    _emit(args, {"order": args.order, "l": l},
          str(l) if l is not None else "none")
    return 0


def _split_check_ids(text: str) -> list[str]:
    """Split a comma-separated id list, ignoring commas inside parentheses
    (check ids contain group names like ``PSL(2,11)``)."""
    out, buf, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(buf))
            buf = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        buf.append(ch)
    out.append("".join(buf))
    return [tok.strip() for tok in out if tok.strip()]


def _cmd_verify(args: argparse.Namespace) -> int:
    selection = None if args.only is None else _split_check_ids(args.only)
    report = run_verification(selection, cap=args.cap)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_table(verbose=args.verbose))
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usets",
        description="Same-size conjugacy class sets for small simple groups.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--cap", type=_cap, default=DEFAULT_CAP,
                        help=f"largest group order to enumerate, profile or scan, the same "
                             f"for every command (default {DEFAULT_CAP}; at least 1814400 "
                             f"includes A10)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="invariants of one catalog group")
    group_sub = p_group.add_subparsers(dest="group_cmd", required=True)
    for cmd, desc in (("info", "full invariant profile"),
                      ("uset", "the same-size class set U(G)"),
                      ("classes", "conjugacy class table")):
        p = group_sub.add_parser(cmd, help=desc)
        p.add_argument("name")

    p_list = sub.add_parser("catalog", help="list the group catalog")
    list_sub = p_list.add_subparsers(dest="catalog_cmd", required=True)
    p_ll = list_sub.add_parser("list", help="list catalog entries")
    p_ll.add_argument("--k", type=int, default=None,
                      help="filter by number of distinct prime divisors")
    p_ll.add_argument("--max-order", type=int, default=None)

    p_search = sub.add_parser("search", help="find catalog groups by U-set")
    p_search.add_argument("--uset", required=True,
                          help="comma-separated values, e.g. 1,55,120,220,264")

    p_pattern = sub.add_parser("pattern", help="symbolic U-set patterns")
    pattern_sub = p_pattern.add_subparsers(dest="pattern_cmd", required=True)
    p_inst = pattern_sub.add_parser("instantiate", help="evaluate a pattern")
    p_inst.add_argument("--pattern", required=True)
    p_inst.add_argument("--assign", required=True, help="e.g. p=3,q=5,r=11")
    p_match = pattern_sub.add_parser("match", help="fit primes to a target set")
    p_match.add_argument("--pattern", required=True)
    p_match.add_argument("--target", required=True)
    p_match.add_argument("--bound", type=int, default=100)

    p_solve = sub.add_parser("solve-psl2",
                             help="solve l(l^2-1)/2 = N for integer l")
    p_solve.add_argument("order", type=int)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("target", choices=("paper",),
                          help="which suite to run (only the published-value "
                               "suite exists)")
    p_verify.add_argument("--only", default=None,
                          help="comma-separated check ids")
    p_verify.add_argument("--report", default=None, metavar="PATH",
                          help="also write the JSON report here")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "group": _cmd_group,
        "catalog": _cmd_catalog_list,
        "search": _cmd_search,
        "pattern": _cmd_pattern,
        "solve-psl2": _cmd_solve_psl2,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (CatalogError, GroupTooLargeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
