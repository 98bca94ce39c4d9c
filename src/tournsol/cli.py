"""Command line front end.

Exit codes: 0 on success (and on a passing verification or a witness-free
scan), 1 when a verification fails or a scan finds a separation witness,
2 on usage errors, malformed input files, unreadable paths and orders
too large to build.
"""

from __future__ import annotations

import argparse
import sys

from . import t36
from .io import export_dot, format_tournament, parse_tournament, read_tournament
from .search import RULES, random_tournament, scan_separation
from .solutions import banks_witness, bipartisan_set

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tournsol",
        description="Tournament solutions with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a tournament file")
    gen_sub = gen.add_subparsers(dest="target", required=True)
    gen36 = gen_sub.add_parser("paper36", help="the bundled order-36 construction")
    gen36.add_argument("--variant-seed", type=int, default=None, metavar="S",
                       help="reorient the nine outer triangles at random")
    gen36.add_argument("-o", "--output", default="-", metavar="FILE")
    genr = gen_sub.add_parser("random", help="uniformly random tournament")
    genr.add_argument("--n", type=int, required=True, metavar="N")
    genr.add_argument("--seed", type=int, required=True, metavar="S")
    genr.add_argument("-o", "--output", default="-", metavar="FILE")

    solve = sub.add_parser("solve", help="apply a solution concept")
    solve.add_argument("file", nargs="?", default="-",
                       help="tournament file, '-' or omitted for stdin")
    solve.add_argument("--rule", required=True, choices=list(RULES))
    solve.add_argument("--witness", action="store_true",
                       help="with --rule banks: print a chain witness per member")

    verify = sub.add_parser("verify-paper",
                            help="check the order-36 construction claims")
    verify.add_argument("file", nargs="?", default=None,
                        help="tournament file to verify; default: fresh build")
    verify.add_argument("--report", default=None, metavar="OUT",
                        help="write a JSON report")

    scan = sub.add_parser("scan", help="search for rule-separating tournaments")
    scan.add_argument("--rules", required=True, metavar="A,B")
    scan.add_argument("--max-order", type=int, required=True)
    scan.add_argument("--mode", required=True, choices=["exhaustive", "random"])
    scan.add_argument("--samples", type=int, default=None, metavar="K")
    scan.add_argument("--seed", type=int, default=None, metavar="S")

    dot = sub.add_parser("export-dot", help="write a DOT digraph")
    dot.add_argument("file")
    dot.add_argument("-o", "--output", default="-", metavar="OUT")

    orb = sub.add_parser("orbits",
                         help="symmetry orbits of the bundled construction")
    orb.add_argument("file")
    return parser


def _read(path: str):
    if path == "-":
        # Decoded like a file in io.read_tournament, so a stray byte is
        # reported the same way on both paths.
        return parse_tournament(sys.stdin.buffer.read().decode("latin-1"))
    return read_tournament(path)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _render(v: int, labeled: bool) -> str:
    return f"{t36.vertex_label(v)} {v}" if labeled else str(v)


def _cmd_gen(args) -> int:
    if args.target == "paper36":
        if args.variant_seed is None:
            t = t36.build_t36()
        else:
            t = t36.build_t36_variant(t36.random_orientations(args.variant_seed))
    else:
        try:
            t = random_tournament(args.n, args.seed)
        except (OverflowError, MemoryError):  # no list of rows that long
            raise ValueError(f"--n {args.n} is too large to build") from None
    _write(args.output, format_tournament(t))
    return 0


def _cmd_solve(args) -> int:
    if args.witness and args.rule != "banks":
        print("error: --witness applies only to --rule banks", file=sys.stderr)
        return 2
    t = _read(args.file)
    labeled = t36.classify(t) is not None
    if args.rule == "bp":
        support, lottery = bipartisan_set(t)
        for v in sorted(support):
            print(f"{_render(v, labeled)} p={lottery[v]}")
        return 0
    if args.witness:
        for v in range(t.order):
            chain = banks_witness(t, v)
            if chain is not None:
                shown = ",".join(_render(c, labeled) for c in chain) if chain else "(empty)"
                print(f"{_render(v, labeled)} witness={shown}")
        return 0
    for v in sorted(RULES[args.rule](t)):
        print(_render(v, labeled))
    return 0


def _cmd_verify(args) -> int:
    t = _read(args.file) if args.file is not None else t36.build_t36()
    report = t36.verify_t36(t)
    for check in report["checks"]:
        if check["status"] == "skipped":
            print(f"SKIP {check['name']} ({check['details']['reason']})")
        else:
            print(f"{check['status'].upper():4s} {check['name']}")
    statuses = [c["status"] for c in report["checks"]]
    print(f"result: {'PASS' if report['overall_pass'] else 'FAIL'} "
          f"({statuses.count('pass')} passed, {statuses.count('fail')} failed, "
          f"{statuses.count('skipped')} skipped, mode={report['mode']})")
    if args.report is not None:
        import json

        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if report["overall_pass"] else 1


def _cmd_scan(args) -> int:
    rules = tuple(part.strip() for part in args.rules.split(","))
    if len(rules) != 2 or not all(rules):
        print("error: --rules expects two comma-separated rule names", file=sys.stderr)
        return 2
    if args.mode == "exhaustive" and (args.samples is not None or args.seed is not None):
        print("error: --samples/--seed apply only to --mode random", file=sys.stderr)
        return 2
    try:
        outcome = scan_separation(
            rules, args.max_order, args.mode,  # type: ignore[arg-type]
            sample_count=args.samples if args.samples is not None else 1000,
            seed=args.seed if args.seed is not None else 0,
        )
    except (OverflowError, MemoryError):  # exhaustive orders stop at 8
        raise ValueError(f"--max-order {args.max_order} is too large to build") from None
    for order, count in outcome.examined.items():
        if outcome.labeled_counts is not None:
            print(f"order {order}: {count} classes covering "
                  f"{outcome.labeled_counts[order]} labelled tournaments")
        else:
            print(f"order {order}: {count} samples")
    for w in outcome.witnesses:
        a, b = w.rules
        sa, sb = w.choice_sets
        print(f"witness (order {w.tournament.order}): {a}={list(sa)} disjoint from {b}={list(sb)}")
        sys.stdout.write(format_tournament(w.tournament))
    print(f"witnesses: {len(outcome.witnesses)}")
    return 1 if outcome.witnesses else 0


def _cmd_export_dot(args) -> int:
    t = _read(args.file)
    if t36.classify(t) is not None:
        labels = {v: t36.vertex_label(v) for v in range(36)}
        clusters = t36.dot_clusters()
    else:
        labels = None
        clusters = None
    _write(args.output, export_dot(t, labels=labels, clusters=clusters))
    return 0


def _cmd_orbits(args) -> int:
    t = _read(args.file)
    if t36.classify(t) != "canonical":
        print("error: orbits requires the bundled order-36 tournament "
              "(gen paper36 without --variant-seed)", file=sys.stderr)
        return 2
    parts = t36.orbits(t, t36.symmetry_generators())
    for idx, part in enumerate(parts, start=1):
        members = " ".join(str(v) for v in sorted(part))
        print(f"orbit {idx} (size {len(part)}): {members}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify-paper": _cmd_verify,
    "scan": _cmd_scan,
    "export-dot": _cmd_export_dot,
    "orbits": _cmd_orbits,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    # ParseError and InvariantError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
