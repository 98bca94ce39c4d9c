"""Command line front end.

Exit codes: 0 on success (and on a passing verification or a witness-free
scan), 1 when a verification fails or a scan finds a separation witness,
2 on usage errors, malformed input files, unreadable paths and orders
too large to build.  An exit-2 run prints nothing on stdout and, on
stderr, argparse's usage text or the one ``error:`` line ``main`` writes.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import t36
from .io import export_dot, format_tournament, parse_tournament, read_tournament
from .search import RULES, random_tournament, scan_separation
from .solutions import banks_witness, bipartisan_set

__all__ = ["main"]


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# Every command with its help line and either its subcommands or its
# arguments, each as given to argparse's ``add_argument``; positionals
# come first and an option's long flag comes last.  ``_build_parser``
# and ``_parse_plain`` both read this table.
_COMMANDS = {
    "gen": ("generate a tournament file", {
        "paper36": ("the bundled order-36 construction", [
            _arg("--variant-seed", type=int, default=None, metavar="S",
                 help="reorient the nine outer triangles at random"),
            _arg("-o", "--output", default="-", metavar="FILE"),
        ]),
        "random": ("uniformly random tournament", [
            _arg("--n", type=int, required=True, metavar="N"),
            _arg("--seed", type=int, required=True, metavar="S"),
            _arg("-o", "--output", default="-", metavar="FILE"),
        ]),
    }),
    "solve": ("apply a solution concept", [
        _arg("file", nargs="?", default="-", help="tournament file, '-' or omitted for stdin"),
        _arg("--rule", required=True, choices=list(RULES)),
        _arg("--witness", action="store_true",
             help="with --rule banks: print a chain witness per member"),
    ]),
    "verify-paper": ("check the order-36 construction claims", [
        _arg("file", nargs="?", default=None,
             help="tournament file to verify; default: fresh build"),
        _arg("--report", default=None, metavar="OUT", help="write a JSON report"),
    ]),
    "scan": ("search for rule-separating tournaments", [
        _arg("--rules", required=True, metavar="A,B"),
        _arg("--max-order", type=int, required=True),
        _arg("--mode", required=True, choices=["exhaustive", "random"]),
        _arg("--samples", type=int, default=None, metavar="K"),
        _arg("--seed", type=int, default=None, metavar="S"),
    ]),
    "export-dot": ("write a DOT digraph", [
        _arg("file"),
        _arg("-o", "--output", default="-", metavar="OUT"),
    ]),
    "orbits": ("symmetry orbits of the bundled construction", [
        _arg("file"),
    ]),
}
# Where the command names are stored, by depth.
_COMMAND_DESTS = ("command", "target")


def _build_parser():
    """The argparse parser of ``_COMMANDS``, which prints help and usage errors."""
    import argparse

    def add_commands(parser, commands, depth):
        sub = parser.add_subparsers(dest=_COMMAND_DESTS[depth], required=True)
        for name, (help_text, spec) in commands.items():
            child = sub.add_parser(name, help=help_text)
            if isinstance(spec, dict):
                add_commands(child, spec, depth + 1)
            else:
                for flags, kwargs in spec:
                    child.add_argument(*flags, **kwargs)

    parser = argparse.ArgumentParser(
        prog="tournsol",
        description="Tournament solutions with exact arithmetic.",
    )
    add_commands(parser, _COMMANDS, 0)
    return parser


def _value(kwargs: dict, token: str):
    """``token`` typed and checked as argparse would, or None if it might refuse it."""
    if token[:1] == "-":  # argparse may take it for an option
        return None
    try:
        value = kwargs["type"](token) if "type" in kwargs else token
    except ValueError:
        return None
    return value if value in kwargs.get("choices", (value,)) else None


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for ``argv``, if ``argv`` is plain; else None.

    Plain means the command names, then positionals, then each option
    spelled exactly once as its own token, with its value in the next
    token, every value well formed and no value starting with '-'.
    Anything else, help and every usage error included, is left to
    argparse, so its text stays argparse's.  Never prints or exits.
    """
    values = {}
    spec = _COMMANDS
    i = 0
    for dest in _COMMAND_DESTS:
        if not isinstance(spec, dict):
            break
        if i == len(argv) or argv[i] not in spec:
            return None
        values[dest] = argv[i]
        spec = spec[argv[i]][1]
        i += 1
    options = {}
    for flags, kwargs in spec:
        if flags[0][0] == "-":
            dest = flags[-1][2:].replace("-", "_")
            values[dest] = False if kwargs.get("action") == "store_true" else kwargs.get("default")
            options.update(dict.fromkeys(flags, (dest, kwargs)))
        elif i < len(argv) and argv[i][:1] != "-":
            value = _value(kwargs, argv[i])
            if value is None:
                return None
            values[flags[0]] = value
            i += 1
        elif kwargs.get("nargs") == "?":
            values[flags[0]] = kwargs["default"]
        else:
            return None
    seen = set()
    while i < len(argv):
        dest, kwargs = options.get(argv[i], (None, None))
        if dest is None or dest in seen:
            return None
        seen.add(dest)
        if kwargs.get("action") == "store_true":
            values[dest] = True
            i += 1
            continue
        value = _value(kwargs, argv[i + 1]) if i + 1 < len(argv) else None
        if value is None:
            return None
        values[dest] = value
        i += 2
    if any(kwargs.get("required") and dest not in seen for dest, kwargs in options.values()):
        return None
    return SimpleNamespace(**values)


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
        raise ValueError("--witness applies only to --rule banks")
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
    if args.report is not None:
        import json

        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    for check in report["checks"]:
        if check["status"] == "skipped":
            print(f"SKIP {check['name']} ({check['details']['reason']})")
        else:
            print(f"{check['status'].upper():4s} {check['name']}")
    statuses = [c["status"] for c in report["checks"]]
    print(f"result: {'PASS' if report['overall_pass'] else 'FAIL'} "
          f"({statuses.count('pass')} passed, {statuses.count('fail')} failed, "
          f"{statuses.count('skipped')} skipped, mode={report['mode']})")
    return 0 if report["overall_pass"] else 1


def _cmd_scan(args) -> int:
    rules = tuple(part.strip() for part in args.rules.split(","))
    if len(rules) != 2 or not all(rules):
        raise ValueError("--rules expects two comma-separated rule names")
    if args.mode == "exhaustive" and (args.samples is not None or args.seed is not None):
        raise ValueError("--samples/--seed apply only to --mode random")
    try:
        outcome = scan_separation(
            rules, args.max_order, args.mode,  # type: ignore[arg-type]
            sample_count=args.samples if args.samples is not None else 1000,
            seed=args.seed if args.seed is not None else 0,
        )
    except (OverflowError, MemoryError):  # a random scan with a huge --max-order
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
        raise ValueError("orbits requires the bundled order-36 tournament "
                         "(gen paper36 without --variant-seed)")
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
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
            return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    # The handlers' own checks, ParseError and InvariantError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
