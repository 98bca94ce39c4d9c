"""Run one tournsol command line with timing wrappers on its layers.

Usage: python trace_child.py SPANS_JSON ARG...

Imports ``tournsol.cli`` (timing the import), replaces every traced
function wherever a tournsol module binds it at module level, and in
``search.RULES``, which holds direct references, then calls
``tournsol.cli.main(ARGS)``.  Each call of a traced function records a
span ``[name, start, end, parent, size]``: ``parent`` is the index of the
enclosing traced span or -1, ``size`` the order of the tournament or
matrix passed first, where there is one.  Spans stay in memory and are
written with a few counters to SPANS_JSON when main returns.  The
process exits with main's exit code; the command's output is unchanged.
"""

import sys
import time

_t0 = time.perf_counter()
import tournsol.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import json  # noqa: E402

from tournsol import core, games, io, search, solutions, t36  # noqa: E402

#: Traced functions by span name.  Hot helpers called inside these, such
#: as ``chain_insertion_point``, stay unwrapped to keep the overhead low.
TRACED = {
    "cli.main": (tournsol.cli, "main"),
    "io.parse_tournament": (io, "parse_tournament"),
    "io.format_tournament": (io, "format_tournament"),
    "io.export_dot": (io, "export_dot"),
    "core.maximal_transitive_subsets": (core, "maximal_transitive_subsets"),
    "games.solve_symmetric_zero_sum": (games, "solve_symmetric_zero_sum"),
    "games.verify_equilibrium": (games, "verify_equilibrium"),
    "games.equilibrium_slacks": (games, "equilibrium_slacks"),
    "solutions.copeland_set": (solutions, "copeland_set"),
    "solutions.top_cycle": (solutions, "top_cycle"),
    "solutions.uncovered_set": (solutions, "uncovered_set"),
    "solutions.banks_witness": (solutions, "banks_witness"),
    "solutions.banks_set": (solutions, "banks_set"),
    "solutions.bipartisan_set": (solutions, "bipartisan_set"),
    "search.random_tournament": (search, "random_tournament"),
    "search.canonical_form": (search, "canonical_form"),
    "search.automorphism_count": (search, "automorphism_count"),
    "search.scan_separation": (search, "scan_separation"),
    "t36.build_t36": (t36, "build_t36"),
    "t36.build_t36_variant": (t36, "build_t36_variant"),
    "t36.classify": (t36, "classify"),
    "t36.verify_t36": (t36, "verify_t36"),
}

spans: list[list] = []
stack: list[int] = []
counters = {
    "games.solve_symmetric_zero_sum.cells": 0,
    "solutions.banks_witness.found": 0,
    "search.canonical_form.distinct": 0,
}
canonical_keys: set[bytes] = set()


def _size(args) -> int | None:
    if not args:
        return None
    first = args[0]
    if isinstance(first, core.Tournament):
        return first.order
    if isinstance(first, list):
        return len(first)
    return None


def _count(name: str, args, result) -> None:
    if name == "games.solve_symmetric_zero_sum":
        counters["games.solve_symmetric_zero_sum.cells"] += len(args[0]) ** 2
    elif name == "solutions.banks_witness" and result is not None:
        counters["solutions.banks_witness.found"] += 1
    elif name == "search.canonical_form" and result not in canonical_keys:
        canonical_keys.add(result)
        counters["search.canonical_form.distinct"] += 1


def traced(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(spans)
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()
        span[4] = _size(args)  # after the call: __init__ has set the order by now
        _count(name, args, result)
        return result

    return wrapper


def install() -> None:
    replacement = {}
    for name, (module, attr) in TRACED.items():
        fn = getattr(module, attr)
        replacement[id(fn)] = traced(name, fn)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "tournsol"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attr, replacement[id(value)])
    for rule, fn in list(search.RULES.items()):
        if id(fn) in replacement:
            search.RULES[rule] = replacement[id(fn)]
    core.Tournament.__init__ = traced("core.tournament_init", core.Tournament.__init__)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return tournsol.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": spans, "counters": counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
