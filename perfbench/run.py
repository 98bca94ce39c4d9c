#!/usr/bin/env python3
"""Benchmark of the tournsol command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  An item is one invocation
of ``python -m tournsol.cli``, interpreter start included.  Items run one
at a time, each after the previous one exits (a closed loop with one
client), cycling through the workload's schedule until ``--seconds``
have passed.  Inputs come from ``--seed`` alone; inputs, outputs and
span files live in a temporary directory inside the checkout, removed
on exit.  Every output is checked after the timed region by ``checks``,
which shares no code with the library.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` each item of the schedule runs twice in turn, once
under ``trace_child.py`` and once plain, for whole cycles of the
schedule; the line reports per-layer totals for one cycle.  Lines before
it are for people: environment, per-command latency, self time by
module.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


@dataclass
class Item:
    args: list[str]  # arguments after ``python -m tournsol.cli``
    check: Callable[[str], None]  # called with stdout; raises checks.CheckError
    units: int = 1  # work counted by the printed throughput


@dataclass
class Attempt:
    item: Item
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: Path
    stderr: Path
    spans: Path | None


class Runner:
    """Spawns command-line items into one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        # Children see no PYTHON* settings of the caller, such as unbuffered
        # output or no byte-code cache, and keep their byte code in ``work``.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(work / "pycache"))

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[float, int, int]:
        """Run argv to completion; wall seconds, exit code, peak RSS in KiB."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def cli(self, args: list[str]) -> None:
        """A set-up invocation that must succeed; its output is discarded."""
        out = self.work / "setup.out"
        _, code, _ = self.spawn([sys.executable, "-m", "tournsol.cli", *args], out, out)
        if code != 0:
            raise RuntimeError(f"set-up command {args} exited {code}: {out.read_text()[:500]}")

    def run(self, item: Item, traced: bool = False) -> Attempt:
        self.count += 1
        base = self.work / f"item{self.count}"
        spans = base.with_suffix(".spans.json") if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans), *item.args]
        else:
            argv = [sys.executable, "-m", "tournsol.cli", *item.args]
        wall, code, rss = self.spawn(argv, base.with_suffix(".out"), base.with_suffix(".err"))
        return Attempt(item, wall, code, rss, base.with_suffix(".out"), base.with_suffix(".err"), spans)


@cache
def load(path: str) -> list[list[bool]]:
    return checks.parse_matrix(Path(path).read_text(encoding="ascii"))


def check_file_witnesses(path: Path, members: set[int], stdout: str) -> None:
    checks.check_witnesses(load(str(path)), stdout, members)


def check_gen(path: Path, m: list[list[bool]], stdout: str) -> None:
    if stdout or path.read_text(encoding="ascii") != checks.format_matrix(m):
        raise checks.CheckError(f"gen random: {path.name} differs from the seeded tournament")


# ---------------------------------------------------------------------------
# workloads: each builds one cycle of items from a seeded stream, writing
# its inputs into ``work``.

BP_ORDERS = tuple(range(10, 25))
BP_PER_ORDER = 5
SCAN_ORDER = 6
T36_VARIANTS = 3
QUICK_ORDERS = (30, 50, 70, 100)


def bp_random(rng: random.Random, work: Path, runner: Runner) -> list[Item]:
    items = []
    for rep in range(BP_PER_ORDER):
        for n in BP_ORDERS:
            m = checks.random_matrix(n, rng.getrandbits(32))
            path = work / f"bp_{n}_{rep}.txt"
            path.write_text(checks.format_matrix(m), encoding="ascii")
            items.append(Item(["solve", str(path), "--rule", "bp"], partial(checks.check_lottery, m)))
    return items


def scan_exhaustive(rng: random.Random, work: Path, runner: Runner) -> list[Item]:
    # The exhaustive scan takes no input, so the seed changes nothing.
    args = ["scan", "--rules", "banks,bp", "--mode", "exhaustive", "--max-order", str(SCAN_ORDER)]
    return [Item(args, partial(checks.check_scan, max_order=SCAN_ORDER),
                 units=sum(checks.CLASS_COUNTS[:SCAN_ORDER]))]


def paper36(rng: random.Random, work: Path, runner: Runner) -> list[Item]:
    # verify-paper without a file, the command a reader of the paper runs,
    # opens every group, so that two thirds of the items are verifications
    # and the printed median lies among them rather than between two kinds.
    build = work / "t36.txt"
    runner.cli(["gen", "paper36", "-o", str(build)])
    inputs = [(build, False)]
    for k in range(T36_VARIANTS):
        path = work / f"t36_variant{k}.txt"
        runner.cli(["gen", "paper36", "--variant-seed", str(rng.getrandbits(32)), "-o", str(path)])
        inputs.append((path, path.read_bytes() != build.read_bytes()))
    items = []
    for path, variant in inputs:
        items += [
            Item(["verify-paper"], partial(checks.check_verify_paper, variant=False)),
            Item(["verify-paper", str(path)], partial(checks.check_verify_paper, variant=variant)),
            Item(["solve", str(path), "--rule", "banks", "--witness"],
                 partial(check_file_witnesses, path, set(range(9, 36)))),
        ]
    return items


def quick_rules(rng: random.Random, work: Path, runner: Runner) -> list[Item]:
    items = []
    for n in QUICK_ORDERS:
        seed = rng.getrandbits(32)
        m = checks.random_matrix(n, seed)
        path = work / f"quick_{n}.txt"
        items.append(Item(["gen", "random", "--n", str(n), "--seed", str(seed), "-o", str(path)],
                          partial(check_gen, path, m)))
        for rule, check in (("copeland", checks.check_copeland), ("tc", checks.check_top_cycle),
                            ("uc", checks.check_uncovered)):
            items.append(Item(["solve", str(path), "--rule", rule], partial(check, m)))
        items.append(Item(["solve", str(path), "--rule", "banks", "--witness"],
                          partial(checks.check_witnesses, m)))
        items.append(Item(["export-dot", str(path)], partial(checks.check_dot, m)))
    return items


WORKLOADS = {
    "bp_random": bp_random,
    "scan_exhaustive": scan_exhaustive,
    "paper36": paper36,
    "quick_rules": quick_rules,
}

# Throughput and the median latency are printed but not reported.  On a
# shared host that switches between a fast and a slow speed every few
# seconds, both follow the share of a run spent in each state, and their
# spread over ten seeds reached the largest bound allowed.  The tail lands
# on the slow state in almost every run and stays steady.
END_TO_END = {
    "setup_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED = (
    "cli.main", "io.parse_tournament", "io.format_tournament", "io.export_dot",
    "core.tournament_init", "core.maximal_transitive_subsets",
    "games.solve_symmetric_zero_sum", "games.verify_equilibrium",
    "solutions.copeland_set", "solutions.top_cycle", "solutions.uncovered_set",
    "solutions.banks_witness", "solutions.banks_set", "solutions.bipartisan_set",
    "search.canonical_form", "search.automorphism_count", "search.scan_separation",
    "t36.build_t36", "t36.classify", "t36.verify_t36",
)
PER_LAYER = {
    "cli.import_s": "s",
    **{f"{name}.{stat}": ("count" if stat == "calls" else "s")
       for name in _TIMED for stat in ("calls", "total_s", "self_s")},
    "games.solve_symmetric_zero_sum.cells": "count",
    "search.new_class_ratio": "ratio",
    "solutions.banks_witness.found_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# measurement


def setup(workload: str, seed: int, work: Path) -> tuple[Runner, list[Item], float]:
    """Build the inputs and warm the interpreter's caches, several times.

    Returns the last repetition's runner and items and the median set-up
    time.  Each repetition starts with an empty byte-code cache; its
    warm-up imports the whole package once, so that byte code and the file
    cache are ready before timing.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        runner = Runner(work / f"run{rep}")
        runner.work.mkdir()
        items = WORKLOADS[workload](random.Random(seed), runner.work, runner)
        runner.cli(["--help"])
        times.append(time.perf_counter() - start)
    return runner, items, statistics.median(times)


def failure(attempt: Attempt) -> str | None:
    """Why an attempt's output is wrong, or None when it is right."""
    if attempt.exit_code != 0:
        err = attempt.stderr.read_text(errors="replace").strip().splitlines()
        return f"exit code {attempt.exit_code}: {err[-1] if err else ''}"
    try:
        attempt.item.check(attempt.stdout.read_text(encoding="utf-8"))
    except (checks.CheckError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def judge(attempts: list[Attempt]) -> int:
    """Check every output; print the first few problems; count failures."""
    failed = 0
    for attempt in attempts:
        reason = failure(attempt)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {' '.join(attempt.item.args)}: {reason}", file=sys.stderr)
    return failed


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; the maximum (percentile 100) when there are too few."""
    ordered = sorted(values)
    i = len(ordered) - 1 - TAIL_BEYOND
    if i < 0:
        return ordered[-1], 100.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def kind(item: Item) -> str:
    args = item.args
    if args[0] == "solve":
        return "solve " + " ".join(args[2:])
    return args[0]


def end_to_end(runner: Runner, items: list[Item], seconds: float, setup_s: float):
    attempts = []
    start = time.perf_counter()
    while not attempts or time.perf_counter() - start < seconds:
        attempts.append(runner.run(items[len(attempts) % len(items)]))
    elapsed = time.perf_counter() - start

    walls = [a.wall_s for a in attempts]
    tail_s, tail_pct = tail(walls)
    print(f"latency_tail_s is p{tail_pct:.1f} of {len(walls)} items; median latency "
          f"{statistics.median(walls):.4f} s; "
          f"{sum(a.item.units for a in attempts) / elapsed:.4f} units per second")
    by_kind = defaultdict(list)
    for a in attempts:
        by_kind[kind(a.item)].append(a.wall_s)
    for name, values in by_kind.items():
        print(f"  {name}: median {statistics.median(values):.4f} s over {len(values)} items")
    values = {
        "setup_s": setup_s,
        "latency_tail_s": tail_s,
        "peak_rss_mb": max(a.maxrss_kb for a in attempts) / 1024,
    }
    return attempts, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(runner: Runner, items: list[Item], seconds: float):
    traced, plain = [], []
    start = time.perf_counter()
    cycles = 0
    cycle_s = 0.0
    while cycles == 0 or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        for item in items:
            traced.append(runner.run(item, traced=True))
            plain.append(runner.run(item))
        cycles += 1
        cycle_s = time.perf_counter() - cycle_start

    calls, total, own, counters = Counter(), Counter(), Counter(), Counter()
    imports = []
    bp_by_order = defaultdict(list)
    for a in traced:
        if not a.spans.exists():
            continue  # the child failed before writing; judge() counts it
        doc = json.loads(a.spans.read_text(encoding="utf-8"))
        spans = doc["spans"]
        inner = [0.0] * len(spans)
        for name, begin, end, parent, _ in spans:
            if parent >= 0:
                inner[parent] += end - begin
        for (name, begin, end, _, size), covered in zip(spans, inner):
            calls[name] += 1
            total[name] += end - begin
            own[name] += end - begin - covered
            if name == "games.solve_symmetric_zero_sum":
                bp_by_order[size].append(end - begin)
        counters.update(doc["counters"])
        imports.append(doc["import_s"])

    traced_s = sum(a.wall_s for a in traced)
    plain_s = sum(a.wall_s for a in plain)
    print(f"{cycles} cycle(s) of {len(items)} items; traced {traced_s:.3f} s, plain {plain_s:.3f} s")
    by_module = Counter()
    for name, value in own.items():
        by_module[name.split(".")[0]] += value
    shares = ", ".join(f"{m} {v / traced_s:.1%}" for m, v in by_module.most_common())
    print(f"self time by module, share of traced wall time: {shares}")
    print(f"traced wall time inside cli.main: {total['cli.main'] / traced_s:.1%}, "
          f"in the tournsol import: {sum(imports) / traced_s:.1%}")
    for name in ("search.canonical_form", "games.solve_symmetric_zero_sum"):
        if calls[name]:
            print(f"{name}: {total[name] / traced_s:.1%} of traced wall time")
    for n in sorted(bp_by_order):
        ms = 1000 * statistics.mean(bp_by_order[n])
        print(f"  solve_symmetric_zero_sum n={n}: {ms:.2f} ms per call over {len(bp_by_order[n])} calls")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "games.solve_symmetric_zero_sum.cells":
            counters["games.solve_symmetric_zero_sum.cells"] / cycles,
        "search.new_class_ratio":
            ratio(counters["search.canonical_form.distinct"], calls["search.canonical_form"]),
        "solutions.banks_witness.found_ratio":
            ratio(counters["solutions.banks_witness.found"], calls["solutions.banks_witness"]),
        "trace.overhead_ratio": ratio(traced_s, plain_s) - 1,
    }
    for name in _TIMED:
        values[f"{name}.calls"] = calls[name] / cycles
        values[f"{name}.total_s"] = total[name] / cycles
        values[f"{name}.self_s"] = own[name] / cycles
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return traced + plain, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tournsol" / "cli.py").is_file():
        print(f"error: no tournsol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, "
          f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner, items, setup_s = setup(args.workload, args.seed, work)
        if args.trace:
            attempts, metrics = per_layer(runner, items, args.seconds)
        else:
            attempts, metrics = end_to_end(runner, items, args.seconds, setup_s)
        failed = judge(attempts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
