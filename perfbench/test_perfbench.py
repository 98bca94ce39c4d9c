"""Tests of the benchmark itself, on tiny inputs.

Run from the checkout root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "BP_ORDERS", (5, 7))
    monkeypatch.setattr(run, "BP_PER_ORDER", 1)
    monkeypatch.setattr(run, "SCAN_ORDER", 4)
    monkeypatch.setattr(run, "T36_VARIANTS", 1)
    monkeypatch.setattr(run, "QUICK_ORDERS", (9,))


def bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_trace_counts_internal_calls_exactly(tiny, capsys):
    metrics = {k: v["value"] for k, v in bench(capsys, "scan_exhaustive", 1)["metrics"].items()}
    # Orders 2..4 extend 1, 1 and 2 representatives in 2, 4 and 8 ways.
    assert metrics["search.canonical_form.calls"] == 2 + 4 + 16
    assert metrics["search.new_class_ratio"] == (1 + 2 + 4) / 22
    # banks_set is reached only through search.RULES.
    assert metrics["solutions.banks_set.calls"] == 1 + 1 + 2 + 4
    assert metrics["games.solve_symmetric_zero_sum.calls"] == 8
    assert metrics["games.solve_symmetric_zero_sum.cells"] == 1 + 4 + 2 * 9 + 4 * 16


def test_quick_rules_never_reach_the_simplex_or_the_scan(tiny, capsys):
    metrics = {k: v["value"] for k, v in bench(capsys, "quick_rules", 1)["metrics"].items()}
    assert metrics["solutions.banks_witness.calls"] == 9
    for name in ("games.solve_symmetric_zero_sum", "search.canonical_form",
                 "search.automorphism_count", "search.scan_separation"):
        assert metrics[f"{name}.calls"] == 0


def solved(tmp_path: Path, args_for, accept) -> run.Attempt:
    """Run the CLI on seeded tournaments until one output passes ``accept``."""
    runner = run.Runner(tmp_path)
    for seed in range(50):
        m = checks.random_matrix(11, seed)
        path = tmp_path / f"t{seed}.txt"
        path.write_text(checks.format_matrix(m), encoding="ascii")
        check = partial(args_for[1], m)
        attempt = runner.run(run.Item(["solve", str(path), *args_for[0]], check))
        if accept(attempt.stdout.read_text().splitlines()):
            return attempt
    raise AssertionError("no seed gave a usable output")


def test_shifted_lottery_counts_as_failed(tmp_path):
    attempt = solved(tmp_path, (["--rule", "bp"], checks.check_lottery), lambda lines: len(lines) >= 3)
    assert run.judge([attempt]) == 0
    lines = attempt.stdout.read_text().splitlines()
    shifted = []
    for i, line in enumerate(lines):
        head, p = line.split(" p=")
        delta = Fraction(1, 1000) * (1 if i == 0 else -1 if i == 1 else 0)
        shifted.append(f"{head} p={Fraction(p) + delta}")
    attempt.stdout.write_text("\n".join(shifted) + "\n")
    assert run.judge([attempt]) == 1


def test_broken_witness_chain_counts_as_failed(tmp_path):
    def long_chain(lines):
        return any("," in line for line in lines)

    attempt = solved(tmp_path, (["--rule", "banks", "--witness"], checks.check_witnesses), long_chain)
    assert run.judge([attempt]) == 0
    lines = attempt.stdout.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if "," in line)
    head, chain = lines[i].split(" witness=")
    lines[i] = f"{head} witness={','.join(reversed(chain.split(',')))}"
    attempt.stdout.write_text("\n".join(lines) + "\n")
    assert run.judge([attempt]) == 1


def test_wrong_exit_code_counts_as_failed(tmp_path):
    runner = run.Runner(tmp_path)
    item = run.Item(["solve", str(tmp_path / "missing.txt"), "--rule", "tc"], lambda out: None)
    assert run.judge([runner.run(item)]) == 1


def test_checks_reject_wrong_answers():
    m = checks.random_matrix(12, 3)
    scores = [sum(row) for row in m]
    with pytest.raises(checks.CheckError):
        checks.check_copeland(m, f"{scores.index(min(scores))}\n")
    with pytest.raises(checks.CheckError):
        checks.check_scan("order 1: 1 classes covering 1 labelled tournaments\nwitnesses: 1\n", 1)
    with pytest.raises(checks.CheckError):
        checks.check_verify_paper("PASS validity\nresult: PASS\n", variant=False)
    with pytest.raises(checks.CheckError):
        checks.check_dot(m, "digraph tournament {\n  0 -> 1;\n}\n")


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper36", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
