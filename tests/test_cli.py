"""End-to-end command line behaviour through main(argv)."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tournsol import build_t36, classify, format_tournament, parse_tournament, random_tournament
from tournsol.cli import main

NINTH_LINES = [f"v0_{j}_{k} {3 * (j - 1) + (k - 1)} p=1/9" for j in (1, 2, 3) for k in (1, 2, 3)]


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="ascii")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_paper36_round_trips(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, _, _ = run(capsys, "gen", "paper36", "-o", str(out))
    assert code == 0
    assert classify(parse_tournament(out.read_text())) == "canonical"


def test_gen_paper36_to_stdout(capsys):
    code, text, _ = run(capsys, "gen", "paper36")
    assert code == 0
    assert parse_tournament(text) == build_t36()


def test_gen_variant(capsys):
    code, text, _ = run(capsys, "gen", "paper36", "--variant-seed", "3")
    assert code == 0
    assert classify(parse_tournament(text)) in {"canonical", "variant"}
    code2, text2, _ = run(capsys, "gen", "paper36", "--variant-seed", "3")
    assert text2 == text


def test_gen_random_deterministic(capsys):
    code, a, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "5")
    assert code == 0
    _, b, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "5")
    assert a == b
    assert parse_tournament(a) == random_tournament(8, 5)


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--n", "12", "--seed", "-5"),
    ("gen", "paper36", "--variant-seed", "-7"),
])
def test_gen_rejects_a_negative_seed(argv, capsys):
    # random.Random(-s) draws the same stream as random.Random(s)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: seed must be nonnegative, got {argv[-1]}\n"


def test_gen_accepts_seed_zero(capsys):
    code, text, _ = run(capsys, "gen", "random", "--n", "6", "--seed", "0")
    assert code == 0
    assert parse_tournament(text) == random_tournament(6, 0)
    code, text, _ = run(capsys, "gen", "paper36", "--variant-seed", "0")
    assert code == 0 and classify(parse_tournament(text)) is not None


def test_gen_random_writes_the_formatted_bytes(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, text, _ = run(capsys, "gen", "random", "--n", "7", "--seed", "99", "-o", str(out))
    assert (code, text) == (0, "")
    raw = out.read_bytes()
    assert raw == format_tournament(random_tournament(7, 99)).encode("ascii")
    assert b"\r" not in raw


def test_solve_bp_on_paper36(tmp_path, capsys):
    out = tmp_path / "t.txt"
    run(capsys, "gen", "paper36", "-o", str(out))
    code, text, _ = run(capsys, "solve", str(out), "--rule", "bp")
    assert code == 0
    assert text.splitlines() == NINTH_LINES


def test_solve_reads_stdin(monkeypatch, capsys):
    from tournsol import format_tournament

    monkeypatch.setattr("sys.stdin", stdin_bytes(format_tournament(build_t36()).encode("ascii")))
    code, text, _ = run(capsys, "solve", "--rule", "copeland")
    assert code == 0
    assert len(text.splitlines()) == 9


def test_stdin_and_file_report_a_stray_byte_alike(tmp_path, monkeypatch, capsys):
    data = b"3\n01\xe9\n001\n100\n"
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    file_code, _, file_err = run(capsys, "solve", str(path), "--rule", "copeland")
    monkeypatch.setattr("sys.stdin", stdin_bytes(data))
    stdin_code, _, stdin_err = run(capsys, "solve", "--rule", "copeland")
    assert file_code == stdin_code == 2
    assert "line 2, column 3: invalid character 'é'" in stdin_err
    assert stdin_err == file_err


def test_solve_plain_ids_on_unlabeled_input(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text(format_tournament(random_tournament(6, 7)))
    code, text, _ = run(capsys, "solve", str(path), "--rule", "uc")
    assert code == 0
    for line in text.splitlines():
        int(line)  # bare ids, no labels


def test_solve_banks_witness(tmp_path, capsys):
    path = tmp_path / "r.txt"
    t = random_tournament(7, 21)
    path.write_text(format_tournament(t))
    code, text, _ = run(capsys, "solve", str(path), "--rule", "banks", "--witness")
    assert code == 0
    from tournsol import banks_set

    listed = set()
    for line in text.splitlines():
        head, _, witness = line.partition(" witness=")
        v = int(head)
        listed.add(v)
        chain = [int(c) for c in witness.split(",")] if witness != "(empty)" else []
        group = set(chain) | {v}
        assert all(t.dominates(v, c) for c in chain)
        assert not any(
            all(t.dominates(y, g) for g in group) for y in range(7) if y not in group
        )
    assert listed == set(banks_set(t))


def test_witness_flag_rejected_outside_banks(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text(format_tournament(random_tournament(5, 1)))
    code, _, err = run(capsys, "solve", str(path), "--rule", "uc", "--witness")
    assert code == 2
    assert "witness" in err


def test_solve_unknown_rule_is_usage_error(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text(format_tournament(random_tournament(5, 1)))
    code, _, _ = run(capsys, "solve", str(path), "--rule", "borda")
    assert code == 2


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n01\n1\n")
    code, _, err = run(capsys, "solve", str(path), "--rule", "copeland")
    assert code == 2
    assert "line 3" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/nowhere.txt", "--rule", "tc")
    assert code == 2
    assert err


def test_directory_paths_are_usage_errors(tmp_path, capsys):
    code, out, err = run(capsys, "solve", str(tmp_path), "--rule", "copeland")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, out, err = run(capsys, "gen", "random", "--n", "5", "--seed", "1",
                         "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_solve_rule_choices_are_the_rule_table(tmp_path, capsys):
    from tournsol.search import RULES

    code, text, _ = run(capsys, "solve", "--help")
    assert code == 0
    assert "{" + ",".join(RULES) + "}" in text
    path = tmp_path / "r.txt"
    path.write_text(format_tournament(random_tournament(5, 1)))
    for name in RULES:
        assert run(capsys, "solve", str(path), "--rule", name)[0] == 0


@pytest.mark.parametrize("alias, short", [
    ("top_cycle", "tc"), ("uncovered", "uc"), ("bipartisan", "bp"),
])
def test_long_aliases_resolve_to_the_short_rule(monkeypatch, capsys, alias, short):
    import tournsol.search as search_mod

    def empty(t):
        return frozenset()

    monkeypatch.setitem(search_mod.RULES, short, empty)
    assert search_mod.resolve_rule(alias) is empty
    code, text, _ = run(capsys, "scan", "--rules", f"{alias},{short}",
                        "--max-order", "1", "--mode", "exhaustive")
    assert code == 1
    assert f"witness (order 1): {alias}=[] disjoint from {short}=[]" in text


def test_verify_paper_default_build(capsys):
    code, text, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) == 10
    assert lines[-1].startswith("result: PASS")


def test_verify_paper_report_file(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify-paper", "--report", str(report_path))
    assert code == 0
    doc = json.loads(report_path.read_text())
    schema = json.loads(files("tournsol").joinpath("report_schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["overall_pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "bipartisan_lottery" in names and "banks_set" in names


def test_verify_paper_skips_orientation_dependent_checks_on_a_variant(tmp_path, capsys):
    path = tmp_path / "variant.txt"
    assert run(capsys, "gen", "paper36", "--variant-seed", "3", "-o", str(path))[0] == 0
    code, text, _ = run(capsys, "verify-paper", str(path))
    assert code == 0
    lines = text.splitlines()
    assert "SKIP degree_profile (triangle orientation dependent)" in lines
    assert "SKIP symmetry_orbits (triangle orientation dependent)" in lines
    assert lines[-1] == "result: PASS (8 passed, 0 failed, 2 skipped, mode=variant)"


def test_verify_paper_fails_on_random(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text(format_tournament(random_tournament(36, 99)))
    code, text, _ = run(capsys, "verify-paper", str(path))
    assert code == 1
    assert "FAIL" in text


def test_verify_paper_wrong_order(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text(format_tournament(random_tournament(6, 0)))
    code, _, err = run(capsys, "verify-paper", str(path))
    assert code == 2
    assert "order" in err


def test_scan_exhaustive(capsys):
    code, text, _ = run(capsys, "scan", "--rules", "banks,bp",
                        "--max-order", "5", "--mode", "exhaustive")
    assert code == 0
    assert "order 5: 12 classes covering 1024 labelled tournaments" in text
    assert text.splitlines()[-1] == "witnesses: 0"


def test_scan_random(capsys):
    code, text, _ = run(capsys, "scan", "--rules", "uc,tc", "--max-order", "8",
                        "--mode", "random", "--samples", "25", "--seed", "4")
    assert code == 0
    assert "order 8: 25 samples" in text


def test_scan_witness_exits_one(monkeypatch, capsys):
    import tournsol.search as search_mod

    def bottom(t):
        return frozenset({min(range(t.order), key=lambda v: (t.copeland_score(v), v))})

    monkeypatch.setitem(search_mod.RULES, "bottom", bottom)
    code, text, _ = run(capsys, "scan", "--rules", "copeland,bottom",
                        "--max-order", "3", "--mode", "exhaustive")
    assert code == 1
    assert "witness (order 2)" in text


def test_scan_usage_errors(capsys):
    code, _, err = run(capsys, "scan", "--rules", "banks", "--max-order", "5",
                       "--mode", "exhaustive")
    assert code == 2 and "two comma-separated" in err
    code, _, err = run(capsys, "scan", "--rules", "banks,bp", "--max-order", "5",
                       "--mode", "exhaustive", "--samples", "10")
    assert code == 2 and "random" in err
    code, _, _ = run(capsys, "scan", "--rules", "banks,nope", "--max-order", "5",
                     "--mode", "exhaustive")
    assert code == 2
    code, _, _ = run(capsys, "scan", "--rules", "banks,bp", "--max-order", "9",
                     "--mode", "exhaustive")
    assert code == 2  # above the exhaustive cap
    assert run(capsys, "scan", "--rules", "banks,bp", "--max-order", "0",
               "--mode", "exhaustive") == (2, "", "error: order must be at least 1\n")
    assert run(capsys, "scan", "--rules", "banks,bp", "--max-order", "5",
               "--mode", "random", "--samples", "0") == (
        2, "", "error: random mode needs at least one sample\n")


def test_scan_seed_outside_64_bits_is_a_usage_error(capsys):
    # -1 and 2**64 - 1 would draw the same samples
    assert run(capsys, "scan", "--rules", "banks,bp", "--max-order", "5",
               "--mode", "random", "--seed", "-1") == (
        2, "", "error: seed -1 outside 0..18446744073709551615\n")
    code, out, _ = run(capsys, "scan", "--rules", "banks,bp", "--max-order", "5",
                       "--mode", "random", "--samples", "3", "--seed", "0")
    assert code == 0
    assert out == "order 5: 3 samples\nwitnesses: 0\n"


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--n", "100000000000000000000000", "--seed", "1"),
    ("scan", "--rules", "banks,bp", "--mode", "random",
     "--max-order", "100000000000000000000000"),
    # fits an index but not a list of rows: MemoryError before any allocation
    ("gen", "random", "--n", str(2 ** 62), "--seed", "1"),
])
def test_huge_orders_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    option = "--n" if argv[0] == "gen" else "--max-order"
    assert err == f"error: {option} {argv[argv.index(option) + 1]} is too large to build\n"


def test_zero_order_header_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("0\n")
    code, out, err = run(capsys, "solve", str(path), "--rule", "tc")
    assert (code, out) == (2, "")
    assert err == "error: line 1, column 1: order must be at least 1\n"


def test_overlong_header_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("9" * 5000 + "\n")
    code, out, err = run(capsys, "solve", str(path), "--rule", "tc")
    assert (code, out) == (2, "")
    assert err == "error: line 1, column 1: order has 5000 digits, more than 4300\n"


def test_export_dot_labeled(tmp_path, capsys):
    src = tmp_path / "t.txt"
    dot = tmp_path / "t.dot"
    run(capsys, "gen", "paper36", "-o", str(src))
    code, _, _ = run(capsys, "export-dot", str(src), "-o", str(dot))
    assert code == 0
    text = dot.read_text()
    assert 'label="v0_1_1"' in text
    assert "subgraph cluster_block0" in text
    assert text.count(" -> ") == 630


def test_export_dot_plain_for_random(tmp_path, capsys):
    src = tmp_path / "r.txt"
    src.write_text(format_tournament(random_tournament(5, 3)))
    code, text, _ = run(capsys, "export-dot", str(src))
    assert code == 0
    assert "label=" not in text
    assert text.count(" -> ") == 10


def test_orbits_on_canonical(tmp_path, capsys):
    src = tmp_path / "t.txt"
    run(capsys, "gen", "paper36", "-o", str(src))
    code, text, _ = run(capsys, "orbits", str(src))
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("orbit 1 (size 9):")
    assert lines[1].startswith("orbit 2 (size 27):")


def test_orbits_rejects_other_tournaments(tmp_path, capsys):
    src = tmp_path / "r.txt"
    src.write_text(format_tournament(random_tournament(36, 2)))
    code, _, err = run(capsys, "orbits", str(src))
    assert code == 2
    assert "paper36" in err


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_import_loads_no_dataclasses_inspect_or_json():
    # A fresh interpreter, compared with its own start-up modules, so a
    # site hook that preloads one of these cannot fail the test.
    probe = (
        "import sys; before = set(sys.modules); import tournsol.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(done.stdout.split())
    assert "tournsol.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize("gen_args, digest", [
    (("random", "--n", "100", "--seed", "1"),
     "bacef9ad0771321d947736ad966c99aaae2aedabfba714a715769144b3005fc2"),
    (("paper36",),
     "4c7aa8442b16ebc5e1d2cc838d9e356eeb38924d0fd8120b0d4b3d96e83c3039"),
])
def test_banks_witness_output_bytes_are_pinned(tmp_path, capsys, gen_args, digest):
    path = tmp_path / "t.txt"
    assert run(capsys, "gen", *gen_args, "-o", str(path))[0] == 0
    code, out, err = run(capsys, "solve", str(path), "--rule", "banks", "--witness")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv, exit_code, digest", [
    (("--rules", "banks,bp", "--mode", "exhaustive", "--max-order", "6"), 0,
     "277e91d640c1fc72cc33a7cb4d0b6461490af18fac64df59348f69419f46c27c"),
    (("--rules", "bipartisan,copeland", "--mode", "random", "--max-order", "8",
      "--samples", "300", "--seed", "1"), 1,
     "a6043e38ad846ac7b8a366b4365c6807ab553a21d2fe459b9123c8e7fb8468a3"),
])
def test_scan_output_bytes_are_pinned(argv, exit_code, digest, capsys):
    code, out, err = run(capsys, "scan", *argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_bp_output_bytes_are_pinned(tmp_path, capsys):
    gens = [("random", "--n", str(n), "--seed", str(100 + n)) for n in range(1, 41)]
    gens += [("paper36",), ("paper36", "--variant-seed", "3")]
    digest = hashlib.sha256()
    codes = []
    for i, gen_args in enumerate(gens):
        path = tmp_path / f"{i}.txt"
        assert run(capsys, "gen", *gen_args, "-o", str(path))[0] == 0
        code, out, err = run(capsys, "solve", str(path), "--rule", "bp")
        assert err == ""
        codes.append(code)
        digest.update(out.encode("ascii"))
    assert codes == [0] * len(gens)
    assert digest.hexdigest() == "ba8ccd1f2dd97a01241bf1e034d1c1258d58983a11eb557276299b38c61a4846"
