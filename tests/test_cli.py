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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_rejects_an_order_below_one(n, capsys):
    assert run(capsys, "gen", "random", "--n", n, "--seed", "1") == (
        2, "", f"error: --n {n} must be at least 1\n")


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
    assert run(capsys, "solve", str(path), "--rule", "uc", "--witness") == (
        2, "", "error: --witness applies only to --rule banks\n")


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
    for rules in ("banks", "banks,bp,uc"):
        assert run(capsys, "scan", "--rules", rules, "--max-order", "5",
                   "--mode", "exhaustive") == (
            2, "", "error: --rules expects two comma-separated rule names\n")
    assert run(capsys, "scan", "--rules", "banks,bp", "--max-order", "5",
               "--mode", "exhaustive", "--samples", "10") == (
        2, "", "error: --samples/--seed apply only to --mode random\n")
    code, _, _ = run(capsys, "scan", "--rules", "banks,nope", "--max-order", "5",
                     "--mode", "exhaustive")
    assert code == 2
    code, _, _ = run(capsys, "scan", "--rules", "banks,bp", "--max-order", "9",
                     "--mode", "exhaustive")
    assert code == 2  # above the exhaustive cap
    assert run(capsys, "scan", "--rules", "banks,bp", "--max-order", "0",
               "--mode", "exhaustive") == (2, "", "error: --max-order 0 must be at least 1\n")
    assert run(capsys, "scan", "--rules", "banks,bp", "--max-order", "0",
               "--mode", "random") == (2, "", "error: --max-order 0 must be at least 1\n")
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


@pytest.mark.parametrize("text, err", [
    ("3\n011\n001\n", "error: line 4, column 1: expected 3 matrix rows, found 2\n"),
    ("2\n01\n00\n00\n", "error: line 4, column 1: expected 2 matrix rows, found 3\n"),
    ("2\n01\n00\n\n", "error: line 4, column 1: expected 2 matrix rows, found 3\n"),
], ids=["missing-row", "extra-row", "trailing-empty-line"])
def test_row_count_errors_are_pinned(tmp_path, capsys, text, err):
    path = tmp_path / "t.txt"
    path.write_text(text)
    assert run(capsys, "solve", str(path), "--rule", "tc") == (2, "", err)


def test_unwritable_report_prints_no_check_lines(tmp_path, capsys):
    report = tmp_path / "missing" / "r.json"
    assert run(capsys, "verify-paper", "--report", str(report)) == (
        2, "", f"error: [Errno 2] No such file or directory: '{report}'\n")


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


@pytest.mark.parametrize("gen_argv, digest", [
    (["gen", "paper36"], "e634f68877d9e1fee3dbfeed16889a69d4139b86e10d386a0344b6d37a229cbc"),
    (["gen", "random", "--n", "30", "--seed", "7"],
     "72b4557a7b9a43b698ad10e738e4f18e94a3779cf262cab26e4b58be54d2e3ff"),
], ids=["paper36-labelled", "random-30"])
def test_export_dot_bytes_are_pinned(tmp_path, capsys, gen_argv, digest):
    src = tmp_path / "t.txt"
    assert run(capsys, *gen_argv, "-o", str(src))[0] == 0
    code, out, err = run(capsys, "export-dot", str(src))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    variant = tmp_path / "v3.txt"
    assert run(capsys, "gen", "paper36", "--variant-seed", "3", "-o", str(variant))[0] == 0
    for path in (src, variant):
        assert run(capsys, "orbits", str(path)) == (
            2, "", "error: orbits requires the bundled order-36 tournament "
                   "(gen paper36 without --variant-seed)\n")


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def loaded_by(statement: str) -> set[str]:
    """Modules a fresh interpreter loads to run ``statement``.

    Compared with the interpreter's own start-up modules, so a site hook
    that preloads a module cannot fail a test.  The statement's exit must
    be clean.
    """
    probe = ("import sys; before = set(sys.modules); " + statement + "; "
             "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stderr.split())


def test_import_loads_no_dataclasses_inspect_or_json():
    # Nor argparse or fractions, with what they import: commands load
    # them only where they need them (next test).
    loaded = loaded_by("import tournsol.cli")
    assert "tournsol.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json",
                         "argparse", "gettext", "fractions", "decimal", "numbers"}


@pytest.mark.parametrize("argv, argparse_loaded, fractions_loaded", [
    (["solve", "{path}", "--rule", "uc"], False, False),
    (["solve", "{path}", "--rule", "bp"], False, True),
    (["--help"], True, False),
], ids=["solve-uc", "solve-bp", "help"])
def test_commands_load_argparse_and_fractions_only_when_needed(
    tmp_path, argv, argparse_loaded, fractions_loaded
):
    path = tmp_path / "t.txt"
    path.write_text(format_tournament(random_tournament(12, 4)), encoding="ascii")
    argv = [arg.format(path=path) for arg in argv]
    loaded = loaded_by(f"import tournsol.cli; assert tournsol.cli.main({argv!r}) == 0")
    assert ("argparse" in loaded) == argparse_loaded
    assert ("fractions" in loaded) == fractions_loaded


# Help and usage text, pinned so that the parser built from the command
# table prints what the hand-built parser did.  The digests are the same
# under Python 3.10, 3.11 and 3.12; 3.13 lays out some help differently.
EMPTY = hashlib.sha256(b"").hexdigest()


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 12),
                    reason="argparse's help layout differs from Python 3.13 on")
@pytest.mark.parametrize("argv, exit_code, out_digest, err_digest", [
    (["--help"], 0, "ecf9da33fdc4316386c20e4c2587f76bfda3c81eb589512b6b15f42e4bd9867a", EMPTY),
    (["gen", "--help"], 0,
     "dd99aebfe0f1bca9a8220df3129f84913427360adcc17ce511a9f17dfe588210", EMPTY),
    (["gen", "random", "--help"], 0,
     "adb7dd5dc26fad78590e50e54f4ca7fea3ef1cf9b3040cfb2904d0b9cef17d8e", EMPTY),
    (["gen", "paper36", "--help"], 0,
     "7937fd633e6f5eb5733420bd6e7464009c2fba6d1b710389c5b40793dfdc574f", EMPTY),
    (["solve", "--help"], 0,
     "287a819be308cd2761479c530b8b8b78e63d3b5ab1b891dcfe18f8cb186fdacc", EMPTY),
    (["verify-paper", "--help"], 0,
     "2bf6394e5e98a103d566031e98f16c4706972e4822792e081cd6c2d980d88ba7", EMPTY),
    (["scan", "--help"], 0,
     "0abc3a343b83014a67413fcbb227bf7568827aada5613efe3fa45bcfda61d74b", EMPTY),
    (["export-dot", "--help"], 0,
     "6e5aff3f4dbcb2489d819c8c5ce5662573a02efcd24010dede38dd9a2c298ab8", EMPTY),
    (["orbits", "--help"], 0,
     "2f1e101a3918912c60d3e0694ba4b9f1eea9813d46ba631c6b750a9bf8636d84", EMPTY),
    ([], 2, EMPTY, "61739f8d5702aa86911e1ad940b6ac919f7c36bbc0c97662e1441fa50b8c81f1"),
    (["solve", "F", "--rule", "borda"], 2,
     EMPTY, "80a6dc4f836d762499fa8ced5a62569d8b214ef4123bc92dae2addef79df41bf"),
    (["gen", "random", "--n", "x", "--seed", "1"], 2,
     EMPTY, "f0165b42af9d7c7d7e9dea12aadf1ef8f17c9b8a58321fea7e1d3ca4ca080fb3"),
])
def test_help_and_usage_text_is_pinned(monkeypatch, capsys, argv, exit_code, out_digest,
                                       err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


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
