"""Seeded property tests of the file format, the CLI's exit codes and its argument reader."""

import contextlib
import io
import os
import tempfile

import pytest

from tournsol import InvariantError, ParseError, Tournament, format_tournament, parse_tournament
from tournsol.cli import _COMMANDS, _build_parser, _parse_plain, main
from tournsol.search import RULES

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

# Derandomized and bounded: every run draws the same examples, and no
# example database is kept between runs.
seeded = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def tournaments(draw, max_order=9):
    n = draw(st.integers(1, max_order))
    bits = iter(draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2)))
    matrix = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if next(bits):
                matrix[x][y] = True
            else:
                matrix[y][x] = True
    return Tournament(matrix)


# Mostly the file's own alphabet, so that some draws are well formed.
texts = st.one_of(
    st.text(alphabet="01\n", max_size=40),
    st.text(alphabet="0123\n \r", max_size=40),
    st.text(max_size=40),
    tournaments(6).map(format_tournament),
)


@seeded
@given(tournaments())
def test_format_then_parse_is_the_identity(t):
    assert parse_tournament(format_tournament(t)) == t


@seeded
@given(texts)
def test_parse_returns_the_formatted_input_or_a_typed_error(text):
    try:
        t = parse_tournament(text)
    except (ParseError, InvariantError):
        return
    assert format_tournament(t) == text


@seeded
@given(st.one_of(st.binary(max_size=40), texts.map(lambda s: s.encode("utf-8"))),
       st.sampled_from(sorted(RULES)))
def test_solve_exits_zero_or_two_on_any_file(data, rule):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", path, "--rule", rule])
    finally:
        os.remove(path)
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code == 2:
        assert out.getvalue() == ""


# Argument vectors drawn from the command table: plain ones, which the
# reader must take, and perturbed ones, which it may leave to argparse.
def command_lines(commands=_COMMANDS, names=()):
    for name, (_, spec) in commands.items():
        if isinstance(spec, dict):
            yield from command_lines(spec, (*names, name))
        else:
            yield [*names, name], spec


COMMAND_LINES = list(command_lines())
WORDS = ["F", "t.txt", "a b", "", "\u00e9", "0", "7", "banks,bp", "exhaustive", "uc", "x"]
ODD = ["-h", "--help", "--", "-", "-5", "--rul", "--max", "--see", "--rule=uc", "-oX",
       "--output=o", "--n=3", "--witness", "-o", "--rule", "--seed", "5", "nope", "gen", "solve"]


def values(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(list(kwargs["choices"]))
    if kwargs.get("type") is int:
        return st.integers(0, 2**70).map(str)
    return st.sampled_from(WORDS)


@st.composite
def plain_argvs(draw):
    names, spec = draw(st.sampled_from(COMMAND_LINES))
    argv = list(names)
    options = []
    for flags, kwargs in spec:
        if flags[0][0] != "-":
            if kwargs.get("nargs") != "?" or draw(st.booleans()):
                argv.append(draw(st.sampled_from(WORDS)))
        elif kwargs.get("required") or draw(st.booleans()):
            options.append((flags, kwargs))
    for flags, kwargs in draw(st.permutations(options)):
        argv.append(draw(st.sampled_from(flags)))
        if kwargs.get("action") != "store_true":
            argv.append(draw(values(kwargs)))
    return argv


@st.composite
def perturbed_argvs(draw):
    argv = draw(plain_argvs())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "swap", "join", "shorten"]))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(ODD + WORDS)))
        elif i < len(argv) and edit == "replace":
            argv[i] = draw(st.sampled_from(ODD + WORDS))
        elif i < len(argv) and edit == "delete":
            del argv[i]
        elif i + 1 < len(argv) and edit == "swap":
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
        elif i + 1 < len(argv) and edit == "join":
            argv[i:i + 2] = [argv[i] + ("=" if argv[i][:2] == "--" else "") + argv[i + 1]]
        elif i < len(argv) and edit == "shorten" and len(argv[i]) > 3:
            argv[i] = argv[i][:-1]
    return argv


def read_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = _parse_plain(argv)
        except SystemExit:
            pytest.fail(f"the reader exited on {argv!r}")
    assert out.getvalue() == err.getvalue() == ""
    return namespace


@seeded
@given(plain_argvs())
def test_reader_takes_plain_argv_as_argparse_does(argv):
    namespace = read_quietly(argv)
    assert namespace is not None, argv
    assert vars(namespace) == vars(_build_parser().parse_args(argv))


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(perturbed_argvs())
def test_reader_agrees_with_argparse_or_leaves_argv_to_it(argv):
    namespace = read_quietly(argv)
    if namespace is not None:
        assert vars(namespace) == vars(_build_parser().parse_args(argv))
