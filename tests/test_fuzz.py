"""Seeded property tests of the file format and the CLI's exit codes."""

import contextlib
import io
import os
import tempfile

import pytest

from tournsol import InvariantError, ParseError, Tournament, format_tournament, parse_tournament
from tournsol.cli import main
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
