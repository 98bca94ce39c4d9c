"""File format, parse diagnostics, and DOT export."""

import sys

import pytest

from tournsol import (
    InvariantError,
    ParseError,
    Tournament,
    export_dot,
    format_tournament,
    parse_tournament,
    random_tournament,
    read_tournament,
)

GOOD = "3\n010\n001\n100\n"


def test_parse_round_trip():
    for seed in range(30):
        n = 1 + seed % 12
        t = random_tournament(n, 5000 + seed)
        assert parse_tournament(format_tournament(t)) == t
    for n in (63, 64, 65, 101, 128, 150):  # rows wider than a machine word
        t = random_tournament(n, 5000 + n)
        text = format_tournament(t)
        assert parse_tournament(text) == t
        assert format_tournament(parse_tournament(text)) == text


def test_format_shape():
    text = format_tournament(Tournament([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert text == GOOD


def test_file_round_trip(tmp_path):
    path = tmp_path / "t.txt"
    t = random_tournament(7, 99)
    path.write_text(format_tournament(t), encoding="ascii")
    assert read_tournament(path) == t


def test_parse_error_positions():
    cases = [
        ("", 1, 1),                    # empty input
        ("x\n011\n001\n100\n", 1, 1),  # header not a count
        ("3\n01\n001\n100\n", 2, 3),   # short row
        ("3\n0111\n001\n100\n", 2, 4), # long row
        ("3\n011\n0x1\n100\n", 3, 2),  # bad character
        ("3\n011\n001\n", 4, 1),       # missing row
        ("3\n011\n001\n100\n1\n", 5, 1),  # trailing data
        ("3\n011\n001\n100", 4, 4),    # missing final newline
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as err:
            parse_tournament(text)
        assert err.value.line == line, text
        assert err.value.column == col, text
        assert f"line {line}, column {col}" in str(err.value)


def test_parse_rejects_non_ascii_digits_in_header():
    with pytest.raises(ParseError) as err:
        parse_tournament("\u00b2\n0\n")  # superscript two passes str.isdigit
    assert (err.value.line, err.value.column) == (1, 1)


def test_parse_rejects_leading_zeros_in_header():
    for text in ("01\n0\n", "00\n", "003\n011\n001\n100\n"):
        with pytest.raises(ParseError, match="^line 1, column 1: order has a leading zero$"):
            parse_tournament(text)
    with pytest.raises(ParseError, match="^line 1, column 1: order must be at least 1$"):
        parse_tournament("0\n")


def test_parse_rejects_header_longer_than_int_digit_limit():
    message = "^line 1, column 1: order has 5000 digits, more than 4300$"
    with pytest.raises(ParseError, match=message):
        parse_tournament("9" * 5000 + "\n")
    # at the limit the header still parses, and the row count is reported
    with pytest.raises(ParseError, match="^line 2, column 1: expected 9{4300} matrix rows"):
        parse_tournament("9" * 4300 + "\n")


def test_parse_names_a_lowered_int_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        message = "^line 1, column 1: order has 1000 digits, more than 640$"
        with pytest.raises(ParseError, match=message):
            parse_tournament("9" * 1000 + "\n")
    finally:
        sys.set_int_max_str_digits(saved)


def test_read_reports_non_ascii_bytes_by_position(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"3\n01\xe9\n001\n100\n")
    with pytest.raises(ParseError) as err:
        read_tournament(path)
    assert (err.value.line, err.value.column) == (2, 3)


def test_parse_rejects_broken_relations():
    # the constructor's messages, first defect in the same checking order
    cases = [
        ("2\n10\n00\n", "alternative 0 marked as dominating itself"),
        ("2\n01\n10\n", "pair (0, 1) dominated in both directions"),
        ("2\n00\n00\n", "pair (0, 1) left undecided"),
        ("3\n010\n011\n000\n", "pair (0, 2) left undecided"),
        ("3\n011\n011\n100\n", "pair (0, 2) dominated in both directions"),
        ("3\n011\n010\n000\n", "alternative 1 marked as dominating itself"),
    ]
    for text, message in cases:
        with pytest.raises(InvariantError) as err:
            parse_tournament(text)
        assert str(err.value) == message, text


def test_parse_reports_the_first_invalid_character_of_a_row():
    with pytest.raises(ParseError) as err:
        parse_tournament("3\n011\n0xy\n1z0\n")
    assert str(err.value) == "line 3, column 2: invalid character 'x'"


def test_parse_of_wide_rows_ignores_the_int_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    text = format_tournament(random_tournament(700, 700))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert format_tournament(parse_tournament(text)) == text
    finally:
        sys.set_int_max_str_digits(saved)


def test_parse_errors_are_value_errors():
    assert issubclass(ParseError, ValueError)
    assert issubclass(InvariantError, ValueError)


def test_order_one_file():
    assert parse_tournament("1\n0\n").order == 1


def test_export_dot_plain():
    t = Tournament([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    dot = export_dot(t)
    assert dot.startswith("digraph tournament {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -> ") == 3
    assert "0 -> 1;" in dot and "1 -> 2;" in dot and "2 -> 0;" in dot


def test_export_dot_labels_and_clusters():
    t = random_tournament(4, 1)
    dot = export_dot(
        t,
        labels={0: "a", 1: "b", 2: "c", 3: "d"},
        clusters=[("left", [("left_in", [0, 1])]), ("right", [("right_in", [2, 3])])],
    )
    assert 'label="a"' in dot
    assert "subgraph cluster_left {" in dot
    assert "subgraph cluster_right_in {" in dot
    assert dot.count(" -> ") == 6


def test_export_dot_edge_count_matches_pairs():
    for seed in range(10):
        n = 2 + seed % 7
        t = random_tournament(n, 6000 + seed)
        assert export_dot(t).count(" -> ") == n * (n - 1) // 2
