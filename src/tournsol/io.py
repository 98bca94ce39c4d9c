"""Tournament file format and DOT export.

File format: the first line holds the order n in decimal, with no
leading zero; the next n lines hold exactly n characters each from
{0, 1}, where line x+2, column y+1 is 1 iff x dominates y.  Every line
ends with a newline and the file contains nothing else, so
``format_tournament(parse_tournament(text)) == text`` for every text the
parser accepts.  Syntax problems raise ParseError with a 1-based
line and column; structurally well-formed files describing a non-
tournament (self-dominance, a pair decided twice or not at all) raise
InvariantError instead.
"""

from __future__ import annotations

import os
import sys

from .core import Tournament, _row_defects, iter_bits

__all__ = [
    "InvariantError",
    "ParseError",
    "export_dot",
    "format_tournament",
    "parse_tournament",
    "read_tournament",
]


class ParseError(ValueError):
    """Malformed tournament file; carries the offending 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InvariantError(ValueError):
    """Well-formed file whose matrix is not a tournament."""


def parse_tournament(text: str) -> Tournament:
    if not text.endswith("\n"):
        tail = text.rsplit("\n", 1)[-1]
        raise ParseError(
            "missing final newline", text.count("\n") + 1, len(tail) + 1
        )
    lines = text.split("\n")[:-1]
    header = lines[0]
    if not (header.isascii() and header.isdigit()):
        raise ParseError(f"order must be a decimal integer, got {header!r}", 1, 1)
    if len(header) > 1 and header[0] == "0":
        raise ParseError("order has a leading zero", 1, 1)
    try:
        n = int(header)
    except ValueError:  # ASCII digits fail int() only on its limit, new in 3.10.7
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"order has {len(header)} digits, more than {limit}", 1, 1) from None
    if n < 1:
        raise ParseError("order must be at least 1", 1, 1)
    if len(lines) - 1 != n:
        # the line after the header and the first min(found, n) rows
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}",
                         min(len(lines), n + 1) + 1, 1)
    rows = []
    for x, row in enumerate(lines[1:]):
        if len(row) != n:
            raise ParseError(
                f"row has {len(row)} characters, expected {n}",
                x + 2,
                min(len(row), n) + 1,
            )
        bad = row.lstrip("01")
        if bad:
            raise ParseError(f"invalid character {bad[0]!r}", x + 2, n - len(bad) + 1)
        # column y is bit y; the int digit limit does not apply to base 2
        rows.append(int(row[::-1], 2))
    for _, _, message in _row_defects(rows):
        raise InvariantError(message)
    return Tournament._from_masks(n, rows)


def format_tournament(t: Tournament) -> str:
    n = t.order
    # bit y of row x is cell (x, y); binary digits run from the high bit down
    lines = [str(n)] + [format(mask, f"0{n}b")[::-1] for mask in t.row_masks]
    return "\n".join(lines) + "\n"


def read_tournament(path: str | os.PathLike) -> Tournament:
    # latin-1 maps each byte to one character, so a stray non-ASCII byte
    # reaches the parser and is reported with its line and column.
    with open(path, "r", encoding="latin-1", newline="") as fh:
        return parse_tournament(fh.read())


def export_dot(
    t: Tournament,
    labels: dict[int, str] | None = None,
    clusters: list[tuple[str, list[tuple[str, list[int]]]]] | None = None,
) -> str:
    """DOT digraph with one edge per dominance pair.

    ``clusters`` optionally groups alternatives into nested subgraphs,
    as a list of (name, [(subname, members), ...]) entries.
    """
    out = ["digraph tournament {"]

    def node_line(v: int, indent: str) -> str:
        if labels and v in labels:
            return f'{indent}{v} [label="{labels[v]}"];'
        return f"{indent}{v};"

    clustered: set[int] = set()
    if clusters:
        for name, subs in clusters:
            out.append(f"  subgraph cluster_{name} {{")
            out.append(f'    label="{name}";')
            for subname, members in subs:
                out.append(f"    subgraph cluster_{subname} {{")
                out.append(f'      label="{subname}";')
                for v in members:
                    out.append(node_line(v, "      "))
                    clustered.add(v)
                out.append("    }")
            out.append("  }")
    for v in range(t.order):
        if v not in clustered:
            out.append(node_line(v, "  "))
    for x in range(t.order):
        for y in iter_bits(t.dominion_mask(x)):
            out.append(f"  {x} -> {y};")
    out.append("}")
    return "\n".join(out) + "\n"
