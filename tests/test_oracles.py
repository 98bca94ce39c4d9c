"""The oracles stay independent of the library they check."""

import ast
from pathlib import Path

from oracles import oracle_labeled

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_tournament_from_the_library():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tournsol":
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "tournsol"]
    assert imported == ["tournsol.Tournament"]


def test_oracle_labeled_yields_each_labelled_tournament_once():
    for n in range(1, 6):
        tournaments = list(oracle_labeled(n))
        assert len(tournaments) == len(set(tournaments)) == 2 ** (n * (n - 1) // 2)
