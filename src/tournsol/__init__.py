"""Exact solvers for tournament solution concepts.

A tournament is a complete asymmetric digraph: every pair of alternatives
is decided one way. This package computes the classical choice sets
(Copeland, top cycle, uncovered, Banks, bipartisan) with exact rational
arithmetic, ships a hand-built order-36 tournament with a fully scripted
verification of its structure, and provides search utilities for finding
tournaments that separate one solution concept from another.
"""

from . import core, games, io, search, solutions, t36
from .core import *  # noqa: F403
from .games import *  # noqa: F403
from .io import *  # noqa: F403
from .search import *  # noqa: F403
from .solutions import *  # noqa: F403
from .t36 import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *games.__all__,
    *io.__all__,
    *search.__all__,
    *solutions.__all__,
    *t36.__all__,
]
