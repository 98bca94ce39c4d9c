"""Immutable tournaments with bitmask dominance queries.

A tournament is a complete asymmetric relation on alternatives 0..n-1:
for every pair x != y exactly one of "x dominates y" or "y dominates x"
holds.  Dominance is stored one machine integer per alternative (bit y of
row x is set iff x dominates y), which keeps subset operations cheap and
the structure hashable.  Dominators are derived from the rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "Tournament",
    "is_automorphism",
    "iter_bits",
    "maximal_transitive_subsets",
]

_TRANSITIVE_CAP = 16  # largest ``within`` maximal_transitive_subsets accepts


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_defects(rows: Sequence[int]):
    """Yield (x, y, message) for each way ``rows`` fail to be a tournament.

    For each x ascending: (x, x) if x dominates itself, then each pair
    (x, y), y > x ascending, that is decided in both directions or in
    neither.  Every check of the tournament invariant runs through here.
    """
    for x, row in enumerate(rows):
        if row >> x & 1:
            yield x, x, f"alternative {x} marked as dominating itself"
        for y in range(x + 1, len(rows)):
            if (row >> y & 1) == (rows[y] >> x & 1):
                claim = "dominated in both directions" if row >> y & 1 else "left undecided"
                yield x, y, f"pair ({x}, {y}) {claim}"


class Tournament:
    """Complete asymmetric dominance structure on 0..n-1.

    Instances are immutable; every operation returns fresh values.  The
    constructor accepts a square 0/1 (or boolean) matrix with entry
    (x, y) truthy iff x dominates y, and rejects anything that is not a
    tournament: a truthy diagonal entry, a pair claimed in both
    directions, or a pair claimed in neither.
    """

    __slots__ = ("_n", "_rows", "_carrier")

    def __init__(self, matrix: Sequence[Sequence[object]]):
        n = len(matrix)
        if n == 0:
            raise ValueError("tournament needs at least one alternative")
        rows = []
        for x, row in enumerate(matrix):
            if len(row) != n:
                raise ValueError(f"row {x} has length {len(row)}, expected {n}")
            mask = 0
            for y, cell in enumerate(row):
                if cell:
                    mask |= 1 << y
            rows.append(mask)
        for _, _, message in _row_defects(rows):
            raise ValueError(message)
        self._store(n, rows)

    def _store(self, n: int, rows: Sequence[int]) -> None:
        self._n = n
        self._rows = tuple(rows)
        self._carrier = (1 << n) - 1

    @classmethod
    def _from_masks(cls, n: int, rows: Sequence[int]) -> "Tournament":
        # Trusted fast path for generators that construct valid rows directly.
        t = cls.__new__(cls)
        t._store(n, rows)
        return t

    @property
    def order(self) -> int:
        return self._n

    @property
    def row_masks(self) -> tuple[int, ...]:
        return self._rows

    def dominates(self, x: int, y: int) -> bool:
        return bool(self._rows[x] >> y & 1)

    def dominion_mask(self, x: int) -> int:
        return self._rows[x]

    def dominators_mask(self, x: int) -> int:
        # Row x lies inside the carrier without x, so XOR takes it away.
        return self._carrier ^ (1 << x) ^ self._rows[x]

    def dominion(self, x: int) -> frozenset[int]:
        """Alternatives that x dominates."""
        return frozenset(iter_bits(self._rows[x]))

    def dominators(self, x: int) -> frozenset[int]:
        """Alternatives that dominate x."""
        return frozenset(iter_bits(self.dominators_mask(x)))

    def copeland_score(self, x: int) -> int:
        return self._rows[x].bit_count()

    def copeland_scores(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self._rows)

    def restrict(self, members: Iterable[int]) -> tuple["Tournament", tuple[int, ...]]:
        """Subtournament on ``members`` plus the map back to parent ids.

        Position i of the returned index map is the parent alternative
        that became alternative i of the restriction (members ascending).
        """
        index_map = tuple(sorted(set(members)))
        if not index_map:
            raise ValueError("restriction to the empty set")
        if index_map[0] < 0 or index_map[-1] >= self._n:
            raise ValueError("restriction members outside the carrier")
        rows = []
        for x in index_map:
            mask = 0
            for j, y in enumerate(index_map):
                if self._rows[x] >> y & 1:
                    mask |= 1 << j
            rows.append(mask)
        return Tournament._from_masks(len(index_map), rows), index_map

    def skew_adjacency(self) -> list[list[int]]:
        """Matrix with entry (x, y) = +1 if x dominates y, -1 if y dominates x."""
        n = self._n
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            row = self._rows[x]
            for y in range(n):
                if row >> y & 1:
                    out[x][y] = 1
                    out[y][x] = -1
        return out

    def apply_permutation(self, perm: Sequence[int]) -> "Tournament":
        """Relabel alternatives: image dominates image exactly as the originals."""
        n = self._n
        _check_permutation(perm, n)
        rows = [0] * n
        for x in range(n):
            mask = 0
            for y in iter_bits(self._rows[x]):
                mask |= 1 << perm[y]
            rows[perm[x]] = mask
        return Tournament._from_masks(n, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Tournament(order={self._n})"


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm!r}")


def is_automorphism(t: Tournament, perm: Sequence[int]) -> bool:
    """True iff relabelling by ``perm`` maps the tournament onto itself."""
    return t.apply_permutation(perm) == t


def _members_mask(t: Tournament, members: Iterable[int]) -> int:
    mask = 0
    for x in members:
        if x < 0 or x >= t.order:
            raise ValueError(f"alternative {x} outside the carrier")
        mask |= 1 << x
    return mask


def maximal_transitive_subsets(
    t: Tournament,
    within: Iterable[int] | None = None,
) -> list[frozenset[int]]:
    """All inclusion-maximal transitive subsets of ``within``.

    Maximality is relative to ``within`` (default: the full carrier).
    Enumeration walks dominance chains top down, extending a chain only by
    alternatives dominated by every current member, so each transitive set
    is produced exactly once.  A set is recorded when nothing below extends
    it and no outside alternative can be inserted at any position.  The
    mask of members that could be inserted is passed down the recursion:
    a fitting alternative sits directly below the chain members that beat
    it, so appending c below the last member l takes out only c and what
    beats l but loses to c.

    Raises ValueError when ``within`` has more than ``_TRANSITIVE_CAP``
    members; the subset count can grow exponentially.
    """
    if within is None:
        within_mask = (1 << t.order) - 1
    else:
        within_mask = _members_mask(t, within)
    k = within_mask.bit_count()
    if k == 0:
        raise ValueError("empty carrier subset")
    if k > _TRANSITIVE_CAP:
        raise ValueError(f"subset of size {k} exceeds cap {_TRANSITIVE_CAP}")

    results: list[frozenset[int]] = []
    chain: list[int] = []

    def grow(cand_mask: int, fit: int) -> None:
        if cand_mask == 0:
            if fit == 0:
                results.append(frozenset(chain))
            return
        for c in iter_bits(cand_mask):
            after = fit & ~(1 << c)
            if chain:
                after &= ~(t.dominators_mask(chain[-1]) & t.dominion_mask(c))
            chain.append(c)
            grow(cand_mask & t.dominion_mask(c), after)
            chain.pop()

    grow(within_mask, within_mask)
    results.sort(key=sorted)
    return results
