"""Random generation, exhaustive enumeration and separation scans.

Randomness is deterministic and platform independent: tournaments are
drawn from ``random.Random`` (Mersenne Twister, stable across CPython
versions), and independent per-sample streams are derived from a master
seed with SplitMix64, ``derive_seed(master, i) =
splitmix64(splitmix64(master) ^ i)``.

Isomorphism is decided through ``canonical_form``: the lexicographically
smallest row-major 0/1 matrix encoding over all relabellings.  Exhaustive
scans walk one representative per isomorphism class and certify coverage
by checking that class sizes (n!/|Aut|) add up to the number of labelled
tournaments.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import factorial

from .core import Tournament
from .solutions import banks_set, bipartisan_set, copeland_set, top_cycle, uncovered_set

__all__ = [
    "RULES",
    "ScanOutcome",
    "ScanWitness",
    "automorphism_count",
    "canonical_form",
    "derive_seed",
    "isomorphism_class_representatives",
    "random_tournament",
    "resolve_rule",
    "scan_separation",
    "splitmix64",
]

_MASK64 = (1 << 64) - 1
_EXHAUSTIVE_CAP = 8  # highest order an exhaustive scan accepts
_CANONICAL_CAP = 9  # highest order canonical_form and automorphism_count accept


def splitmix64(z: int) -> int:
    """One SplitMix64 step (Steele, Lea and Flood's constants) on z in 0..2**64-1."""
    if not 0 <= z <= _MASK64:  # masking would alias z modulo 2**64
        raise ValueError(f"seed {z} outside 0..{_MASK64}")
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed of the index-th independent stream under ``master``; both in 0..2**64-1."""
    if not 0 <= index <= _MASK64:
        raise ValueError(f"index {index} outside 0..{_MASK64}")
    return splitmix64(splitmix64(master) ^ index)


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random tournament: every pair an independent fair draw.

    Pairs (x, y) with x < y are visited in lexicographic order and
    oriented by one bit from ``random.Random(seed)``; a set bit points
    from x to y.  The seed must be nonnegative: ``random.Random`` seeds
    with the absolute value, so -s would draw the same tournament as s.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    rows = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if rng.getrandbits(1):
                rows[x] |= 1 << y
            else:
                rows[y] |= 1 << x
    return Tournament._from_masks(n, rows)


def canonical_form(t: Tournament) -> bytes:
    """Lexicographically smallest row-major matrix encoding over relabellings.

    Two tournaments are isomorphic iff their canonical forms are equal.
    The encoding of a vertex ordering is the n*n string of cells
    "order[i] dominates order[j]", row by row, in ASCII '0'/'1'.

    Orderings are built position by position.  The unplaced vertices
    fall into classes by their column against the placed prefix (bit i:
    ``order[i]`` dominates v), and the classes are kept in increasing
    column order.  Two facts prune the search:

    - Only a vertex of the first class may come next: if a vertex with a
      larger column came next, swapping it with a first-class vertex
      would keep every earlier row and lower the first row where their
      columns differ.
    - Hence the rest of the ordering follows the classes, and a placed
      row is complete as soon as its vertex is placed: against each
      class in turn it reads a run of 0s (members dominating the vertex,
      which come first) then a run of 1s.  The earlier rows are the same
      for every first-class vertex, so only those whose row is smallest
      may come next.

    One pass over the classes gives each candidate's row and the classes
    it would leave.  Only vertices with equal rows branch, and a branch
    is cut once its rows exceed those of the best encoding found so far.
    The encoding is held as an int and written out once at the end.
    """
    n = t.order
    if n > _CANONICAL_CAP:
        raise ValueError(f"order {n} above canonicalisation cap {_CANONICAL_CAP}")
    rows = t.row_masks
    best = 1 << n * n  # above every encoding

    def descend(pos: int, enc: int, cells: list[tuple[int, int]]) -> None:
        # cells: the classes in column order as (members, bits), bits
        # being the members' shared row against the placed vertices
        nonlocal best
        if not cells:
            best = enc
            return
        first, first_bits = cells[0]
        least, splits = 1 << n, []  # a row has fewer than n bits
        while first:
            v = first & -first
            first ^= v
            row_v, row, split = rows[v.bit_length() - 1], 0, []
            for members, bits in cells:
                members &= ~v
                beaten = members & row_v
                row = row << members.bit_count() | ((1 << beaten.bit_count()) - 1)
                if members != beaten:
                    split.append((members ^ beaten, bits << 1 | 1))
                if beaten:
                    split.append((beaten, bits << 1))
            if row < least:
                least, splits = row, [split]
            elif row == least:
                splits.append(split)
        enc = enc << n | first_bits << (n - pos) | least
        if enc > best >> n * (n - pos - 1):
            return
        for split in splits:
            descend(pos + 1, enc, split)

    descend(0, 0, [((1 << n) - 1, 0)])
    return format(best, f"0{n * n}b").encode("ascii")


def automorphism_count(t: Tournament) -> int:
    """Number of relabellings mapping the tournament onto itself.

    Maps 0, 1, ... in turn.  Vertex k may go to an unused vertex c of
    the same score whose dominators among the images of 0..k-1 are the
    images of k's dominators among 0..k-1, kept per candidate as a mask
    over source labels.  Deliberately independent of ``canonical_form``,
    so that the orbit-count certificate checks the labelling.  The work
    can grow as n!, so orders above ``canonical_form``'s cap are refused.
    """
    n = t.order
    if n > _CANONICAL_CAP:
        raise ValueError(f"order {n} above automorphism cap {_CANONICAL_CAP}")
    rows = t.row_masks
    scores = [r.bit_count() for r in rows]
    # beaten_by[k]: the j < k that dominate k, as a mask
    beaten_by = [t.dominators_mask(k) & ((1 << k) - 1) for k in range(n)]

    def extend(k: int, free: int, marks: list[int]) -> int:
        # marks[c]: the j < k whose image dominates c, as a mask
        if k == n:
            return 1
        total = 0
        for c in range(n):
            if free >> c & 1 and scores[c] == scores[k] and marks[c] == beaten_by[k]:
                row = rows[c]
                total += extend(k + 1, free & ~(1 << c),
                                [m | (row >> d & 1) << k for d, m in enumerate(marks)])
        return total

    return extend(0, (1 << n) - 1, [0] * n)


def _extensions(t: Tournament):
    """All tournaments obtained by appending one new alternative."""
    n = t.order
    bit_rows = [(1 << x, row) for x, row in enumerate(t.row_masks)]
    for mask in range(1 << n):  # the new row: x beats the new one where bit x is clear
        rows = [row if mask & bit else row | 1 << n for bit, row in bit_rows]
        rows.append(mask)
        yield Tournament._from_masks(n + 1, rows)


def _certified_class_walk(max_order: int):
    """Yield ``(order, reps, covered)`` for orders 1..max_order.

    ``reps`` holds one representative per isomorphism class of the order,
    sorted by canonical form.  Order n is built by extending the
    representatives of order n-1 by one alternative in every possible way
    and deduplicating by canonical form; every class of order n contains
    an extension of some class of order n-1 (delete the last
    alternative), so the walk is exhaustive.  Each order is certified:
    the orbit sizes n!/|Aut| of its representatives must add up to
    ``covered`` = 2**C(n, 2), which proves every labelled tournament is
    accounted for exactly once.
    """
    reps = [Tournament._from_masks(1, [0])]
    for order in range(1, max_order + 1):
        if order > 1:
            seen: dict[bytes, Tournament] = {}
            for r in reps:
                for ext in _extensions(r):
                    key = canonical_form(ext)
                    if key not in seen:
                        seen[key] = ext
            reps = [seen[key] for key in sorted(seen)]
        covered = sum(factorial(order) // automorphism_count(r) for r in reps)
        expected = 1 << (order * (order - 1) // 2)
        if covered != expected:
            raise RuntimeError(
                f"class representatives of order {order} cover {covered} labelled "
                f"tournaments, expected {expected}"
            )
        yield order, reps, covered


def isomorphism_class_representatives(n: int) -> list[Tournament]:
    """One representative per isomorphism class of order-n tournaments.

    The classes come from the certified walk that exhaustive scans use,
    in the same order, sorted by canonical form.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > _CANONICAL_CAP:
        raise ValueError(f"order {n} above canonicalisation cap {_CANONICAL_CAP}")
    for _, reps, _ in _certified_class_walk(n):
        pass
    return reps


def _bipartisan_support(t: Tournament) -> frozenset[int]:
    return bipartisan_set(t)[0]


RULES = {
    "copeland": copeland_set,
    "tc": top_cycle,
    "uc": uncovered_set,
    "banks": banks_set,
    "bp": _bipartisan_support,
}

_ALIASES = {"top_cycle": "tc", "uncovered": "uc", "bipartisan": "bp"}


def resolve_rule(name: str):
    try:
        return RULES[_ALIASES.get(name, name)]
    except KeyError:
        raise ValueError(f"unknown rule {name!r}; choose from "
                         f"{', '.join(RULES)}") from None


# choice_sets: each rule's choice on the tournament, sorted
ScanWitness = namedtuple("ScanWitness", "rules tournament choice_sets")
# examined: classes (exhaustive) or samples (random) per order, ascending;
# labeled_counts: exhaustive only, labelled tournaments covered per order
ScanOutcome = namedtuple("ScanOutcome", "examined labeled_counts witnesses")


def scan_separation(rules: tuple[str, str], max_order: int, mode: str = "exhaustive",
                    sample_count: int = 0, seed: int = 0) -> ScanOutcome:
    """Search for tournaments on which the two rules choose disjoint sets.

    Exhaustive mode visits one representative per isomorphism class for
    every order up to ``max_order``; its per-order class lists are
    certified: the orbit sizes n!/|Aut| of the representatives must add
    up to 2**C(n, 2), which proves every labelled tournament is
    accounted for exactly once.  Random mode draws ``sample_count``
    tournaments of order ``max_order`` from streams derived from
    ``seed``, which must lie in 0..2**64-1.  Every parameter is checked
    before any tournament is built.
    """
    if len(rules) != 2:
        raise ValueError("exactly two rules required")
    rule_a, rule_b = (resolve_rule(name) for name in rules)
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_order < 1:
        raise ValueError("order must be at least 1")
    if mode == "exhaustive" and max_order > _EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive scan above order {_EXHAUSTIVE_CAP} not supported")
    if mode == "random" and sample_count < 1:
        raise ValueError("random mode needs at least one sample")
    if not 0 <= seed <= _MASK64:  # derive_seed's range, checked in either mode
        raise ValueError(f"seed {seed} outside 0..{_MASK64}")
    witnesses: list[ScanWitness] = []

    def note(t: Tournament) -> None:
        sa = rule_a(t)
        sb = rule_b(t)
        if not sa & sb:
            witnesses.append(ScanWitness(rules, t, (tuple(sorted(sa)), tuple(sorted(sb)))))

    if mode == "random":
        for i in range(sample_count):
            note(random_tournament(max_order, derive_seed(seed, i)))
        return ScanOutcome({max_order: sample_count}, None, tuple(witnesses))

    examined: dict[int, int] = {}
    labeled_counts: dict[int, int] = {}
    for order, reps, covered in _certified_class_walk(max_order):
        labeled_counts[order] = covered
        examined[order] = len(reps)
        for r in reps:
            note(r)
    return ScanOutcome(examined, labeled_counts, tuple(witnesses))
