"""An order-36 tournament whose Banks set and bipartisan set are disjoint.

The 36 alternatives carry coordinates (i, j, k): block i in {0, 1, 2, 3},
triangle j in {1, 2, 3} within the block, element k in {1, 2, 3} within
the triangle.  Alternative ids are 9*i + 3*(j-1) + (k-1).  Block 0 is the
center; blocks 1..3 are outer.  Indices j and k are cyclic: after 3 comes
1.

Dominance is decided by six rules, applied with x = (i1, j1, k1) against
y = (i2, j2, k2); each unordered pair matches exactly one rule instance
(asserted during construction):

1. same block, same triangle: k beats the cyclically next k
   (outer triangles may be reoriented, see ``build_t36_variant``);
2. same block, different triangles: triangle j beats triangle j+1 whole;
3. center triangle j beats all of outer block j;
4. center (0, j, k) against block j-1: beats its triangle k, loses to the
   other two triangles;
5. center (0, j, k) against block j+1: beats element k of each triangle,
   loses to the other elements;
6. outer block i against outer block i-1: triangle j of block i beats the
   elements j+1 of block i-1 and loses to the rest.

The resulting tournament splits: its bipartisan set is the center and its
Banks set is everything else, and the split survives arbitrary
reorientation of the nine outer triangles.  ``verify_t36`` recomputes all
of this from scratch and returns an itemised report document.
"""

from __future__ import annotations

import random
from functools import lru_cache
from collections.abc import Callable, Iterable, Mapping, Sequence

from .core import Tournament, _row_defects, is_automorphism, iter_bits, maximal_transitive_subsets
from .games import equilibrium_slacks
from .solutions import banks_set, bipartisan_set, copeland_set

__all__ = [
    "CENTER",
    "CYCLIC_ORIENTATION",
    "OUTER_TRIANGLES",
    "block",
    "build_t36",
    "build_t36_variant",
    "classify",
    "dot_clusters",
    "orbits",
    "random_orientations",
    "rotation",
    "symmetry_generators",
    "triangle",
    "twist",
    "verify_t36",
    "vertex_coords",
    "vertex_id",
    "vertex_label",
]

_NEXT = (0, 2, 3, 1)  # cyclic successor on {1, 2, 3}; slot 0 unused
_PREV = (0, 3, 1, 2)

#: Orientation value whose three bits all point along the cycle 1>2>3>1.
CYCLIC_ORIENTATION = 0b111

#: The nine (block, triangle) pairs outside the center.
OUTER_TRIANGLES = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))


def vertex_id(i: int, j: int, k: int) -> int:
    """Alternative id of coordinates (block i, triangle j, element k)."""
    if i not in (0, 1, 2, 3) or j not in (1, 2, 3) or k not in (1, 2, 3):
        raise ValueError(f"bad coordinates ({i}, {j}, {k})")
    return 9 * i + 3 * (j - 1) + (k - 1)


def vertex_coords(v: int) -> tuple[int, int, int]:
    if v < 0 or v > 35:
        raise ValueError(f"alternative {v} outside 0..35")
    i, r = divmod(v, 9)
    j, k = divmod(r, 3)
    return i, j + 1, k + 1


def vertex_label(v: int) -> str:
    i, j, k = vertex_coords(v)
    return f"v{i}_{j}_{k}"


def block(i: int) -> frozenset[int]:
    if i not in (0, 1, 2, 3):
        raise ValueError(f"block {i} outside 0..3")
    return frozenset(range(9 * i, 9 * i + 9))


def triangle(i: int, j: int) -> frozenset[int]:
    base = vertex_id(i, j, 1)
    return frozenset((base, base + 1, base + 2))


#: The nine central alternatives (block 0).
CENTER = block(0)
_CENTER_MASK = sum(1 << v for v in CENTER)


def _subject_decisions(
    a: tuple[int, int, int],
    b: tuple[int, int, int],
    orientations: Mapping[tuple[int, int], int],
) -> list[bool]:
    """Outcomes of the rules that have ``a`` on their left-hand side."""
    i1, j1, k1 = a
    i2, j2, k2 = b
    if i1 == i2:
        if j1 == j2:
            if k2 == _NEXT[k1]:
                if i1 == 0:
                    return [True]
                return [bool(orientations[i1, j1] >> (k1 - 1) & 1)]
            return []
        return [True] if j2 == _NEXT[j1] else []
    if i1 == 0:
        if i2 == j1:
            return [True]
        if i2 == _PREV[j1]:
            return [k1 == j2]
        # i2 lies in {1, 2, 3} = {j1, _PREV[j1], _NEXT[j1]}: here i2 == _NEXT[j1]
        return [k1 == k2]
    if i2 == 0:
        return []
    if i2 == _PREV[i1]:
        return [j1 == _PREV[k2]]
    return []


def build_t36_variant(orientations: Mapping[tuple[int, int], int]) -> Tournament:
    """Build the tournament with chosen orientations of the outer triangles.

    ``orientations`` maps each of the nine OUTER_TRIANGLES keys to a value
    in 0..7; bit (k-1) set means element k beats element k+1 of that
    triangle, so ``CYCLIC_ORIENTATION`` everywhere reproduces the default
    construction.  Every ordered pair must be decided by exactly one rule
    instance; a violation raises AssertionError.
    """
    if set(orientations) != set(OUTER_TRIANGLES):
        raise ValueError("orientations must cover exactly the nine outer triangles")
    for key, value in orientations.items():
        if not isinstance(value, int) or value < 0 or value > 7:
            raise ValueError(f"orientation for triangle {key} must be an int in 0..7")

    coords = [vertex_coords(v) for v in range(36)]
    rows = [0] * 36
    for x in range(36):
        for y in range(x + 1, 36):
            decisions = _subject_decisions(coords[x], coords[y], orientations)
            decisions += [not d for d in _subject_decisions(coords[y], coords[x], orientations)]
            if len(decisions) != 1:
                raise AssertionError(
                    f"pair ({vertex_label(x)}, {vertex_label(y)}) decided "
                    f"{len(decisions)} times"
                )
            if decisions[0]:
                rows[x] |= 1 << y
            else:
                rows[y] |= 1 << x
    return Tournament._from_masks(36, rows)


@lru_cache(maxsize=1)
def build_t36() -> Tournament:
    """The tournament with all small triangles cyclically oriented."""
    return build_t36_variant(dict.fromkeys(OUTER_TRIANGLES, CYCLIC_ORIENTATION))


def random_orientations(seed: int) -> dict[tuple[int, int], int]:
    """Deterministic random orientation assignment for the outer triangles.

    Draws one value in 0..7 per triangle from ``random.Random(seed)``
    (Mersenne Twister), triangles in OUTER_TRIANGLES order.  The seed
    must be nonnegative: ``random.Random`` seeds with the absolute value,
    so -s would draw the same orientations as s.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    return {key: rng.randrange(8) for key in OUTER_TRIANGLES}


def _relabel(move: Callable[[int, int, int], tuple[int, int, int]]) -> tuple[int, ...]:
    """The permutation sending each alternative to the coordinates ``move`` gives."""
    return tuple(vertex_id(*move(*vertex_coords(v))) for v in range(36))


def rotation() -> tuple[int, ...]:
    """Automorphism advancing outer blocks 1>2>3>1 and center triangles."""
    return _relabel(lambda i, j, k: (0, _NEXT[j], k) if i == 0 else (_NEXT[i], j, k))


def twist(sector: int) -> tuple[int, ...]:
    """Automorphism fixing outer block ``sector`` pointwise on triangles.

    Rotates the elements of center triangle ``sector``, the triangles of
    block sector-1, and the elements within each triangle of block
    sector+1; everything else stays put.
    """
    if sector not in (1, 2, 3):
        raise ValueError(f"sector {sector} outside 1..3")

    def move(i: int, j: int, k: int) -> tuple[int, int, int]:
        if i == _PREV[sector]:
            return i, _NEXT[j], k
        if i == _NEXT[sector] or (i, j) == (0, sector):
            return i, j, _NEXT[k]
        return i, j, k

    return _relabel(move)


def symmetry_generators() -> list[tuple[int, ...]]:
    return [rotation(), twist(1), twist(2), twist(3)]


def orbits(t: Tournament, generators: Iterable[Sequence[int]]) -> tuple[frozenset[int], ...]:
    """Orbit partition of the group generated by the given automorphisms.

    Each orbit is closed from its smallest member, so they come sorted by
    it.  Raises ValueError when a generator is not an automorphism of ``t``.
    """
    gens = list(generators)
    for idx, perm in enumerate(gens):
        if not is_automorphism(t, perm):
            raise ValueError(f"generator {idx} is not an automorphism")
    parts = []
    unplaced = (1 << t.order) - 1
    while unplaced:
        orbit = frontier = unplaced & -unplaced
        while frontier:
            images = 0
            for v in iter_bits(frontier):
                for perm in gens:
                    images |= 1 << perm[v]
            frontier = images & ~orbit
            orbit |= frontier
        unplaced &= ~orbit
        parts.append(frozenset(iter_bits(orbit)))
    return tuple(parts)


def classify(t: Tournament) -> str | None:
    """"canonical" for the default build, "variant" when it differs from
    the default only inside outer small triangles, else None."""
    if t.order != 36:
        return None
    base = build_t36()
    if t == base:
        return "canonical"
    for x in range(36):
        i1, j1, _ = vertex_coords(x)
        for y in iter_bits(t.dominion_mask(x) ^ base.dominion_mask(x)):
            i2, j2, _ = vertex_coords(y)
            if i1 == 0 or i1 != i2 or j1 != j2:
                return None
    return "variant"


def dot_clusters() -> list[tuple[str, list[tuple[str, list[int]]]]]:
    """Nested block/triangle grouping for DOT export of order-36 builds."""
    out = []
    for i in range(4):
        subs = [(f"block{i}_tri{j}", sorted(triangle(i, j))) for j in (1, 2, 3)]
        out.append((f"block{i}", subs))
    return out


# ---------------------------------------------------------------------------
# verification


def _result(name: str, ok: bool, details: dict) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _skipped(name: str) -> dict:
    return {"name": name, "status": "skipped", "details": {"reason": "triangle orientation dependent"}}


_EXPECTED_BANKS = frozenset(range(9, 36))

# Dominion of alternative 8 = (0,3,3): its center triangle predecessor and
# next center triangle, all of block 3, triangle 3 of block 2, element 3 of
# each triangle of block 1.
_V8_DOMINION = frozenset({6, 0, 1, 2, 11, 14, 17, 24, 25, 26}) | block(3)

# Each spoiler set is dominated whole by one alternative of triangle (2, 2),
# and every maximal transitive subset of center-triangle-1 plus block 3
# fits inside some spoiler set.
_SPOILERS = (
    (21, frozenset({1, 2}) | triangle(3, 1) | triangle(3, 2)),
    (22, frozenset({0, 2}) | triangle(3, 2) | triangle(3, 3)),
    (23, frozenset({0, 1}) | triangle(3, 1) | triangle(3, 3)),
)


def _check_validity(t: Tournament) -> dict:
    bad = [(x, y) for x, y, _ in _row_defects(t.row_masks)]
    return _result("validity", not bad, {"undecided_or_double": bad})


def _check_bipartisan(t: Tournament) -> tuple[dict, frozenset[int]]:
    from fractions import Fraction

    ninth = Fraction(1, 9)
    support, lottery = bipartisan_set(t)
    slacks = equilibrium_slacks(t.skew_adjacency(), lottery)
    outside_ninth = all(slacks[v] == ninth for v in range(36) if v not in CENTER)
    ok = (
        support == CENTER
        and all(lottery[v] == ninth for v in CENTER)
        and all(slacks[v] == 0 for v in CENTER)
        and outside_ninth
    )
    details = {
        "support": sorted(support),
        "expected_support": sorted(CENTER),
        "weights": {str(v): str(lottery[v]) for v in sorted(support)},
        "outside_slacks_all_one_ninth": outside_ninth,
    }
    return _result("bipartisan_lottery", ok, details), support


def _check_cross_degrees(t: Tournament) -> dict:
    bad = {}
    for y in range(9, 36):
        beats = (t.dominion_mask(y) & _CENTER_MASK).bit_count()
        loses = (t.dominators_mask(y) & _CENTER_MASK).bit_count()
        if (beats, loses) != (4, 5):
            bad[str(y)] = [beats, loses]
    spot = sorted(t.dominators(11) & CENTER)
    spot_ok = spot == [0, 1, 2, 3, 8]
    return _result(
        "center_cross_degrees",
        not bad and spot_ok,
        {"deviations": bad, "central_dominators_of_11": spot},
    )


def _check_banks(t: Tournament) -> tuple[dict, frozenset[int]]:
    computed = banks_set(t)
    details = {
        "banks": sorted(computed),
        "expected": sorted(_EXPECTED_BANKS),
    }
    return _result("banks_set", computed == _EXPECTED_BANKS, details), computed


def _check_partition(banks: frozenset[int], support: frozenset[int]) -> dict:
    ok = not (banks & support) and banks | support == frozenset(range(36))
    return _result(
        "partition",
        ok,
        {"intersection": sorted(banks & support), "missing": sorted(frozenset(range(36)) - (banks | support))},
    )


def _check_degree_profile(t: Tournament) -> dict:
    bad = {}
    for v in range(36):
        want = 19 if v in CENTER else 17
        got = t.copeland_score(v)
        if got != want:
            bad[str(v)] = [got, want]
    return _result("degree_profile", not bad, {"deviations": bad})


def _check_copeland(t: Tournament) -> dict:
    winners = copeland_set(t)
    return _result(
        "copeland_winners",
        winners == CENTER,
        {"winners": sorted(winners), "expected": sorted(CENTER)},
    )


def _check_symmetry(t: Tournament) -> dict:
    gens = symmetry_generators()
    try:
        parts = orbits(t, gens)
    except ValueError:  # name every generator that is not an automorphism
        names = ["rotation", "twist1", "twist2", "twist3"]
        failing = [name for name, g in zip(names, gens) if not is_automorphism(t, g)]
        return _result("symmetry_orbits", False, {"non_automorphisms": failing})
    expected = (CENTER, frozenset(range(9, 36)))
    return _result(
        "symmetry_orbits",
        parts == expected,
        {"orbit_sizes": [len(p) for p in parts]},
    )


def _check_center_structure(t: Tournament) -> dict:
    regular = all((t.dominion_mask(v) & _CENTER_MASK).bit_count() == 4 for v in CENTER)
    subsets = maximal_transitive_subsets(t, CENTER)
    sizes_ok = all(len(s) == 4 for s in subsets)
    undominated = []
    dominator_counts: dict[int, int] = {}
    for s in subsets:
        s_mask = sum(1 << v for v in s)
        count = sum(
            t.dominion_mask(y) & s_mask == s_mask for y in range(9, 36)
        )
        dominator_counts[count] = dominator_counts.get(count, 0) + 1
        if count == 0:
            undominated.append(sorted(s))
    ok = regular and len(subsets) == 27 and sizes_ok and not undominated
    # dominator_counts is reported, not asserted: existence of an outside
    # dominator is required, uniqueness is only observed.
    return _result(
        "center_structure",
        ok,
        {
            "regular_degree_4": regular,
            "maximal_transitive_subsets": len(subsets),
            "all_size_4": sizes_ok,
            "undominated_subsets": undominated,
            "outside_dominator_count_histogram": {
                str(k): v for k, v in sorted(dominator_counts.items())
            },
        },
    )


def _check_spoilers(t: Tournament) -> dict:
    dominion_ok = t.dominion(8) == _V8_DOMINION
    cover_ok = all(s <= t.dominion(y) for y, s in _SPOILERS)
    space = triangle(0, 1) | block(3)
    uncovered = []
    for s in maximal_transitive_subsets(t, space):
        if not any(s <= spoiler for _, spoiler in _SPOILERS):
            uncovered.append(sorted(s))
    ok = dominion_ok and cover_ok and not uncovered
    return _result(
        "spoiler_cover",
        ok,
        {
            "dominion_of_8_matches": dominion_ok,
            "spoilers_dominated": cover_ok,
            "subsets_outside_spoilers": uncovered,
        },
    )


def verify_t36(t: Tournament) -> dict:
    """Recompute and check every structural claim about the construction.

    Returns the document that ``report_schema.json`` defines, with mode
    "canonical", "variant" or "general".  Each check is a dict
    ``{"name", "status", "details"}``, and ``overall_pass`` is true
    unless some check has status "fail".

    Accepts any order-36 tournament.  For recognised variants (differing
    from the default build only inside outer small triangles) the degree
    profile and symmetry checks are skipped: triangle reorientation
    changes individual degrees and need not preserve the automorphisms,
    while every other property is orientation independent.
    """
    if t.order != 36:
        raise ValueError(f"expected an order-36 tournament, got order {t.order}")
    mode = classify(t) or "general"
    # The partition check needs the sets these two checks compute.
    bipartisan_check, support = _check_bipartisan(t)
    banks_check, banks = _check_banks(t)
    checks = [
        _check_validity(t),
        bipartisan_check,
        _check_cross_degrees(t),
        banks_check,
        _check_partition(banks, support),
        _skipped("degree_profile") if mode == "variant" else _check_degree_profile(t),
        _check_copeland(t),
        _skipped("symmetry_orbits") if mode == "variant" else _check_symmetry(t),
        _check_center_structure(t),
        _check_spoilers(t),
    ]
    return {
        "schema_version": 1,
        "order": 36,
        "mode": mode,
        "overall_pass": all(c["status"] != "fail" for c in checks),
        "checks": checks,
    }
