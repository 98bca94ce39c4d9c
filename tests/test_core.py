"""Tournament representation and transitive-subset machinery."""

import pytest

from tournsol import (
    CENTER,
    Tournament,
    block,
    build_t36,
    isomorphism_class_representatives,
    iter_bits,
    maximal_transitive_subsets,
    random_tournament,
    triangle,
)
from tournsol.search import _extensions

from oracles import oracle_labeled, oracle_maximal_transitive_subsets

CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_rejects_self_dominance():
    with pytest.raises(ValueError, match=r"^alternative 0 marked as dominating itself$"):
        Tournament([[1, 1], [0, 0]])


def test_rejects_undecided_pair():
    with pytest.raises(ValueError, match=r"^pair \(0, 1\) left undecided$"):
        Tournament([[0, 0], [0, 0]])


def test_rejects_double_dominance():
    with pytest.raises(ValueError, match=r"^pair \(0, 1\) dominated in both directions$"):
        Tournament([[0, 1], [1, 0]])


def test_names_the_first_defect_in_checking_order():
    # x ascending; for each x its self-dominance, then its pairs (x, y), y > x
    cases = [
        ([[0, 1, 0], [0, 1, 1], [0, 0, 0]], "pair (0, 2) left undecided"),
        ([[0, 1, 1], [0, 1, 1], [1, 0, 0]], "pair (0, 2) dominated in both directions"),
        ([[0, 1, 1], [0, 1, 0], [0, 0, 0]], "alternative 1 marked as dominating itself"),
    ]
    for matrix, message in cases:
        with pytest.raises(ValueError) as err:
            Tournament(matrix)
        assert str(err.value) == message


def test_rejects_ragged_matrix():
    with pytest.raises(ValueError, match=r"^row 1 has length 1, expected 2$"):
        Tournament([[0, 1], [0]])


def test_truthy_entries_act_as_ones():
    assert Tournament([[0, 2], [0, 0]]) == Tournament([[False, True], [False, False]])


def test_empty_tournament_rejected():
    with pytest.raises(ValueError):
        Tournament([])


def test_single_vertex():
    t = Tournament([[0]])
    assert t.order == 1
    assert t.copeland_scores() == (0,)
    assert t.dominion(0) == frozenset()


def test_dominates_matches_matrix():
    t = Tournament(CYCLE3)
    assert t.dominates(0, 1) and t.dominates(1, 2) and t.dominates(2, 0)
    assert not t.dominates(1, 0)
    assert not t.dominates(0, 0)


def test_dominion_and_dominators_partition_everyone_else():
    # every way a Tournament is built: validating constructor, generators,
    # the class walk's extensions, restriction and relabelling
    randoms = [random_tournament(2 + seed % 9, seed) for seed in range(25)]
    built = list(randoms)
    built += [Tournament(_matrix(t)) for t in randoms]
    built += [t for n in range(1, 5) for t in oracle_labeled(n)]
    built += [e for t in randoms[:5] for e in _extensions(t)]
    built += [t.restrict(range(0, t.order, 2))[0] for t in randoms]
    built += [t.apply_permutation(list(reversed(range(t.order)))) for t in randoms]
    for t in built:
        n = t.order
        for x in range(n):
            dom = t.dominion(x)
            sub = t.dominators(x)
            assert x not in dom and x not in sub
            assert dom & sub == frozenset()
            assert dom | sub == frozenset(range(n)) - {x}
            assert t.dominators_mask(x) == sum(1 << y for y in range(n) if t.dominates(y, x))


def test_copeland_scores_sum_to_pair_count():
    for seed in range(20):
        n = 2 + seed % 10
        t = random_tournament(n, 50 + seed)
        assert sum(t.copeland_scores()) == n * (n - 1) // 2


def _matrix(t):
    return [[mask >> y & 1 for y in range(t.order)] for mask in t.row_masks]


def test_row_masks_round_trip():
    for seed in range(10):
        t = random_tournament(6, seed)
        assert Tournament(_matrix(t)).row_masks == t.row_masks


def test_restrict_preserves_edges():
    for seed in range(15):
        t = random_tournament(8, 200 + seed)
        members = {1, 3, 4, 7}
        sub, index_map = t.restrict(members)
        assert sub.order == 4
        assert list(index_map) == sorted(members)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert sub.dominates(a, b) == t.dominates(index_map[a], index_map[b])


def test_restrict_rejects_foreign_members():
    t = random_tournament(5, 0)
    with pytest.raises(ValueError):
        t.restrict({1, 9})


def test_skew_adjacency_is_skew_symmetric():
    for seed in range(10):
        n = 3 + seed % 5
        t = random_tournament(n, 300 + seed)
        m = t.skew_adjacency()
        for x in range(n):
            assert m[x][x] == 0
            for y in range(n):
                assert m[x][y] == -m[y][x]
                if x != y:
                    assert m[x][y] == (1 if t.dominates(x, y) else -1)


def test_apply_permutation_round_trip():
    for seed in range(10):
        t = random_tournament(7, 400 + seed)
        perm = [3, 0, 6, 1, 5, 2, 4]
        inverse = [perm.index(y) for y in range(len(perm))]
        forward = t.apply_permutation(perm)
        assert forward.apply_permutation(inverse) == t


def test_apply_permutation_rejects_non_bijection():
    t = random_tournament(3, 0)
    with pytest.raises(ValueError):
        t.apply_permutation([0, 0, 2])


def test_hash_consistent_with_equality():
    a = Tournament(CYCLE3)
    b = Tournament([row[:] for row in CYCLE3])
    assert a == b and hash(a) == hash(b)
    assert a != random_tournament(3, 1) or a == random_tournament(3, 1)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_maximal_transitive_subsets_match_oracle():
    for seed in range(30):
        n = 3 + seed % 5
        t = random_tournament(n, 600 + seed)
        got = set(maximal_transitive_subsets(t))
        assert got == set(oracle_maximal_transitive_subsets(t))


def test_maximal_transitive_subsets_within_restriction():
    for seed in range(12):
        t = random_tournament(9, 700 + seed)
        within = frozenset({0, 2, 4, 6, 8})
        got = set(maximal_transitive_subsets(t, within))
        assert got == set(oracle_maximal_transitive_subsets(t, within))
        for s in got:
            assert s <= within


def test_maximal_transitive_subsets_list_equals_the_sorted_oracle():
    # Compared as lists, so order and duplicates count as well as members.
    import random

    cases = [(t, None) for n in range(1, 8) for t in isomorphism_class_representatives(n)]
    rng = random.Random(12)
    for _ in range(10):
        t = random_tournament(12, rng.getrandbits(32))
        cases.append((t, rng.sample(range(12), rng.randint(6, 12))))
    t36 = build_t36()  # the two subsets verify-paper enumerates
    cases += [(t36, CENTER), (t36, triangle(0, 1) | block(3))]
    for t, within in cases:
        expected = sorted(oracle_maximal_transitive_subsets(t, within), key=sorted)
        assert maximal_transitive_subsets(t, within) == expected


def test_maximal_transitive_subsets_honors_cap():
    t = random_tournament(20, 1)
    with pytest.raises(ValueError):
        maximal_transitive_subsets(t)
    assert maximal_transitive_subsets(t, range(16))


@pytest.mark.parametrize("call, message", [
    (lambda t: t.restrict([]), "restriction to the empty set"),
    (lambda t: maximal_transitive_subsets(t, []), "empty carrier subset"),
    (lambda t: maximal_transitive_subsets(t, [t.order]), "alternative 5 outside the carrier"),
])
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(random_tournament(5, 1))
