"""Choice sets against definition-level oracles and known inclusions."""

import random
from fractions import Fraction

import pytest

from tournsol import (
    Tournament,
    banks_set,
    banks_witness,
    bipartisan_set,
    build_t36,
    build_t36_variant,
    copeland_set,
    isomorphism_class_representatives,
    random_orientations,
    random_tournament,
    top_cycle,
    uncovered_set,
)
from tournsol.search import _certified_class_walk

from oracles import (
    oracle_banks_set,
    oracle_banks_witness,
    oracle_bipartisan,
    oracle_copeland_set,
    oracle_is_prime,
    oracle_top_cycle,
    oracle_uncovered_set,
)

CYCLE3 = Tournament([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
CHAIN4 = Tournament([[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])


def test_three_cycle_everything_wins():
    everyone = frozenset({0, 1, 2})
    assert copeland_set(CYCLE3) == everyone
    assert top_cycle(CYCLE3) == everyone
    assert uncovered_set(CYCLE3) == everyone
    assert banks_set(CYCLE3) == everyone
    support, lottery = bipartisan_set(CYCLE3)
    assert support == everyone
    assert lottery == (Fraction(1, 3),) * 3


def test_linear_order_has_a_condorcet_winner():
    top = frozenset({0})
    assert copeland_set(CHAIN4) == top
    assert top_cycle(CHAIN4) == top
    assert uncovered_set(CHAIN4) == top
    assert banks_set(CHAIN4) == top
    support, lottery = bipartisan_set(CHAIN4)
    assert support == top
    assert lottery == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_single_alternative():
    t = Tournament([[0]])
    assert copeland_set(t) == top_cycle(t) == uncovered_set(t) == banks_set(t) == frozenset({0})
    assert bipartisan_set(t) == (frozenset({0}), (Fraction(1),))


def test_sets_match_oracles_on_random_tournaments():
    for seed in range(50):
        n = 2 + seed % 7
        t = random_tournament(n, 2000 + seed)
        assert copeland_set(t) == oracle_copeland_set(t)
        assert top_cycle(t) == oracle_top_cycle(t)
        assert uncovered_set(t) == oracle_uncovered_set(t)
        assert banks_set(t) == oracle_banks_set(t)


def test_bipartisan_matches_oracle_on_random_tournaments():
    for seed in range(30):
        n = 1 + seed % 7
        t = random_tournament(n, 2500 + seed)
        assert bipartisan_set(t) == oracle_bipartisan(t)


def test_inclusion_chain():
    for seed in range(60):
        n = 3 + seed % 8
        t = random_tournament(n, 3000 + seed)
        ba = banks_set(t)
        uc = uncovered_set(t)
        tc = top_cycle(t)
        bp, _ = bipartisan_set(t)
        co = copeland_set(t)
        assert ba <= uc <= tc
        assert bp <= uc
        assert co <= uc
        assert ba and uc and tc and bp and co


@pytest.fixture(scope="module")
def classes_to_order_7():
    # one certified walk: every isomorphism class of order 1-7, 532 in all
    return {order: reps for order, reps, _ in _certified_class_walk(7)}


def test_inclusions_hold_on_every_class_to_order_7(classes_to_order_7):
    for reps in classes_to_order_7.values():
        for t in reps:
            uc = uncovered_set(t)
            assert copeland_set(t) <= uc
            assert banks_set(t) <= uc
            assert bipartisan_set(t)[0] <= uc
            assert uc <= top_cycle(t)


def test_banks_witness_contract():
    for seed in range(40):
        n = 3 + seed % 7
        t = random_tournament(n, 3500 + seed)
        for x in range(n):
            chain = banks_witness(t, x)
            if chain is None:
                continue
            assert set(chain) <= t.dominion(x)
            for i, hi in enumerate(chain):
                for lo in chain[i + 1:]:
                    assert t.dominates(hi, lo)
            group = set(chain) | {x}
            assert not any(
                all(t.dominates(y, g) for g in group)
                for y in range(n)
                if y not in group
            )


def test_banks_witness_equals_the_list_based_search():
    # Same witness, or None, for every vertex: the mask search keeps the
    # list search's pivot and branch order exactly.
    cases = [t for n in range(1, 8) for t in isomorphism_class_representatives(n)]
    cases += [random_tournament(n, 1000 * n + s) for n in range(1, 41) for s in range(3)]
    cases += [build_t36()] + [build_t36_variant(random_orientations(s)) for s in (1, 2, 3)]
    for t in cases:
        for x in range(t.order):
            assert banks_witness(t, x) == oracle_banks_witness(t, x)


def test_banks_witness_out_of_range():
    with pytest.raises(ValueError):
        banks_witness(CYCLE3, 3)
    with pytest.raises(ValueError):
        banks_witness(CYCLE3, -1)


def test_condorcet_winner_needs_no_chain():
    assert banks_witness(CHAIN4, 0) == ()


def _deep_chain(d):
    # Vertex 0 beats the chain b_1 > ... > b_d (vertices 1..d); w_1 > ... > w_d
    # (vertices d+1..2d) beat 0, and b_i beats only w_i among the w's.  Each
    # w_i is then dominated by nothing but b_i, so 0's one witness is the
    # whole chain.
    chain = ((1 << d) - 1) << 1
    rows = [chain]
    for i in range(1, d + 1):
        rows.append(chain >> (i + 1) << (i + 1) | 1 << (d + i))
    for i in range(1, d + 1):
        rows.append(1 | chain ^ 1 << i | chain >> (i + 1) << (d + i + 1))
    return Tournament._from_masks(2 * d + 1, rows)


def test_banks_witness_longer_than_the_recursion_limit():
    # Deeper than a search that recursed per chain member could go.
    assert banks_witness(_deep_chain(1100), 0) == tuple(range(1, 1101))


def test_banks_witness_equals_the_list_search_on_relabelled_deep_chains():
    # Shuffled labels make the search insert counters mid-chain, not only
    # at the bottom, so the kept fit mask is updated from both neighbours.
    for d in (5, 10, 20, 30, 40):
        for seed in range(3):
            perm = list(range(2 * d + 1))
            random.Random(100 * d + seed).shuffle(perm)
            t = _deep_chain(d).apply_permutation(perm)
            for x in range(t.order):
                assert banks_witness(t, x) == oracle_banks_witness(t, x)


def test_top_cycle_is_strongly_connected_and_dominant():
    for seed in range(30):
        n = 3 + seed % 8
        t = random_tournament(n, 4000 + seed)
        tc = top_cycle(t)
        outside = set(range(n)) - tc
        for x in tc:
            for y in outside:
                assert t.dominates(x, y)


def _compose(summary, parts):
    """S(T1, ..., Tk): vertex i of ``summary`` replaced by the module ``parts[i]``.

    Part i keeps its own labels shifted by ``offsets[i]``, the total order
    of the parts before it.  Built on row masks, then passed through the
    validating constructor.
    """
    offsets, total = [], 0
    for part in parts:
        offsets.append(total)
        total += part.order
    blocks = [((1 << part.order) - 1) << off for part, off in zip(parts, offsets)]
    rows = []
    for i, (part, off) in enumerate(zip(parts, offsets)):
        beaten = sum(block for j, block in enumerate(blocks) if summary.dominates(i, j))
        rows += [row << off | beaten for row in part.row_masks]
    return Tournament([[row >> y & 1 for y in range(total)] for row in rows]), offsets


def _seeded_composition(seed):
    # The build and the order-61 deep chain, one to three random parts of
    # order 1-8 (more while the total is below 100), all in shuffled places
    # of a random summary
    rng = random.Random(seed)
    parts = [build_t36(), _deep_chain(30)]
    for _ in range(rng.randrange(1, 4)):
        parts.append(random_tournament(rng.randrange(1, 9), rng.getrandbits(32)))
    while sum(part.order for part in parts) < 100:
        parts.append(random_tournament(rng.randrange(1, 9), rng.getrandbits(32)))
    rng.shuffle(parts)
    summary = random_tournament(len(parts), rng.getrandbits(32))
    t, offsets = _compose(summary, parts)
    assert t.order >= 100
    return t, summary, parts, offsets


def _through_the_parts(rule, summary, parts, offsets):
    # the union over i in f(S) of f(Ti), each shifted to its place in T
    return {offsets[i] + v for i in rule(summary) for v in rule(parts[i])}


def _bipartisan_support(t):
    return bipartisan_set(t)[0]


@pytest.mark.parametrize("rule", [uncovered_set, banks_set, _bipartisan_support],
                         ids=["uc", "banks", "bp"])
def test_composition_consistent_rules_choose_through_the_parts(rule):
    # Laffond, Laslier and Le Breton: f(S(T1, ..., Tk)) is the union of
    # the f(Ti) over i in f(S); checked where the oracles cannot reach
    for seed in range(8):
        t, summary, parts, offsets = _seeded_composition(seed)
        assert rule(t) == _through_the_parts(rule, summary, parts, offsets), seed


@pytest.mark.parametrize("vertex", [0, 20], ids=["center", "outer"])
def test_substituting_into_the_build_keeps_it_a_separator(vertex):
    # Banks and BP are composition-consistent, so the orders with a
    # separator run from the smallest one upwards without a gap
    summary = build_t36()
    for k in range(1, 9):
        parts = [random_tournament(k, k) if v == vertex else Tournament([[0]])
                 for v in range(36)]
        t, offsets = _compose(summary, parts)
        banks = banks_set(t)
        bp = _bipartisan_support(t)
        assert not banks & bp, k
        assert banks == _through_the_parts(banks_set, summary, parts, offsets), k
        assert bp == _through_the_parts(_bipartisan_support, summary, parts, offsets), k


@pytest.mark.parametrize("rule", [copeland_set, top_cycle], ids=["copeland", "tc"])
def test_copeland_and_top_cycle_break_the_composition_identity(rule):
    # negative control: the identity above is able to fail on these inputs
    t, summary, parts, offsets = _seeded_composition(1)
    assert rule(t) != _through_the_parts(rule, summary, parts, offsets)


def test_a_composition_with_a_part_of_order_two_or_more_is_not_prime():
    # the part's vertices form a module that is neither a singleton nor everyone
    t, _ = _compose(CYCLE3, [CHAIN4, CYCLE3, Tournament([[0]])])
    assert t.order == 8
    assert not oracle_is_prime(t)


def test_prime_classes_to_order_7(classes_to_order_7):
    # prime: no module but the singletons and the whole set.  A smallest
    # separator of two composition-consistent rules is prime (README).
    counts = {
        n: (sum(map(oracle_is_prime, classes_to_order_7[n])), len(classes_to_order_7[n]))
        for n in (5, 6, 7)
    }
    assert counts == {5: (3, 12), 6: (15, 56), 7: (197, 456)}
