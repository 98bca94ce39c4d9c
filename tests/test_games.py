"""Exact equilibrium solving for skew-symmetric games."""

import fractions
import random
from fractions import Fraction

import pytest

from oracles import oracle_bipartisan, oracle_bland
from tournsol import (
    bipartisan_set,
    build_t36,
    build_t36_variant,
    equilibrium_slacks,
    games,
    isomorphism_class_representatives,
    random_orientations,
    random_tournament,
    solve_symmetric_zero_sum,
    verify_equilibrium,
)


def test_rock_paper_scissors():
    m = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert solve_symmetric_zero_sum(m) == (Fraction(1, 3),) * 3


def test_single_strategy():
    assert solve_symmetric_zero_sum([[0]]) == (Fraction(1),)


def test_dominant_strategy_gets_everything():
    # strategy 0 beats both others: pure equilibrium
    m = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    assert solve_symmetric_zero_sum(m) == (Fraction(1), Fraction(0), Fraction(0))


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        solve_symmetric_zero_sum([[0, 1], [1, 0]])


def test_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        solve_symmetric_zero_sum([[1, 1], [-1, 0]])


def test_rejects_ragged_matrix():
    with pytest.raises(ValueError):
        solve_symmetric_zero_sum([[0, 1], [-1]])


def test_rejects_empty_matrix():
    with pytest.raises(ValueError):
        solve_symmetric_zero_sum([])


def test_weighted_cycle_with_rational_entries(fallbacks):
    # a lopsided cycle: heavier losses shift weight off strategy 2
    m = [
        [0, Fraction(1), Fraction(-3)],
        [Fraction(-1), 0, Fraction(2)],
        [Fraction(3), Fraction(-2), 0],
    ]
    w = solve_symmetric_zero_sum(m)
    assert sum(w) == 1
    assert verify_equilibrium(m, w)
    assert w == (Fraction(2, 6), Fraction(3, 6), Fraction(1, 6))
    assert fallbacks == []


def test_equilibrium_on_random_tournaments_verifies():
    for seed in range(60):
        n = 1 + seed % 10
        t = random_tournament(n, 900 + seed)
        m = t.skew_adjacency()
        w = solve_symmetric_zero_sum(m)
        assert sum(w) == 1
        assert all(x >= 0 for x in w)
        assert verify_equilibrium(m, w)


def test_complementary_slackness_is_exact():
    for seed in range(40):
        n = 3 + seed % 8
        t = random_tournament(n, 1300 + seed)
        m = t.skew_adjacency()
        w = solve_symmetric_zero_sum(m)
        slacks = equilibrium_slacks(m, w)
        for x in range(n):
            if w[x] > 0:
                assert slacks[x] == 0
            else:
                assert slacks[x] >= 0


def test_odd_support_on_tournament_games():
    for seed in range(40):
        n = 2 + seed % 9
        t = random_tournament(n, 1500 + seed)
        w = solve_symmetric_zero_sum(t.skew_adjacency())
        assert sum(1 for x in w if x > 0) % 2 == 1


def test_solver_is_deterministic():
    t = random_tournament(9, 77)
    m = t.skew_adjacency()
    assert solve_symmetric_zero_sum(m) == solve_symmetric_zero_sum(m)


def test_uniform_is_optimal_on_regular_tournaments():
    # order-5 circulant where each x beats x+1 and x+2: all row sums zero
    rows = [[0] * 5 for _ in range(5)]
    for x in range(5):
        rows[x][(x + 1) % 5] = 1
        rows[x][(x + 2) % 5] = 1
        rows[(x + 1) % 5][x] = -1
        rows[(x + 2) % 5][x] = -1
    fifth = Fraction(1, 5)
    assert verify_equilibrium(rows, (fifth,) * 5)
    assert solve_symmetric_zero_sum(rows) == (fifth,) * 5


def test_verify_equilibrium_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_equilibrium([[0, 1], [-1, 0]], (Fraction(1),))
    with pytest.raises(ValueError):
        equilibrium_slacks([[0, 1], [-1, 0]], (Fraction(1),))


@pytest.mark.parametrize("matrix", [[[0, 1], [-1]], [[0, 1], [1, 0]], [[1, 1], [-1, 0]], []])
def test_verify_equilibrium_rejects_malformed_matrices(matrix):
    weights = (1, 0)[: len(matrix)]
    with pytest.raises(ValueError):
        verify_equilibrium(matrix, weights)
    with pytest.raises(ValueError):
        equilibrium_slacks(matrix, weights)


def test_verify_equilibrium_rejects_bad_lotteries():
    m = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    third = Fraction(1, 3)
    assert verify_equilibrium(m, (third, third, third))
    assert not verify_equilibrium(m, (Fraction(1), Fraction(0), Fraction(0)))
    assert not verify_equilibrium(m, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert not verify_equilibrium(m, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))


# The exact Bland simplex is the reference path; the certified guess must
# reproduce it tuple for tuple.


_REFERENCE_PATH = games._bland


def reference(matrix):
    return _REFERENCE_PATH(games._integer_game(matrix)[0])


@pytest.fixture
def fallbacks(monkeypatch):
    """Orders of the solves that reached the reference path."""
    calls = []

    def counting(m):
        calls.append(len(m))
        return _REFERENCE_PATH(m)

    monkeypatch.setattr(games, "_bland", counting)
    return calls


@pytest.fixture
def no_fallback(monkeypatch):
    def refuse(m):
        raise AssertionError(f"order-{len(m)} solve fell back to the exact simplex")

    monkeypatch.setattr(games, "_bland", refuse)


def random_rational_game(n, seed, tie_share=0):
    """A skew game whose cells have mixed denominators, all dividing 30.

    About ``tie_share`` of the pairs tie; with ties, many such games have
    several optimal strategies.
    """
    rng = random.Random(seed)
    m = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if tie_share and rng.random() < tie_share:
                continue
            m[x][y] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 6, 10, 15, 30)))
            m[y][x] = -m[x][y]
    return m


def t36_family():
    return [build_t36()] + [build_t36_variant(random_orientations(seed)) for seed in (1, 2, 3)]


def oracle_inputs():
    for n in range(1, 7):
        for t in isomorphism_class_representatives(n):
            yield t.skew_adjacency()
    for n in range(1, 15):
        for seed in range(2):
            yield random_tournament(n, 9100 + 10 * n + seed).skew_adjacency()
    for seed in range(80):
        yield games._integer_game(random_rational_game(1 + seed % 8, 9300 + seed, 1 / 3))[0]
    for n in (1, 2, 3, 5):
        yield [[0] * n for _ in range(n)]
    for t in t36_family():
        yield t.skew_adjacency()


def test_exact_reference_matches_the_full_width_oracle():
    for m in oracle_inputs():
        result = games._bland(m)
        assert result == oracle_bland(m)
        assert all(type(w) is Fraction for w in result)


def test_pivot_order_decides_the_reference_on_tied_games():
    # Reversing the labels changes Bland's pivots; on a game with several
    # optima the reference then returns another optimal strategy, so the
    # oracle comparison pins the pivot order and not only optimality.
    differ = 0
    for seed in range(80):
        m = games._integer_game(random_rational_game(1 + seed % 8, 9300 + seed, 1 / 3))[0]
        flipped = oracle_bland([row[::-1] for row in m[::-1]])
        differ += flipped[::-1] != oracle_bland(m)
    assert differ >= 20


def test_phase1_fails_when_the_artificial_stays_basic():
    # p_1 + s_0 = 0 and p_0 + s_1 = 0 force p = 0 against sum(p) = 1.
    m = [[0, 1], [1, 0]]
    assert games._phase1(m, Fraction, 0, None) is None
    assert games._phase1(m, float, games._GUESS_TOL, 1000) is None
    assert oracle_bland(m) is None


# Every order up to 28, then 40; the reference takes about 4 s at 40.
@pytest.mark.parametrize("n", [*range(1, 29), 40])
def test_matches_reference_path_on_random_tournaments(n):
    m = random_tournament(n, 4200 + n).skew_adjacency()
    assert solve_symmetric_zero_sum(m) == reference(m)


def test_matches_reference_path_on_the_order_36_build_and_variants():
    for t in t36_family():
        m = t.skew_adjacency()
        assert solve_symmetric_zero_sum(m) == reference(m)


def test_every_class_up_to_order_7_is_certified_as_the_reference(no_fallback):
    for n in range(1, 8):
        for t in isomorphism_class_representatives(n):
            m = t.skew_adjacency()
            assert solve_symmetric_zero_sum(m) == reference(m)


def test_classes_up_to_order_6_match_the_odd_support_oracle():
    for n in range(1, 7):
        for t in isomorphism_class_representatives(n):
            assert bipartisan_set(t) == oracle_bipartisan(t)


MIXED_DENOMINATORS = [
    [0, Fraction(1, 2), Fraction(-3, 7)],
    [Fraction(-1, 2), 0, Fraction(2, 5)],
    [Fraction(3, 7), Fraction(-2, 5), 0],
]


@pytest.mark.parametrize(
    "matrix", [MIXED_DENOMINATORS, random_rational_game(9, 1), random_rational_game(16, 2)]
)
def test_rational_matrices_are_certified(matrix, fallbacks):
    assert solve_symmetric_zero_sum(matrix) == reference(matrix)
    assert fallbacks == []


def test_mixed_denominators_scale_by_their_lcm():
    a, scale = games._integer_game(MIXED_DENOMINATORS)
    assert scale == 70
    assert a == [[0, 35, -30], [-35, 0, 28], [30, -28, 0]]
    assert solve_symmetric_zero_sum(MIXED_DENOMINATORS) == (
        Fraction(28, 93), Fraction(10, 31), Fraction(35, 93)
    )


def test_integer_cells_build_no_fraction(monkeypatch):
    def refuse(cell):
        raise AssertionError(f"built a Fraction of {cell!r}")

    # games imports Fraction where it makes one, so patch it at its source.
    monkeypatch.setattr(fractions, "Fraction", refuse)
    m = random_tournament(6, 3).skew_adjacency()
    assert games._integer_game(m) == (m, 1)


# Scaled to integers, each of these has a cell beyond the float range: the
# lcm of the denominators is 10**400, and 2**1049 for the float 1e-300.
_TINY = Fraction(1, 10**400)
BEYOND_FLOAT = [
    [[0, 1, _TINY], [-1, 0, 1], [-_TINY, -1, 0]],
    [[0, 1.0, 1e-300], [-1.0, 0, 1.0], [-1e-300, -1.0, 0]],
]


@pytest.mark.parametrize("matrix", BEYOND_FLOAT)
def test_cells_beyond_the_float_range_fall_back_to_the_reference(matrix, fallbacks):
    assert games._guess_support(games._integer_game(matrix)[0]) == []
    result = solve_symmetric_zero_sum(matrix)
    assert fallbacks == [3]
    assert result == reference(matrix)
    assert verify_equilibrium(matrix, result)


_RPS = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


def test_support_lottery_swaps_past_a_zero_first_pivot():
    # The first equation's entry for the first unknown is a diagonal cell,
    # always 0; the sum row has to be swapped in as the first pivot row.
    assert games._support_lottery([[0, 1], [-1, 0]], [0]) == ([1], 1)
    m = [[0, 0, 1, 1], [0, 0, -1, 1], [-1, 1, 0, 0], [-1, -1, 0, 0]]
    assert games._support_lottery(m, [0, 1, 2]) == ([1, 1, 0], 2)


def test_support_lottery_returns_a_positive_denominator():
    # Elimination on rock-paper-scissors ends on the pivot -3: every pivot
    # row reads -3 * p_x = -1, and the signs are flipped on the way out.
    assert games._support_lottery(_RPS, [0, 1, 2]) == ([1, 1, 1], 3)


def test_support_lottery_rejects_a_rank_deficient_support():
    assert games._support_lottery([[0, 0], [0, 0]], [0, 1]) is None
    assert games._support_lottery(_RPS, []) is None


def test_support_lottery_rejects_an_inconsistent_support():
    # Full rank 2, but the two equations force p_0 = p_1 = 0 against sum(p) = 1.
    assert games._support_lottery(_RPS, [0, 1]) is None


def wrong_guesses(n, support):
    yield []
    for x in range(n):
        yield sorted(set(support) ^ {x})


def test_wrong_or_empty_guess_falls_back_to_the_reference(monkeypatch, fallbacks):
    solves = 0
    for n in (1, 2, 5, 8, 11):
        m = random_tournament(n, 600 + n).skew_adjacency()
        expected = reference(m)
        support = [x for x in range(n) if expected[x] > 0]
        for guess in wrong_guesses(n, support):
            monkeypatch.setattr(games, "_guess_support", lambda m, guess=guess: guess)
            assert solve_symmetric_zero_sum(m) == expected
            solves += 1
    assert len(fallbacks) == solves


def test_pivot_cap_sends_the_guess_to_the_fallback(monkeypatch, fallbacks):
    monkeypatch.setattr(games, "_GUESS_PIVOTS_PER_STRATEGY", 0)
    m = random_tournament(9, 31).skew_adjacency()
    assert games._guess_support(m) == []
    assert solve_symmetric_zero_sum(m) == reference(m)
    assert fallbacks == [9]


def test_many_optima_fail_the_uniqueness_certificate(fallbacks):
    # every lottery is optimal in a zero game; the float guess names a
    # support whose system is solvable, but the slacks off it are zero
    assert solve_symmetric_zero_sum([[0, 0], [0, 0]]) == (Fraction(1), Fraction(0))
    assert solve_symmetric_zero_sum([[0] * 3] * 3) == (Fraction(1), Fraction(0), Fraction(0))
    assert fallbacks == [2, 3]


def test_a_zero_weight_on_the_guess_fails_the_certificate(monkeypatch, fallbacks):
    # On {0, 1, 2} the support system has full rank and solves to
    # (1/2, 1/2, 0), an optimal lottery with slack 1 off the guess; but
    # strategy 2 has weight 0 and slack 0, and pure strategy 0 is optimal too.
    m = [[0, 0, 1, 1], [0, 0, -1, 1], [-1, 1, 0, 0], [-1, -1, 0, 0]]
    half = Fraction(1, 2)
    assert verify_equilibrium(m, (half, half, 0, 0))
    monkeypatch.setattr(games, "_guess_support", lambda m: [0, 1, 2])
    assert solve_symmetric_zero_sum(m) == reference(m) == (1, 0, 0, 0)
    assert fallbacks == [4]


def test_a_pure_reply_that_beats_the_guess_fails_the_certificate(monkeypatch, fallbacks):
    # On {0} the support system solves to the pure strategy 0, a positive
    # lottery, but strategy 2 beats it: its slack is -1.  Strict
    # complementarity would refuse this guess too, so this pins the
    # refusal, not which check makes it.
    m = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert games._support_lottery(m, [0]) == ([1], 1)
    assert games.equilibrium_slacks(m, (1, 0, 0))[2] == -1
    monkeypatch.setattr(games, "_guess_support", lambda m: [0])
    third = Fraction(1, 3)
    assert solve_symmetric_zero_sum(m) == reference(m) == (third, third, third)
    assert fallbacks == [3]


def test_orders_10_to_24_are_decided_by_the_certified_guess(no_fallback):
    for n in range(10, 25):
        for seed in range(3):
            m = random_tournament(n, 8000 + 10 * n + seed).skew_adjacency()
            assert verify_equilibrium(m, solve_symmetric_zero_sum(m))
    for t in t36_family():
        solve_symmetric_zero_sum(t.skew_adjacency())


# Under an absolute pivot tolerance of 1e-9, the float pass on the first
# input pivoted on rounding noise, the tableau blew up to about 1e14 and the
# pass ended with the artificial variable still basic: an empty support.
# The second input defeated an absolute tolerance of 1e-7 the same way.
@pytest.mark.parametrize("n, seed", [(30, 9), (44, 220003)])
def test_float_guess_survives_rounding_noise(n, seed, fallbacks):
    solve_symmetric_zero_sum(random_tournament(n, seed).skew_adjacency())
    assert fallbacks == []
