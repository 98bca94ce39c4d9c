"""Exact equilibria of symmetric zero-sum games over the rationals.

The games of interest come from tournaments: the payoff matrix is skew
symmetric with entries in {-1, 0, 1}, although any skew-symmetric matrix
of rationals is accepted.  Such a game has value zero, so its maximin
strategies are exactly the solutions of

    p >= 0,  sum(p) = 1,  M^T p >= 0.

A rational matrix is first scaled to integers by the lcm of its
denominators; a positive scale keeps the optimal strategies and the sign
of every slack.  The solver then guesses, solves, certifies and only then
falls back:

1. Guess.  A phase-1 simplex over floats proposes a support S.  Its
   tableau keeps one row per basic and one column per nonbasic variable,
   and Bland's rule enters the lowest-label improving nonbasic variable.
   Its pivot count is capped, and it only ever names candidate strategies.
2. Solve.  The lottery on S is solved exactly from the k+1 equations
   sum_{x in S} M[x][y] p_x = 0 (y in S) and sum(p) = 1 by fraction-free
   Gauss-Jordan elimination over ``int`` (Bareiss).  It yields integer
   numerators v and one positive common denominator D.
3. Certify.  The lottery is returned only if that system has full rank,
   every weight on S is positive, the strategy passes the exact integer
   check that ``verify_equilibrium`` also runs (sum(v) = D, v >= 0 and
   every slack sum_x v_x M[x][y] >= 0) and exactly |S| slacks vanish,
   those on S, which the system makes zero.  Full rank and strict
   complementarity prove that the optimal strategy is unique, so the
   certified lottery is the one the exact simplex would return.
4. Fallback.  Otherwise the same phase-1 simplex runs over
   ``fractions.Fraction``, where Bland's rule (lowest-label improving
   nonbasic variable, ratio ties to the lowest basic label) prevents
   cycling, and its answer is returned after the same exact check.

No float decides a reported number: every returned weight is an exact
rational that passed the exact check, and a weight is positive iff it is
exactly positive.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm
from operator import mul

# ``fractions`` is imported where a Fraction is made, so that importing the
# package, which every command line run does, does not load it; the
# annotations name ``Fraction`` as text only.

__all__ = [
    "equilibrium_slacks",
    "solve_symmetric_zero_sum",
    "verify_equilibrium",
]

# The float guess treats magnitudes up to this as zero, and stops after
# this many pivots per strategy; either way it only proposes a support.
# Bland's rule took up to 62 pivots per strategy on random tournaments of
# order 60, and the exact fallback costs far more per pivot than a float
# pivot, so the cap only has to stop a float pass that cycles.
_GUESS_TOL = 1e-7
_GUESS_PIVOTS_PER_STRATEGY = 500


def _integer_game(matrix: Sequence[Sequence[object]]) -> tuple[list[list[int]], int]:
    """``matrix`` checked square and skew, scaled to ints, and the scale.

    An all-``int`` matrix, such as a tournament's, builds no ``Fraction``
    and has scale 1.  Otherwise the scale is the lcm of the denominators
    of the cells.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty payoff matrix")
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("payoff matrix is not square")
    scale = 1
    if any(type(cell) is not int for row in m for cell in row):
        from fractions import Fraction

        m = [[Fraction(cell) for cell in row] for row in m]
        scale = lcm(*(cell.denominator for row in m for cell in row))
        m = [[cell.numerator * (scale // cell.denominator) for cell in row] for row in m]
    for x in range(n):
        for y in range(x, n):
            if m[x][y] != -m[y][x]:
                raise ValueError(f"matrix is not skew-symmetric at ({x}, {y})")
    return m, scale


def solve_symmetric_zero_sum(matrix: Sequence[Sequence[object]]) -> tuple[Fraction, ...]:
    """One optimal mixed strategy of the symmetric zero-sum game ``matrix``.

    Deterministic: identical input yields an identical tuple.  For payoff
    matrices arising from tournaments the equilibrium is unique, so the
    returned strategy is *the* equilibrium and its support is well defined.
    """
    a, _ = _integer_game(matrix)
    certified = _certify(a, _guess_support(a))
    return certified if certified is not None else _bland(a)


def _phase1(m: list[list[int]], number: type, tol: float, max_pivots: int | None) -> list | None:
    """Weights of a phase-1 simplex optimum over the type ``number``.

    Bland's rule enters the lowest-label improving nonbasic variable and
    breaks ratio ties by the lowest basic label.  A value counts as
    negative, positive or tied only beyond ``tol``; with ``tol`` 0 every
    comparison is exact.  Returns None when ``max_pivots`` (None for no
    cap) is reached, the objective is unbounded, or the artificial
    variable stays above ``tol``, none of which happens in exact
    arithmetic on a skew game.
    """
    n = len(m)
    zero, one = number(0), number(1)

    # Condensed (Tucker) tableau: one row per basic variable, one column per
    # nonbasic variable, then the right-hand side.  Labels: p_x is x, s_y is
    # n + y and the artificial variable is 2n.  Row y (for y < n) encodes
    # (M^T p)_y - s_y = 0, written with the sign flipped so that s_y starts
    # basic:  sum_x M[y][x] p_x + s_y = 0.  The last row is sum(p) = 1 with
    # the artificial basic; phase 1 minimises it.  The cost row holds the
    # reduced costs and minus the objective, so it starts at -1 throughout.
    rows = [[number(v) for v in row] + [zero] for row in m]
    rows.append([one] * (n + 1))
    cost = [-one] * (n + 1)
    basic = list(range(n, 2 * n + 1))
    nonbasic = list(range(n))

    pivots = 0
    while True:
        improving = [(label, j) for j, label in enumerate(nonbasic) if cost[j] < -tol]
        if not improving:
            break
        if pivots == max_pivots:
            return None
        pivots += 1
        enter = min(improving)[1]
        # A pivot must stand out from the rounding noise of its column, which
        # grows with the column's largest entry.  Under an absolute threshold
        # a residue of 1.6e-9 beside entries near 5e4 was taken as a pivot,
        # and the float pass ended with the artificial basic: no support.
        column = [row[enter] for row in rows]
        limit = tol * max(1, max(map(abs, column)))
        leave = -1
        best = zero
        for i, coeff in enumerate(column):
            if coeff > limit:
                ratio = rows[i][-1] / coeff
                if leave < 0 or ratio < best - tol or (
                    ratio <= best + tol and basic[i] < basic[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        # The leaving variable takes over the entering column: 1/piv in the
        # pivot row, and -f/piv in a row whose entering entry was f.
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        inv = one / piv
        if piv != 1:
            pivot_row[:] = [v / piv for v in pivot_row]
        pivot_row[enter] = inv
        for row in (*rows, cost):
            f = row[enter]
            if row is not pivot_row and f != 0:
                row[:] = [a - f * b for a, b in zip(row, pivot_row)]
                row[enter] = -f * inv
        basic[leave], nonbasic[enter] = nonbasic[enter], basic[leave]

    if -cost[-1] > tol:
        return None
    weights = [zero] * n
    for i, label in enumerate(basic):
        if label < n:
            weights[label] = rows[i][-1]
    return weights


def _bland(m: list[list[int]]) -> tuple[Fraction, ...]:
    """The reference path: the phase-1 simplex in exact arithmetic."""
    from fractions import Fraction

    weights = _phase1(m, Fraction, 0, None)
    if weights is None:
        raise RuntimeError("exact phase-1 simplex failed; input was not a valid skew game")
    result = tuple(weights)
    if not verify_equilibrium(m, result):
        raise RuntimeError("solver produced a non-equilibrium; internal error")
    return result


def _guess_support(m: list[list[int]]) -> list[int]:
    """Strategies a float phase-1 simplex weights above the tolerance.

    Empty when the float pass fails or a cell is beyond the float range;
    the guess only names candidates.
    """
    n = len(m)
    try:
        weights = _phase1(m, float, _GUESS_TOL, _GUESS_PIVOTS_PER_STRATEGY * n)
    except OverflowError:
        return []
    if weights is None:
        return []
    return [x for x in range(n) if weights[x] > _GUESS_TOL]


def _certify(a: list[list[int]], support: list[int]) -> tuple[Fraction, ...] | None:
    """The unique optimal strategy, if its support is ``support``; else None.

    None means the support could not be certified, not that the game has
    no such strategy; the caller then runs the exact simplex.
    """
    solved = _support_lottery(a, support)
    if solved is None:
        return None
    on_support, d = solved
    v = [0] * len(a)
    for x, vx in zip(support, on_support):
        v[x] = vx
    slacks = _integer_slacks(a, v)
    # The support system makes the slacks on ``support`` vanish, so the count
    # says every slack off it is positive (strict complementarity): any
    # optimal q then has its support inside ``support`` and solves the same
    # full-rank system, so q is this lottery.
    if min(on_support) <= 0 or not _is_optimal(v, d, slacks) or slacks.count(0) != len(support):
        return None
    from fractions import Fraction

    return tuple(Fraction(x, d) for x in v)


def _support_lottery(a: list[list[int]], support: list[int]) -> tuple[list[int], int] | None:
    """The p on ``support`` with sum_x a[x][y] p_x = 0 (y in it) and sum(p) = 1.

    Fraction-free Gauss-Jordan elimination (Bareiss) over ``int`` on the
    k+1 equations in k unknowns: each row other than the pivot row becomes
    (p * row - f * pivot_row) // prev, where p is the pivot, f the row's
    entry in the pivot column and prev the previous pivot, and every
    division is exact.  Returns the numerators of p and one positive
    common denominator, or None unless the system has rank k and is
    consistent, that is, unless it has exactly one solution.
    """
    k = len(support)
    aug = [[a[x][y] for x in support] + [0] for y in support]
    aug.append([1] * (k + 1))
    prev = 1
    for c in range(k):
        pivot = next((i for i in range(c, k + 1) if aug[i][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        row = aug[c]
        p = row[c]
        for i in range(k + 1):
            if i != c:
                f = aug[i][c]
                aug[i] = [(p * u - f * w) // prev for u, w in zip(aug[i], row)]
        prev = p
    # Every pivot row now reads prev * p_c = aug[c][k].
    if aug[k][k]:
        return None
    if prev < 0:
        return [-aug[c][k] for c in range(k)], -prev
    return [aug[c][k] for c in range(k)], prev


def _integer_slacks(a: list[list[int]], v: Sequence[int]) -> list[int]:
    """Entry y is sum_x v[x] * a[x][y], computed as -sum_x a[y][x] * v[x].

    The two sums agree because ``a`` is skew symmetric.
    """
    return [-sum(map(mul, row, v)) for row in a]


def _is_optimal(v: Sequence[int], d: int, slacks: Sequence[int]) -> bool:
    """The exact check of the lottery v / d, given its integer slacks."""
    return sum(v) == d and all(x >= 0 for x in v) and all(s >= 0 for s in slacks)


def _scaled(
    matrix: Sequence[Sequence[object]], weights: Sequence[object]
) -> tuple[list[int], int, list[int], int]:
    """Integer weights v with denominator d, their slacks and the matrix scale.

    The weights are v / d, and the slacks of ``weights`` on ``matrix`` are
    the returned ints divided by scale * d.
    """
    from fractions import Fraction

    a, scale = _integer_game(matrix)
    if len(weights) != len(a):
        raise ValueError("weight vector length does not match the matrix")
    w = [Fraction(x) for x in weights]
    d = lcm(*(x.denominator for x in w))
    v = [x.numerator * (d // x.denominator) for x in w]
    return v, d, _integer_slacks(a, v), scale


def equilibrium_slacks(
    matrix: Sequence[Sequence[object]], weights: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Expected payoff of each pure reply against ``weights``, negated.

    Entry y is sum_x weights[x] * matrix[x][y]; at an equilibrium every
    entry is nonnegative and entries on the support are exactly zero.
    Raises ValueError unless ``matrix`` is square and skew symmetric and
    ``weights`` has one entry per row.
    """
    from fractions import Fraction

    _, d, slacks, scale = _scaled(matrix, weights)
    return tuple(Fraction(s, scale * d) for s in slacks)


def verify_equilibrium(
    matrix: Sequence[Sequence[object]], weights: Sequence[Fraction]
) -> bool:
    """Exact check that ``weights`` is an optimal strategy of the skew game.

    Raises ValueError unless ``matrix`` is square and skew symmetric and
    ``weights`` has one entry per row.
    """
    v, d, slacks, _ = _scaled(matrix, weights)
    return _is_optimal(v, d, slacks)
