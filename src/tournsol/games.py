"""Exact equilibria of symmetric zero-sum games over the rationals.

The games of interest come from tournaments: the payoff matrix is skew
symmetric with entries in {-1, 0, 1}, although any skew-symmetric matrix
of rationals is accepted.  Such a game has value zero, so its maximin
strategies are exactly the solutions of

    p >= 0,  sum(p) = 1,  M^T p >= 0.

The solver guesses, solves, certifies and only then falls back:

1. Guess.  A phase-1 simplex over floats proposes a support S.  Its pivot
   count is capped, and it only ever names candidate strategies.
2. Solve.  The lottery on S is solved exactly from the k+1 equations
   sum_{x in S} M[x][y] p_x = 0 (y in S) and sum(p) = 1 by Gauss-Jordan
   elimination over ``fractions.Fraction``.
3. Certify.  The lottery is returned only if that system has full rank,
   every weight on S is positive, the strategy passes the exact check of
   ``verify_equilibrium`` on the full matrix and every slack off S is
   strictly positive.  Full rank and strict complementarity prove that
   the optimal strategy is unique, so the certified lottery is the one
   the exact simplex would return.
4. Fallback.  Otherwise the same phase-1 simplex runs over
   ``fractions.Fraction`` with Bland's anti-cycling rule, and its answer
   is returned after the same exact check.

No float decides a reported number: every returned weight is an exact
rational that passed the exact check, and a weight is positive iff it is
exactly positive.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

__all__ = [
    "equilibrium_slacks",
    "solve_symmetric_zero_sum",
    "verify_equilibrium",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The float guess treats magnitudes up to this as zero, and stops after
# this many pivots per strategy; either way it only proposes a support.
# Bland's rule took up to 62 pivots per strategy on random tournaments of
# order 60, and the exact fallback costs far more per pivot than a float
# pivot, so the cap only has to stop a float pass that cycles.
_GUESS_TOL = 1e-7
_GUESS_PIVOTS_PER_STRATEGY = 500


def _as_skew_matrix(matrix: Sequence[Sequence[object]]) -> list[list[Fraction]]:
    n = len(matrix)
    if n == 0:
        raise ValueError("empty payoff matrix")
    m = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("payoff matrix is not square")
        m.append([Fraction(cell) for cell in row])
    for x in range(n):
        for y in range(x, n):
            if m[x][y] != -m[y][x]:
                raise ValueError(f"matrix is not skew-symmetric at ({x}, {y})")
    return m


def solve_symmetric_zero_sum(matrix: Sequence[Sequence[object]]) -> tuple[Fraction, ...]:
    """One optimal mixed strategy of the symmetric zero-sum game ``matrix``.

    Deterministic: identical input yields an identical tuple.  For payoff
    matrices arising from tournaments the equilibrium is unique, so the
    returned strategy is *the* equilibrium and its support is well defined.
    """
    m = _as_skew_matrix(matrix)
    certified = _certify(m, _guess_support(m))
    return certified if certified is not None else _bland(m)


def _phase1(
    m: list[list[Fraction]], number: type, tol: float, max_pivots: int | None
) -> list | None:
    """Weights of a phase-1 simplex optimum over the type ``number``.

    Bland's rule picks the first improving column and breaks ratio ties
    by the lowest basic column.  A value counts as negative, positive or
    tied only beyond ``tol``; with ``tol`` 0 every comparison is exact.
    Returns None when ``max_pivots`` (None for no cap) is reached, the
    objective is unbounded, or the artificial variable stays above
    ``tol``, none of which happens in exact arithmetic on a skew game.
    """
    n = len(m)
    zero, one = number(0), number(1)

    # Equality form.  Row y (for y < n) encodes (M^T p)_y - s_y = 0, written
    # with the sign flipped so the slack column carries +1 and can start in
    # the basis:  sum_x M[y][x] p_x + s_y = 0.  The last row is sum(p) = 1
    # with one artificial variable; phase 1 minimises that artificial.
    # Columns: p_0..p_{n-1}, s_0..s_{n-1}, artificial, rhs.
    width = 2 * n + 2
    rows = []
    for y in range(n):
        row = [zero] * width
        for x in range(n):
            row[x] = number(m[y][x])
        row[n + y] = one
        rows.append(row)
    sum_row = [one] * n + [zero] * n + [one, one]
    rows.append(sum_row)
    basis = [n + y for y in range(n)] + [2 * n]

    # Reduced-cost row for minimising the artificial variable.  Subtracting
    # the row where it is basic leaves cost -1 on every p column.
    cost = [zero - v for v in sum_row]
    cost[2 * n] = zero

    ncols = width - 1
    pivots = 0
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            break
        if pivots == max_pivots:
            return None
        pivots += 1
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
                    ratio <= best + tol and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        if piv != 1:
            rows[leave] = pivot_row = [v / piv for v in pivot_row]
        for i, f in enumerate(column):
            if i != leave and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot_row)]
        f = cost[enter]
        if f != 0:
            cost = [a - f * b for a, b in zip(cost, pivot_row)]
        basis[leave] = enter

    if -cost[-1] > tol:
        return None
    weights = [zero] * n
    for i, col in enumerate(basis):
        if col < n:
            weights[col] = rows[i][-1]
    return weights


def _bland(m: list[list[Fraction]]) -> tuple[Fraction, ...]:
    """The reference path: the phase-1 simplex in exact arithmetic."""
    weights = _phase1(m, Fraction, 0, None)
    if weights is None:
        raise RuntimeError("exact phase-1 simplex failed; input was not a valid skew game")
    result = tuple(weights)
    if not verify_equilibrium(m, result):
        raise RuntimeError("solver produced a non-equilibrium; internal error")
    return result


def _guess_support(m: list[list[Fraction]]) -> list[int]:
    """Strategies a float phase-1 simplex weights above the tolerance.

    Empty when the float pass fails; the guess only names candidates.
    """
    n = len(m)
    weights = _phase1(m, float, _GUESS_TOL, _GUESS_PIVOTS_PER_STRATEGY * n)
    if weights is None:
        return []
    return [x for x in range(n) if weights[x] > _GUESS_TOL]


def _certify(m: list[list[Fraction]], support: list[int]) -> tuple[Fraction, ...] | None:
    """The unique optimal strategy, if its support is ``support``; else None.

    None means the support could not be certified, not that the game has
    no such strategy; the caller then runs the exact simplex.
    """
    on_support = _support_lottery(m, support)
    if on_support is None or any(w <= 0 for w in on_support):
        return None
    weights = [_ZERO] * len(m)
    for x, w in zip(support, on_support):
        weights[x] = w
    result = tuple(weights)
    slacks = equilibrium_slacks(m, result)
    if not _is_optimal(result, slacks):
        return None
    # Strict complementarity: any optimal q has its support where these
    # slacks vanish, so inside ``support``, and then solves the same
    # full-rank system; q is this lottery.
    inside = set(support)
    if any(s <= 0 for y, s in enumerate(slacks) if y not in inside):
        return None
    return result


def _support_lottery(m: list[list[Fraction]], support: list[int]) -> list[Fraction] | None:
    """The p on ``support`` with sum_x M[x][y] p_x = 0 (y in it) and sum(p) = 1.

    Gauss-Jordan elimination over ``Fraction`` on the k+1 equations in k
    unknowns.  None unless the system has rank k and is consistent, that
    is, unless it has exactly one solution.
    """
    k = len(support)
    aug = [[m[x][y] for x in support] + [_ZERO] for y in support]
    aug.append([_ONE] * (k + 1))
    for c in range(k):
        pivot = next((i for i in range(c, k + 1) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        row = aug[c]
        scale = row[c]
        if scale != 1:
            aug[c] = row = [v / scale for v in row]
        for i in range(k + 1):
            f = aug[i][c]
            if i != c and f != 0:
                aug[i] = [a - f * b for a, b in zip(aug[i], row)]
    if aug[k][k] != 0:
        return None
    return [aug[c][k] for c in range(k)]


def equilibrium_slacks(
    matrix: Sequence[Sequence[object]], weights: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Expected payoff of each pure reply against ``weights``, negated.

    Entry y is sum_x weights[x] * matrix[x][y]; at an equilibrium every
    entry is nonnegative and entries on the support are exactly zero.
    """
    n = len(matrix)
    if len(weights) != n:
        raise ValueError("weight vector length does not match the matrix")
    out = []
    for y in range(n):
        acc = _ZERO
        for x in range(n):
            w = weights[x]
            if w:
                acc += w * Fraction(matrix[x][y])
        out.append(acc)
    return tuple(out)


def _is_optimal(weights: Sequence[Fraction], slacks: Sequence[Fraction]) -> bool:
    total = _ZERO
    for w in weights:
        if w < 0:
            return False
        total += w
    return total == 1 and all(s >= 0 for s in slacks)


def verify_equilibrium(
    matrix: Sequence[Sequence[object]], weights: Sequence[Fraction]
) -> bool:
    """Exact check that ``weights`` is an optimal strategy of the skew game."""
    return _is_optimal(weights, equilibrium_slacks(matrix, weights))
