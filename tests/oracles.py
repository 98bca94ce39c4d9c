"""Independent reference implementations used to cross-check the library.

Everything here works straight from definitions, with no shared code
paths: subsets are enumerated outright, transitivity is checked over all
triples, the equilibrium lottery is found by solving exact linear
systems over every odd support, the canonical form is the minimum over
every relabelling, a permutation group is every product of its
generators.  Deliberately slow, deliberately dumb.  Two are second
implementations of a library algorithm instead, kept to pin its exact
output: the Banks witness search and the full-width phase-1 simplex.
Nothing but ``Tournament`` is imported from the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from tournsol import Tournament


def oracle_labeled(n: int):
    """Every labelled tournament of order n, once: each way to orient every pair."""
    pairs = list(combinations(range(n), 2))
    for orientation in product((False, True), repeat=len(pairs)):
        matrix = [[0] * n for _ in range(n)]
        for (x, y), forward in zip(pairs, orientation):
            if forward:
                matrix[x][y] = 1
            else:
                matrix[y][x] = 1
        yield Tournament(matrix)


def oracle_copeland_set(t: Tournament) -> frozenset[int]:
    matrix = [[int(t.dominates(x, y)) for y in range(t.order)] for x in range(t.order)]
    scores = [sum(row) for row in matrix]
    best = max(scores)
    return frozenset(x for x in range(t.order) if scores[x] == best)


def oracle_is_transitive(t: Tournament, subset) -> bool:
    members = sorted(subset)
    for a in members:
        for b in members:
            for c in members:
                if t.dominates(a, b) and t.dominates(b, c) and not t.dominates(a, c):
                    return False
    return True


def oracle_maximal_transitive_subsets(t: Tournament, within=None) -> list[frozenset[int]]:
    pool = sorted(within) if within is not None else list(range(t.order))
    transitive = {
        frozenset(combo)
        for size in range(1, len(pool) + 1)
        for combo in combinations(pool, size)
        if oracle_is_transitive(t, combo)
    }
    # one-element extensions suffice: subsets of transitive sets are transitive
    return [
        s
        for s in transitive
        if not any(v not in s and s | {v} in transitive for v in pool)
    ]


def oracle_banks_set(t: Tournament) -> frozenset[int]:
    tops = set()
    for s in oracle_maximal_transitive_subsets(t):
        tops.add(max(s, key=lambda v: sum(t.dominates(v, u) for u in s)))
    return frozenset(tops)


def oracle_banks_witness(t: Tournament, x: int) -> tuple[int, ...] | None:
    """The Banks witness search on lists, one insertion scan per candidate.

    Not a definition but a second implementation of the library's search
    order, kept to pin its exact witnesses: depth-first over chains (top
    down) inside x's dominion; at each node the common dominator w of the
    chain plus x with the fewest insertable counters (members of x's
    dominion that dominate w), ties to the smallest index, stopping at
    the first w with none; counters are tried in ascending order.
    """
    n = t.order
    dominion = [b for b in range(n) if t.dominates(x, b)]
    chain: list[int] = []

    def slot(v: int) -> int | None:
        i = 0
        while i < len(chain) and t.dominates(chain[i], v):
            i += 1
        if all(t.dominates(v, c) for c in chain[i:]):
            return i
        return None

    def search(common: list[int]) -> bool:
        if not common:
            return True
        best: list[tuple[int, int]] | None = None
        for w in common:
            counters = []
            for b in dominion:
                if b not in chain and t.dominates(b, w):
                    pos = slot(b)
                    if pos is not None:
                        counters.append((b, pos))
            if best is None or len(counters) < len(best):
                best = counters
                if not counters:
                    break
        for b, pos in best:
            chain.insert(pos, b)
            if search([w for w in common if t.dominates(w, b)]):
                return True
            del chain[pos]
        return False

    if search([w for w in range(n) if t.dominates(w, x)]):
        return tuple(chain)
    return None


def oracle_top_cycle(t: Tournament) -> frozenset[int]:
    n = t.order
    everyone = list(range(n))
    for size in range(1, n + 1):
        for combo in combinations(everyone, size):
            inside = set(combo)
            if all(
                t.dominates(x, y)
                for x in inside
                for y in everyone
                if y not in inside
            ):
                return frozenset(inside)
    raise AssertionError("a tournament always dominates its complement at full size")


def oracle_uncovered_set(t: Tournament) -> frozenset[int]:
    n = t.order
    uncovered = set()
    for x in range(n):
        covered = False
        for y in range(n):
            if y == x or not t.dominates(y, x):
                continue
            if all(t.dominates(y, z) for z in range(n) if t.dominates(x, z)):
                covered = True
                break
        if not covered:
            uncovered.add(x)
    return frozenset(uncovered)


def oracle_is_prime(t: Tournament) -> bool:
    """True iff the only modules are the singletons and the whole carrier.

    A module is a set that every outside vertex beats entirely or loses to
    entirely.  The smallest module holding a pair is its closure under
    adding each outside vertex that beats some members and loses to
    others, so the tournament is prime iff every such closure is everyone.
    """
    n = t.order
    for pair in combinations(range(n), 2):
        members = set(pair)
        grown = True
        while grown:
            grown = False
            for v in range(n):
                if v in members:
                    continue
                beats = [t.dominates(v, m) for m in members]
                if any(beats) and not all(beats):
                    members.add(v)
                    grown = True
        if len(members) < n:
            return False
    return True


def oracle_group(perms, n: int, limit: int = 10_000) -> set[tuple[int, ...]]:
    """Every permutation of 0..n-1 that a product of the given ones makes.

    Breadth-first closure from the identity: compose each element found
    with every generator until no new element appears.  Works on plain
    tuples; the identity is always in the group.  A group larger than
    ``limit`` raises AssertionError instead of filling memory.
    """
    gens = [tuple(p) for p in perms]
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                product_gh = tuple(h[g[v]] for v in range(n))
                if product_gh not in group:
                    group.add(product_gh)
                    fresh.append(product_gh)
                    assert len(group) <= limit, f"group larger than {limit}"
        frontier = fresh
    return group


def _solve_unique(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None unless the system pins every unknown."""
    m = len(rows)
    k = len(rows[0])
    aug = [rows[i][:] + [rhs[i]] for i in range(m)]
    pivot_cols = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][c]
        aug[r] = [v / scale for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    if len(pivot_cols) < k:
        return None
    if any(all(aug[i][c] == 0 for c in range(k)) and aug[i][k] != 0 for i in range(m)):
        return None
    solution = [Fraction(0)] * k
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = aug[row_idx][k]
    return solution


def oracle_bipartisan(t: Tournament) -> tuple[frozenset[int], tuple[Fraction, ...]]:
    """Equilibrium lottery by brute force over odd supports.

    For each odd subset S, solve { sum_{x in S} p_x M[x][y] = 0 for y in S,
    sum p = 1 } exactly; accept when the solution is strictly positive on S
    and yields nonnegative payoff against every alternative outside S.
    The equilibrium of a tournament game is unique and has odd support,
    so exactly one candidate survives.
    """
    n = t.order
    matrix = t.skew_adjacency()
    hits = []
    for size in range(1, n + 1, 2):
        for combo in combinations(range(n), size):
            rows = [
                [Fraction(matrix[x][y]) for x in combo]
                for y in combo
            ]
            rows.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * size + [Fraction(1)]
            weights = _solve_unique(rows, rhs)
            if weights is None or any(w <= 0 for w in weights):
                continue
            full = [Fraction(0)] * n
            for v, w in zip(combo, weights):
                full[v] = w
            payoffs = (
                sum(full[x] * matrix[x][y] for x in range(n)) for y in range(n)
            )
            if all(p >= 0 for p in payoffs):
                hits.append((frozenset(combo), tuple(full)))
    assert len(hits) == 1, f"expected a unique equilibrium, got {len(hits)}"
    return hits[0]


def oracle_bland(matrix: list[list[int]]) -> tuple[Fraction, ...] | None:
    """The phase-1 simplex for the optimal strategy, on the full-width tableau.

    A second implementation of the library's exact reference path, kept
    to pin its exact tuple: ``matrix`` is the integer skew matrix, and
    the tableau has one column per variable p_0..p_{n-1}, s_0..s_{n-1},
    the artificial variable and the right-hand side.  Row y is
    sum_x M[y][x] p_x + s_y = 0 and the last row sum(p) + a = 1; phase 1
    minimises a.  Bland's rule: the first column with negative reduced
    cost enters, and ratio ties go to the lowest basic column.  Returns
    None when the artificial variable keeps a positive value.
    """
    n = len(matrix)
    width = 2 * n + 2
    rows = []
    for y in range(n):
        row = [Fraction(0)] * width
        for x in range(n):
            row[x] = Fraction(matrix[y][x])
        row[n + y] = Fraction(1)
        rows.append(row)
    rows.append([Fraction(1)] * n + [Fraction(0)] * n + [Fraction(1), Fraction(1)])
    basis = [n + y for y in range(n)] + [2 * n]
    cost = [-v for v in rows[n]]
    cost[2 * n] = Fraction(0)
    while True:
        enter = next((j for j in range(width - 1) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(n + 1):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        assert leave is not None, "phase 1 is bounded below by 0"
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(n + 1):
            if i != leave:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        f = cost[enter]
        cost = [a - f * b for a, b in zip(cost, rows[leave])]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    weights = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            weights[col] = rows[i][-1]
    return tuple(weights)


def oracle_canonical_form(t: Tournament) -> bytes:
    """Smallest row-major '0'/'1' matrix encoding over all n! relabellings."""
    n = t.order
    return min(
        "".join(
            "1" if t.dominates(order[i], order[j]) else "0"
            for i in range(n)
            for j in range(n)
        ).encode("ascii")
        for order in permutations(range(n))
    )
