"""Tournament solution concepts.

Five choice sets, each a nonempty subset of the alternatives:

* Copeland set: maximum dominion size.
* Top cycle: the unique minimal nonempty set whose members dominate
  everything outside; equivalently the top strongly connected component.
* Uncovered set: alternatives not covered by anyone, where y covers x
  when y dominates x and everything x dominates; equivalently the
  alternatives that reach every other in at most two dominance steps.
  Both characterisations are computed and cross-asserted.
* Banks set: alternatives that top some inclusion-maximal transitive
  subset.
* Bipartisan set: support of the unique optimal mixed strategy of the
  skew-symmetric game attached to the tournament.
"""

from __future__ import annotations

from .core import Tournament, iter_bits
from .games import solve_symmetric_zero_sum

__all__ = [
    "banks_set",
    "banks_witness",
    "bipartisan_set",
    "copeland_set",
    "top_cycle",
    "uncovered_set",
]


def copeland_set(t: Tournament) -> frozenset[int]:
    scores = t.copeland_scores()
    best = max(scores)
    return frozenset(x for x, s in enumerate(scores) if s == best)


def top_cycle(t: Tournament) -> frozenset[int]:
    n = t.order
    # A maximum-score alternative reaches every other in at most two steps,
    # so it lies in the top component; the component is then exactly the
    # set of alternatives with a dominance path to it.
    start = max(range(n), key=lambda x: (t.copeland_score(x), -x))
    reached = 1 << start
    frontier = reached
    while frontier:
        grown = 0
        for x in iter_bits(frontier):
            grown |= t.dominators_mask(x)
        frontier = grown & ~reached
        reached |= grown
    return frozenset(iter_bits(reached))


def uncovered_set(t: Tournament) -> frozenset[int]:
    n = t.order
    full = (1 << n) - 1
    two_step = 0
    for x in range(n):
        reach = t.dominion_mask(x) | (1 << x)
        for y in iter_bits(t.dominion_mask(x)):
            reach |= t.dominion_mask(y)
        if reach == full:
            two_step |= 1 << x
    uncovered = 0
    for x in range(n):
        dx = t.dominion_mask(x)
        for y in iter_bits(t.dominators_mask(x)):
            if dx & ~t.dominion_mask(y) == 0:
                break
        else:
            uncovered |= 1 << x
    assert two_step == uncovered, "covering and two-step characterisations disagree"
    return frozenset(iter_bits(uncovered))


def banks_witness(t: Tournament, x: int) -> tuple[int, ...] | None:
    """A transitive subset of x's dominion certifying Banks membership.

    Returns a chain (top down) B inside the dominion of x such that no
    alternative dominates all of B and x, or None after an exhaustive
    search proves no such chain exists.  Appending x below such a chain
    and extending greedily inside x's dominion yields a maximal transitive
    subset topped by x, so the chain is a genuine membership witness.

    Search: depth-first over chains, on row masks, with an explicit stack
    holding one entry per chain member, so a long chain cannot exhaust
    the interpreter's recursion limit.  Each entry also keeps the mask of
    dominion members that fit into the chain, and a pop restores it.  A
    fitting alternative sits directly below the chain members that beat
    it, so inserting b between neighbours a above and c below changes the
    mask only through them: what beats a must also beat b, and what c
    beats must lose to b.  A common dominator w of the chain plus x has
    as counters the fitting members that dominate w.  The w with the
    fewest counters is the pivot (ties to the smallest index; the first w
    with none refutes the node), and its counters are tried in ascending
    order, each inserted below the chain members that dominate it.  So a
    witness, like a None, is deterministic.
    """
    if x < 0 or x >= t.order:
        raise ValueError(f"alternative {x} outside the carrier")
    dominion = t.dominion_mask(x)
    chain: list[int] = []
    # per chain member: the node that placed it as (common dominators,
    # chain mask, counters still untried, position in the chain, fit mask)
    stack: list[tuple[int, int, int, int, int]] = []
    common, chain_mask, fit = t.dominators_mask(x), 0, dominion
    while common:
        untried, best_count = 0, t.order + 1
        for w in iter_bits(common):
            counters = fit & t.dominators_mask(w)
            count = counters.bit_count()
            if count < best_count:
                untried, best_count = counters, count
                if not count:
                    break
        while not untried:
            if not stack:
                return None
            common, chain_mask, untried, pos, fit = stack.pop()
            del chain[pos]
        low = untried & -untried
        b = low.bit_length() - 1
        dominators = t.dominators_mask(b)
        pos = (dominators & chain_mask).bit_count()
        stack.append((common, chain_mask, untried ^ low, pos, fit))
        fit ^= low
        if pos:
            fit &= ~(t.dominators_mask(chain[pos - 1]) & t.dominion_mask(b))
        if pos < len(chain):
            fit &= ~(t.dominion_mask(chain[pos]) & dominators)
        chain.insert(pos, b)
        common &= dominators
        chain_mask |= low
    witness = tuple(chain)
    below = 0
    for b in reversed(witness):
        assert dominion >> b & 1, "witness leaves the dominion"
        assert t.dominion_mask(b) & below == below, "witness chain out of order"
        below |= 1 << b
    common = t.dominators_mask(x)
    for b in witness:
        common &= t.dominators_mask(b)
    assert common == 0, "witness still has a common dominator"
    return witness


def banks_set(t: Tournament) -> frozenset[int]:
    return frozenset(x for x in range(t.order) if banks_witness(t, x) is not None)


def bipartisan_set(t: Tournament) -> tuple[frozenset[int], tuple[Fraction, ...]]:
    """Support and exact lottery of the optimal mixed strategy."""
    lottery = solve_symmetric_zero_sum(t.skew_adjacency())
    support = frozenset(x for x, w in enumerate(lottery) if w > 0)
    return support, lottery
