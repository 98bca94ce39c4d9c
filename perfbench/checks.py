"""Output checks for the benchmark, written from the definitions alone.

Nothing here imports tournsol: every check recomputes what the command
line should have printed from the input matrix, with its own arithmetic,
so a defect in the library cannot hide behind the same defect in the
check.  Each check raises ``CheckError`` with a reason on the first
problem it finds and returns None when the output is right.

A matrix is a list of rows of booleans: ``m[x][y]`` is True iff x beats y.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: Isomorphism classes of tournaments of order 1..7 (OEIS A000568).
CLASS_COUNTS = (1, 1, 2, 4, 12, 56, 456)


class CheckError(Exception):
    """An output that does not match the definition it claims to compute."""


def random_matrix(n: int, seed: int) -> list[list[bool]]:
    """The uniformly random tournament ``gen random --n n --seed seed`` writes.

    Follows the documented generator: pairs (x, y), x < y, in lexicographic
    order, each oriented by one bit of ``random.Random(seed)``; a set bit
    means x beats y.
    """
    rng = random.Random(seed)
    m = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if rng.getrandbits(1):
                m[x][y] = True
            else:
                m[y][x] = True
    return m


def format_matrix(m: list[list[bool]]) -> str:
    lines = [str(len(m))] + ["".join("1" if c else "0" for c in row) for row in m]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> list[list[bool]]:
    """Read a tournament file, rejecting anything that is not a tournament."""
    lines = text.split("\n")
    if lines[-1] != "" or not lines[0].isascii() or not lines[0].isdigit():
        raise CheckError("not a tournament file")
    n = int(lines[0])
    rows = lines[1:-1]
    if len(rows) != n or any(len(r) != n or set(r) - {"0", "1"} for r in rows):
        raise CheckError(f"tournament file of order {n} has a malformed matrix")
    m = [[c == "1" for c in r] for r in rows]
    for x in range(n):
        if m[x][x]:
            raise CheckError(f"{x} beats itself")
        for y in range(x + 1, n):
            if m[x][y] == m[y][x]:
                raise CheckError(f"pair ({x}, {y}) is not decided exactly once")
    return m


def _ids(stdout: str) -> list[int]:
    """Alternative ids from one-per-line output; labelled lines end in the id."""
    return [int(line.split()[-1]) for line in stdout.splitlines()]


def _expect_set(got: list[int], want: set[int], rule: str) -> None:
    if got != sorted(want):
        raise CheckError(f"{rule}: printed {got}, expected {sorted(want)}")


def check_copeland(m: list[list[bool]], stdout: str) -> None:
    scores = [sum(row) for row in m]
    best = max(scores)
    _expect_set(_ids(stdout), {x for x, s in enumerate(scores) if s == best}, "copeland")


def check_top_cycle(m: list[list[bool]], stdout: str) -> None:
    # The top cycle is the shortest prefix, by descending score, whose
    # members beat everyone outside it: k members with score sum
    # C(k, 2) + k (n - k).
    n = len(m)
    by_score = sorted(range(n), key=lambda x: -sum(m[x]))
    total = 0
    for k in range(1, n + 1):
        total += sum(m[by_score[k - 1]])
        if total == k * (k - 1) // 2 + k * (n - k):
            _expect_set(_ids(stdout), set(by_score[:k]), "tc")
            return
    raise CheckError("tc: no dominant prefix; input is not a tournament")


def uncovered(m: list[list[bool]]) -> set[int]:
    """Alternatives reaching every other in at most two steps."""
    n = len(m)
    masks = [sum(1 << y for y in range(n) if row[y]) for row in m]
    out = set()
    for x in range(n):
        reach = masks[x] | 1 << x
        for z in range(n):
            if m[x][z]:
                reach |= masks[z]
        if reach == (1 << n) - 1:
            out.add(x)
    return out


def check_uncovered(m: list[list[bool]], stdout: str) -> None:
    _expect_set(_ids(stdout), uncovered(m), "uc")


def check_lottery(m: list[list[bool]], stdout: str) -> None:
    """Certify a ``solve --rule bp`` lottery as the game's equilibrium.

    The tournament game has a unique optimal strategy, so any lottery that
    is a probability vector with a nonnegative payoff against every pure
    reply is the answer.  Its support must have odd size.
    """
    n = len(m)
    weights: dict[int, Fraction] = {}
    for line in stdout.splitlines():
        *head, p = line.split()
        if not head or not p.startswith("p="):
            raise CheckError(f"bp: malformed line {line!r}")
        v = int(head[-1])
        w = Fraction(p[2:])
        if v in weights or not 0 <= v < n or w <= 0:
            raise CheckError(f"bp: bad entry {line!r}")
        weights[v] = w
    if list(weights) != sorted(weights):
        raise CheckError("bp: support not in ascending order")
    if sum(weights.values()) != 1:
        raise CheckError(f"bp: weights sum to {sum(weights.values())}")
    if len(weights) % 2 == 0:
        raise CheckError(f"bp: support of even size {len(weights)}")
    for y in range(n):
        payoff = sum(w if m[x][y] else -w for x, w in weights.items() if x != y)
        if payoff < 0:
            raise CheckError(f"bp: reply {y} earns {-payoff} against the lottery")


def check_witnesses(
    m: list[list[bool]], stdout: str, members: set[int] | None = None
) -> None:
    """Check every ``solve --rule banks --witness`` chain.

    A chain certifies its member x when it lies in x's dominion, is
    ordered top down (each element beats every later one), and nobody
    beats all of it and x.  With ``members`` given, the printed members
    must be exactly that set; otherwise they must be uncovered, since the
    Banks set lies inside the uncovered set.
    """
    n = len(m)
    printed = []
    for line in stdout.splitlines():
        head, sep, tail = line.partition(" witness=")
        if not sep:
            raise CheckError(f"banks: malformed line {line!r}")
        x = int(head.split()[-1])
        chain = [] if tail == "(empty)" else [int(tok.split()[-1]) for tok in tail.split(",")]
        for i, b in enumerate(chain):
            if not m[x][b]:
                raise CheckError(f"banks: witness of {x} leaves its dominion at {b}")
            for c in chain[i + 1:]:
                if not m[b][c]:
                    raise CheckError(f"banks: witness of {x} is not top down at {b}, {c}")
        top = chain + [x]
        for z in range(n):
            if z not in top and all(m[z][b] for b in top):
                raise CheckError(f"banks: {z} beats the whole witness of {x}")
        printed.append(x)
    if printed != sorted(set(printed)):
        raise CheckError("banks: members repeated or out of order")
    if members is not None:
        _expect_set(printed, members, "banks")
    elif not printed or not set(printed) <= uncovered(m):
        raise CheckError(f"banks: members {printed} empty or not all uncovered")


def check_dot(m: list[list[bool]], stdout: str) -> None:
    lines = stdout.splitlines()
    if not lines or lines[0] != "digraph tournament {" or lines[-1] != "}":
        raise CheckError("export-dot: not a digraph")
    edges = set()
    for line in lines:
        left, arrow, right = line.strip().partition(" -> ")
        if arrow:
            edges.add((int(left), int(right.rstrip(";"))))
    n = len(m)
    want = {(x, y) for x in range(n) for y in range(n) if m[x][y]}
    if edges != want:
        raise CheckError(f"export-dot: {len(edges ^ want)} edges differ from the input")


def check_scan(stdout: str, max_order: int) -> None:
    """An exhaustive scan to ``max_order``: known class counts, no witness."""
    want = [
        f"order {n}: {CLASS_COUNTS[n - 1]} classes covering "
        f"{2 ** (n * (n - 1) // 2)} labelled tournaments"
        for n in range(1, max_order + 1)
    ] + ["witnesses: 0"]
    if stdout.splitlines() != want:
        raise CheckError(f"scan: output differs from {want}")


def check_verify_paper(stdout: str, variant: bool) -> None:
    """The order-36 report: 10 passes for the build, 8 passes and 2 skips
    for an outer-triangle variant."""
    lines = stdout.splitlines()
    passes = sum(line.startswith("PASS ") for line in lines[:-1])
    skips = sum(line.startswith("SKIP ") for line in lines[:-1])
    if variant:
        want = (8, 2, "result: PASS (8 passed, 0 failed, 2 skipped, mode=variant)")
    else:
        want = (10, 0, "result: PASS (10 passed, 0 failed, 0 skipped, mode=canonical)")
    if (passes, skips, lines[-1] if lines else "") != want or len(lines) != 11:
        raise CheckError(f"verify-paper: got {passes} passes, {skips} skips, {lines[-1:]}")
