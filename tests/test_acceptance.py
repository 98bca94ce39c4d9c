"""Acceptance suite: one test per numbered criterion, strictest tolerances.

Every numeric claim is exact (Fraction or integer equality, zero
tolerance); runtime budgets are asserted with ``time.perf_counter``.
Each test prints a single "criterion NN PASS" line on success, so a
verbose run shows one line per criterion either way.
"""

import time
from fractions import Fraction

import pytest

from tournsol import (
    CENTER,
    banks_set,
    banks_witness,
    bipartisan_set,
    build_t36,
    build_t36_variant,
    classify,
    copeland_set,
    derive_seed,
    equilibrium_slacks,
    is_automorphism,
    maximal_transitive_subsets,
    orbits,
    parse_tournament,
    format_tournament,
    random_orientations,
    random_tournament,
    scan_separation,
    symmetry_generators,
    top_cycle,
    uncovered_set,
    verify_t36,
)
from tournsol.cli import main
from tournsol.t36 import CYCLIC_ORIENTATION, OUTER_TRIANGLES, block, triangle

from oracles import oracle_banks_set, oracle_bipartisan, oracle_labeled

OUTER = frozenset(range(9, 36))
NINTH = Fraction(1, 9)


def _report(num: int, summary: str) -> None:
    print(f"criterion {num:02d} PASS {summary}")


@pytest.fixture(scope="module")
def t36():
    return build_t36()


def test_c01_construction_valid_and_fast(tmp_path, capsys):
    start = time.perf_counter()
    fresh = build_t36_variant({tri: CYCLIC_ORIENTATION for tri in OUTER_TRIANGLES})
    elapsed = time.perf_counter() - start
    assert fresh.order == 36
    for x in range(36):
        for y in range(x + 1, 36):
            assert fresh.dominates(x, y) != fresh.dominates(y, x)
    out = tmp_path / "t36.txt"
    assert main(["gen", "paper36", "-o", str(out)]) == 0
    capsys.readouterr()
    assert parse_tournament(out.read_text()) == fresh
    assert classify(fresh) == "canonical"
    assert elapsed < 1.0, f"build took {elapsed:.3f}s"
    _report(1, f"order-36 build valid, every pair decided once, {elapsed:.3f}s")


def test_c02_bipartisan_lottery_exact(t36):
    start = time.perf_counter()
    support, lottery = bipartisan_set(t36)
    elapsed = time.perf_counter() - start
    assert support == CENTER
    for v in range(36):
        assert lottery[v] == (NINTH if v in CENTER else 0)
    slacks = equilibrium_slacks(t36.skew_adjacency(), lottery)
    for v in range(36):
        assert slacks[v] == (0 if v in CENTER else NINTH)
    assert elapsed < 30.0, f"equilibrium took {elapsed:.3f}s"
    _report(2, f"support {{0..8}}, weights 1/9, outside slack 1/9, {elapsed:.3f}s")


def test_c03_banks_set_by_exhausted_refutation(t36):
    start = time.perf_counter()
    assert banks_witness(t36, 8) is None
    assert banks_set(t36) == OUTER
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"36 memberships took {elapsed:.3f}s"
    _report(3, f"banks set = {{9..35}}, vertex 8 refuted exhaustively, {elapsed:.3f}s")


def test_c04_partition(t36):
    ba = banks_set(t36)
    bp, _ = bipartisan_set(t36)
    assert ba & bp == frozenset()
    assert ba | bp == frozenset(range(36))
    _report(4, "banks and bipartisan sets are disjoint and cover everything")


def test_c05_degree_profile_and_copeland(t36):
    scores = t36.copeland_scores()
    assert all(scores[v] == 19 for v in CENTER)
    assert all(scores[v] == 17 for v in OUTER)
    assert copeland_set(t36) == CENTER
    average = Fraction(35, 2)
    assert all(Fraction(scores[v]) < average for v in banks_set(t36))
    _report(5, "scores 19/17, copeland set = center, banks scores below 17.5")


def test_c06_center_cross_degrees(t36):
    for y in OUTER:
        assert len(t36.dominion(y) & CENTER) == 4
        assert len(t36.dominators(y) & CENTER) == 5
    assert t36.dominators(11) & CENTER == frozenset({0, 1, 2, 3, 8})
    _report(6, "each outer vertex beats 4 / loses to 5 central; spot witness at 11")


def test_c07_automorphisms_and_orbits(t36):
    start = time.perf_counter()
    gens = symmetry_generators()
    assert len(gens) == 4
    for g in gens:
        assert is_automorphism(t36, g)
    assert orbits(t36, gens) == (CENTER, OUTER)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"orbit closure took {elapsed:.3f}s"
    _report(7, f"4 automorphisms, orbits {{0..8}} and {{9..35}}, {elapsed:.3f}s")


def test_c08_center_restriction_structure(t36):
    sub, _ = t36.restrict(CENTER)
    assert all(sub.copeland_score(v) == 4 for v in range(9))
    subsets = maximal_transitive_subsets(t36, CENTER)
    assert len(subsets) == 27
    assert all(len(s) == 4 for s in subsets)
    for s in subsets:
        assert any(all(t36.dominates(y, m) for m in s) for y in OUTER)
    _report(8, "center restriction regular of degree 4; 27 size-4 maximal "
               "transitive subsets, each dominated from outside")


def test_c09_spoiler_sets(t36):
    spoilers = [
        (21, {1, 2} | triangle(3, 1) | triangle(3, 2)),
        (22, {0, 2} | triangle(3, 2) | triangle(3, 3)),
        (23, {0, 1} | triangle(3, 1) | triangle(3, 3)),
    ]
    for dominator, members in spoilers:
        for m in members:
            assert t36.dominates(dominator, m)
    subspace = triangle(0, 1) | block(3)
    assert len(subspace) == 12
    for s in maximal_transitive_subsets(t36, subspace):
        assert any(s <= members for _, members in spoilers)
    _report(9, "three spoiler sets dominated by 21/22/23; every maximal "
               "transitive subset of the 12-vertex subspace lies in one")


def test_c10_variant_robustness():
    start = time.perf_counter()
    profile_deviations = 0
    for seed in range(100):
        variant = build_t36_variant(random_orientations(seed))
        report = verify_t36(variant)
        for check in report["checks"]:
            assert check["status"] in {"pass", "skipped"}, (
                f"seed {seed}: {check['name']} failed: {check['details']}"
            )
        skipped = {c["name"] for c in report["checks"] if c["status"] == "skipped"}
        assert skipped <= {"degree_profile", "symmetry_orbits"}
        scores = variant.copeland_scores()
        if any(scores[v] != 17 for v in OUTER):
            profile_deviations += 1
        assert all(scores[v] == 19 for v in CENTER)
        assert copeland_set(variant) == CENTER
    elapsed = time.perf_counter() - start
    assert elapsed < 3600.0, f"100 variants took {elapsed:.1f}s"
    # finding: the exact 17-everywhere outer profile needs cyclic triangles;
    # reoriented triangles shift outer scores within {16, 17, 18} while the
    # partition, lottery, cross-degree and copeland claims all still hold.
    _report(10, f"100 seeded variants keep all orientation-independent checks, "
                f"{elapsed:.1f}s (finding: {profile_deviations}/100 deviate from "
                f"the flat outer degree profile, as reorientation predicts)")


def test_c11_banks_oracle_equivalence():
    start = time.perf_counter()
    for n in range(1, 7):
        for t in oracle_labeled(n):
            assert banks_set(t) == oracle_banks_set(t)
    for n in (7, 8):
        for i in range(200):
            t = random_tournament(n, derive_seed(110 + n, i))
            assert banks_set(t) == oracle_banks_set(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"oracle sweep took {elapsed:.1f}s"
    _report(11, f"banks search equals subset-enumeration oracle on all labelled "
                f"orders 1..6 and 400 random draws at 7..8, {elapsed:.1f}s")


def test_c12_bipartisan_oracle_equivalence():
    from tournsol import isomorphism_class_representatives

    for n in range(1, 6):
        for t in isomorphism_class_representatives(n):
            assert bipartisan_set(t) == oracle_bipartisan(t)
    for i in range(200):
        t = random_tournament(7, derive_seed(12, i))
        assert bipartisan_set(t) == oracle_bipartisan(t)
    _report(12, "exact simplex equals odd-support oracle on all 20 classes of "
                "order <= 5 and 200 random order-7 draws")


def test_c13_exhaustive_separation_scan():
    start = time.perf_counter()
    outcome = scan_separation(("banks", "bp"), 7, "exhaustive")
    elapsed = time.perf_counter() - start
    assert outcome.examined == {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}
    assert outcome.labeled_counts == {
        n: 2 ** (n * (n - 1) // 2) for n in range(1, 8)
    }
    assert outcome.witnesses == ()
    assert elapsed < 600.0, f"scan took {elapsed:.1f}s"
    _report(13, f"class counts 1,1,2,4,12,56,456 certified; no banks/bipartisan "
                f"separation up to order 7, {elapsed:.1f}s")


def test_c14_random_property_sweep():
    violations = 0
    for i in range(1000):
        n = 3 + i % 8
        t = random_tournament(n, derive_seed(14, i))
        ba = banks_set(t)
        uc = uncovered_set(t)
        tc = top_cycle(t)
        co = copeland_set(t)
        bp, lottery = bipartisan_set(t)
        if not (ba <= uc <= tc and bp <= uc):
            violations += 1
        if not (ba and uc and tc and co and bp):
            violations += 1
        slacks = equilibrium_slacks(t.skew_adjacency(), lottery)
        for v in range(n):
            if lottery[v] > 0 and slacks[v] != 0:
                violations += 1
            if lottery[v] == 0 and slacks[v] < 0:
                violations += 1
        if parse_tournament(format_tournament(t)) != t:
            violations += 1
    assert violations == 0
    _report(14, "1000 random tournaments, orders 3..10: inclusions, exact "
                "slackness, nonempty outputs, file round-trip all clean")
