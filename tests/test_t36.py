"""The bundled order-36 construction and its scripted verification."""

import hashlib
import json
from collections import Counter

import pytest

from tournsol import (
    CENTER,
    Tournament,
    build_t36,
    build_t36_variant,
    classify,
    is_automorphism,
    orbits,
    random_orientations,
    random_tournament,
    rotation,
    symmetry_generators,
    twist,
    verify_t36,
    vertex_coords,
    vertex_id,
    vertex_label,
)
from tournsol.t36 import CYCLIC_ORIENTATION, OUTER_TRIANGLES, block, triangle

from oracles import oracle_group, oracle_is_prime
from test_search import cyclic_tournament


def test_vertex_numbering_round_trip():
    seen = set()
    for i in range(4):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                v = vertex_id(i, j, k)
                assert vertex_coords(v) == (i, j, k)
                seen.add(v)
    assert seen == set(range(36))


def test_vertex_labels():
    assert vertex_label(0) == "v0_1_1"
    assert vertex_label(35) == "v3_3_3"
    assert vertex_label(vertex_id(2, 2, 1)) == "v2_2_1"


def test_blocks_and_triangles():
    assert block(0) == CENTER == frozenset(range(9))
    assert block(3) == frozenset(range(27, 36))
    assert triangle(3, 2) == frozenset({30, 31, 32})
    assert OUTER_TRIANGLES == tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))


def test_build_is_deterministic_and_valid():
    a = build_t36()
    b = build_t36()
    assert a is b or a == b
    assert a.order == 36


def test_degree_profile():
    t = build_t36()
    scores = t.copeland_scores()
    assert all(scores[v] == 19 for v in CENTER)
    assert all(scores[v] == 17 for v in range(9, 36))
    assert sum(scores) == 630


def test_symmetries_are_automorphisms():
    t = build_t36()
    gens = symmetry_generators()
    assert len(gens) == 4
    for g in gens:
        assert is_automorphism(t, g)


def test_rotation_and_twist_values():
    rot = rotation()
    assert rot[0] == 3 and rot[27] == 9
    tw = twist(1)
    assert tw[0] == 1 and tw[18] == 19 and tw[27] == 30
    whole = repr((rotation(), twist(1), twist(2), twist(3))).encode("ascii")
    assert hashlib.sha256(whole).hexdigest() == (
        "1b2731cf697d510957e9ccdf76a9f2e1b6becabd1b3282f2837af0c88fdad292")


def cycle_type(perm):
    """Sorted cycle lengths of a permutation."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = perm[v]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_symmetry_group_order_and_cycle_types():
    group = oracle_group(symmetry_generators(), 36)
    assert len(group) == 81
    assert Counter(cycle_type(g) for g in group) == {
        (1,) * 36: 1,
        (9,) * 4: 36,
        (3,) * 12: 26,
        (1,) * 3 + (3,) * 11: 12,
        (1,) * 15 + (3,) * 7: 6,
    }


def orbits_of_group(perms, n):
    group = oracle_group(perms, n)
    parts = {frozenset(g[v] for g in group) for v in range(n)}
    return tuple(sorted(parts, key=min))


def test_orbits_match_the_oracle():
    t = build_t36()
    gens = symmetry_generators()
    for chosen in [gens] + [[g] for g in gens]:
        assert orbits(t, chosen) == orbits_of_group(chosen, 36)
    cycle3 = Tournament([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert orbits(cycle3, [(1, 2, 0)]) == orbits_of_group([(1, 2, 0)], 3)
    for n in (5, 7, 9):
        shift = tuple((i + 1) % n for i in range(n))
        parts = orbits(cyclic_tournament(n), [shift])
        assert parts == orbits_of_group([shift], n) == (frozenset(range(n)),)


def test_twist_rejects_bad_sector():
    with pytest.raises(ValueError):
        twist(0)
    with pytest.raises(ValueError):
        twist(4)


def test_orbits_split_center_from_rest():
    t = build_t36()
    parts = orbits(t, symmetry_generators())
    assert parts == (CENTER, frozenset(range(9, 36)))
    assert orbits(t, (g for g in symmetry_generators())) == parts  # a one-shot iterator


def test_orbits_rejects_non_automorphism():
    t = build_t36()
    broken = list(range(36))
    broken[0], broken[9] = broken[9], broken[0]
    with pytest.raises(ValueError):
        orbits(t, [tuple(broken)])
    with pytest.raises(ValueError, match="^generator 1 is not an automorphism$"):
        orbits(t, [rotation(), tuple(broken)])


def test_classify():
    assert classify(build_t36()) == "canonical"
    variant = build_t36_variant(random_orientations(4))
    assert classify(variant) in {"canonical", "variant"}
    assert classify(random_tournament(36, 8)) is None
    assert classify(random_tournament(12, 8)) is None


def test_variant_with_all_cycles_is_canonical():
    same = build_t36_variant({tri: CYCLIC_ORIENTATION for tri in OUTER_TRIANGLES})
    assert same == build_t36()


def test_variant_builder_rejects_bad_input():
    good = {tri: CYCLIC_ORIENTATION for tri in OUTER_TRIANGLES}
    missing = dict(good)
    del missing[(1, 1)]
    with pytest.raises(ValueError):
        build_t36_variant(missing)
    extra = dict(good)
    extra[(0, 1)] = 0
    with pytest.raises(ValueError):
        build_t36_variant(extra)
    bad_value = dict(good)
    bad_value[(2, 2)] = 8
    with pytest.raises(ValueError):
        build_t36_variant(bad_value)


def test_variant_only_touches_outer_triangles():
    t = build_t36()
    variant = build_t36_variant(random_orientations(11))
    differing = {
        (x, y)
        for x in range(36)
        for y in range(36)
        if x != y and t.dominates(x, y) != variant.dominates(x, y)
    }
    for x, y in differing:
        bi, bj = vertex_coords(x)[:2], vertex_coords(y)[:2]
        assert bi == bj and bi[0] in (1, 2, 3)


def test_random_orientations_deterministic():
    assert random_orientations(3) == random_orientations(3)
    assert random_orientations(3) != random_orientations(4)
    assert set(random_orientations(5)) == set(OUTER_TRIANGLES)


def test_verify_passes_on_canonical():
    report = verify_t36(build_t36())
    assert report["overall_pass"]
    assert report["mode"] == "canonical"
    assert len(report["checks"]) == 10
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_variant_skips_orientation_dependent_checks():
    report = verify_t36(build_t36_variant(random_orientations(0)))
    assert report["mode"] == "variant"
    skipped = {c["name"] for c in report["checks"] if c["status"] == "skipped"}
    assert skipped <= {"degree_profile", "symmetry_orbits"}
    assert all(c["status"] in {"pass", "skipped"} for c in report["checks"])
    assert report["overall_pass"]


def test_verify_fails_on_unrelated_tournament():
    report = verify_t36(random_tournament(36, 123))
    assert report["mode"] == "general"
    assert not report["overall_pass"]
    assert any(c["status"] == "fail" for c in report["checks"])


def test_verify_names_the_pair_of_a_broken_build():
    rows = list(build_t36().row_masks)
    rows[0] &= ~(1 << 9)
    rows[9] &= ~(1 << 0)
    report = verify_t36(Tournament._from_masks(36, rows))
    validity = report["checks"][0]
    assert validity["name"] == "validity"
    assert validity["status"] == "fail"
    assert validity["details"] == {"undecided_or_double": [(0, 9)]}
    assert not report["overall_pass"]


def test_verify_tests_each_symmetry_generator_once(monkeypatch):
    calls = []
    apply = Tournament.apply_permutation
    monkeypatch.setattr(Tournament, "apply_permutation",
                        lambda t, perm: calls.append(perm) or apply(t, perm))
    assert verify_t36(build_t36())["overall_pass"]
    assert len(calls) == 4


def _symmetry_check(report):
    return next(c for c in report["checks"] if c["name"] == "symmetry_orbits")


def test_symmetry_check_names_the_generators_that_fail():
    # reversing center triangle {0, 1, 2} breaks only the rotation
    rows = [row ^ (0b111 & ~(1 << x)) if x < 3 else row
            for x, row in enumerate(build_t36().row_masks)]
    report = verify_t36(Tournament._from_masks(36, rows))
    assert report["mode"] == "general"
    assert _symmetry_check(report) == {"name": "symmetry_orbits", "status": "fail",
                                       "details": {"non_automorphisms": ["rotation"]}}
    assert _symmetry_check(verify_t36(random_tournament(36, 2)))["details"] == {
        "non_automorphisms": ["rotation", "twist1", "twist2", "twist3"]}


def test_build_and_variants_are_prime():
    # no module collapse gives a smaller tournament with the same separation
    for t in [build_t36()] + [build_t36_variant(random_orientations(s)) for s in (1, 2, 3)]:
        assert oracle_is_prime(t)


def test_verify_rejects_wrong_order():
    with pytest.raises(ValueError):
        verify_t36(random_tournament(10, 0))


def test_report_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schema = json.loads(
        files("tournsol").joinpath("report_schema.json").read_text()
    )
    for t in (build_t36(), build_t36_variant(random_orientations(9)),
              random_tournament(36, 99)):
        doc = verify_t36(t)
        jsonschema.validate(doc, schema)
        assert list(doc) == ["schema_version", "order", "mode", "overall_pass", "checks"]
        # JSON round-trip safe
        assert json.loads(json.dumps(doc)) == doc


# (gen arguments of the verified file or None for the fresh build, exit
# code, sha256 of the report, sha256 of stdout)
PINNED_VERIFY_RUNS = [
    (None, 0,
     "e6edab776225520fb85b08cc298b376edd5074d6661643aa8caecdaedfcba15c",
     "3806b7d232b7003b0e84dbcbf5bc86218ebbeefeb3cdabe33db2597a0bf0c5d3"),
    (["paper36", "--variant-seed", "3"], 0,
     "8977848dfcff799b79a3fae8c1ab4805592206858d0fee4aaca5a99e462c3762",
     "d0f883d41e78a801b7649439764df31aac8d63de7e3be9d4111f2d391f63db5a"),
    (["random", "--n", "36", "--seed", "99"], 1,
     "fc1b68a8bef4ba4ec01850517b22de9f67651bb0a9942f5280cd871f3ee853e3",
     "98d8b181418c278312177bd5454ddd3032f7f06322ee8c4d648c1505a411e691"),
]


def test_verify_paper_report_bytes_are_pinned(tmp_path, capsys):
    from tournsol.cli import main

    for gen_args, code, report_sha256, stdout_sha256 in PINNED_VERIFY_RUNS:
        argv = ["verify-paper"]
        if gen_args is not None:
            source = tmp_path / "t.txt"
            assert main(["gen", *gen_args, "-o", str(source)]) == 0
            argv.append(str(source))
        path = tmp_path / "report.json"
        assert main([*argv, "--report", str(path)]) == code
        stdout = capsys.readouterr().out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == report_sha256
        assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == stdout_sha256
        doc = json.loads(path.read_text())
        assert doc["overall_pass"] == all(c["status"] != "fail" for c in doc["checks"])
        assert doc["overall_pass"] == (code == 0)


def test_vertex_id_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        vertex_id(4, 1, 1)
    with pytest.raises(ValueError):
        vertex_id(0, 0, 1)
    with pytest.raises(ValueError):
        vertex_id(0, 1, 4)


def test_orbit_edge_cases():
    from tournsol import Tournament

    cycle3 = Tournament([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert orbits(cycle3, []) == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert orbits(cycle3, [(1, 2, 0)]) == (frozenset({0, 1, 2}),)


def test_choice_sets_are_symmetry_invariant():
    from tournsol import banks_set, bipartisan_set

    t = build_t36()
    ba = banks_set(t)
    bp, lottery = bipartisan_set(t)
    for g in symmetry_generators():
        assert frozenset(g[v] for v in ba) == ba
        assert frozenset(g[v] for v in bp) == bp
        assert all(lottery[g[v]] == lottery[v] for v in range(t.order))


def test_middle_block_second_triangle_domination():
    t = build_t36()
    shared = frozenset({24, 25, 26, 6, 8, 11, 14, 17})
    for v in (21, 22, 23):
        assert shared <= t.dominion(v)


def test_center_dominators_spot_value():
    t = build_t36()
    assert t.dominators(11) & CENTER == frozenset({0, 1, 2, 3, 8})


def test_dominion_of_corner_center_vertex():
    t = build_t36()
    expected = frozenset({0, 1, 2, 6, 11, 14, 17, 24, 25, 26}) | block(3)
    assert t.dominion(8) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: vertex_coords(36), "alternative 36 outside 0..35"),
    (lambda: block(4), "block 4 outside 0..3"),
    # random.Random(-7) would draw the same orientations as random.Random(7)
    (lambda: random_orientations(-7), "seed must be nonnegative, got -7"),
])
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
