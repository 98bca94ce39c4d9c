"""The package's public names: pinned, each exported by one module, all importable."""

import tournsol
from tournsol import core, games, io, search, solutions, t36

MODULES = (core, games, io, search, solutions, t36)

PUBLIC = [
    "CENTER", "CYCLIC_ORIENTATION", "InvariantError", "OUTER_TRIANGLES",
    "ParseError", "RULES", "ScanOutcome", "ScanWitness", "Tournament",
    "automorphism_count", "banks_set", "banks_witness",
    "bipartisan_set", "block", "build_t36", "build_t36_variant", "canonical_form",
    "classify", "copeland_set", "derive_seed",
    "dot_clusters", "equilibrium_slacks", "export_dot", "format_tournament",
    "is_automorphism", "isomorphism_class_representatives", "iter_bits",
    "maximal_transitive_subsets", "orbits", "parse_tournament", "random_orientations",
    "random_tournament", "read_tournament", "resolve_rule", "rotation",
    "scan_separation", "solve_symmetric_zero_sum", "splitmix64", "symmetry_generators",
    "top_cycle", "triangle", "twist", "uncovered_set", "verify_equilibrium",
    "verify_t36", "vertex_coords", "vertex_id", "vertex_label",
]


def test_public_names_are_pinned():
    assert sorted(tournsol.__all__) == PUBLIC


def test_no_name_is_exported_by_two_modules():
    # The package star-imports every module, so a repeated name would
    # silently resolve to the last module's object.
    owner = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owner, f"{name} exported by {owner[name]} and {module.__name__}"
            owner[name] = module.__name__


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tournsol, name) is getattr(module, name), name
