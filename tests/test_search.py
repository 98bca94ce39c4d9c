"""Seeded generation, canonical forms, and the separation scanner."""

import hashlib
import random

import pytest

from tournsol import (
    Tournament,
    automorphism_count,
    banks_set,
    bipartisan_set,
    canonical_form,
    copeland_set,
    derive_seed,
    format_tournament,
    isomorphism_class_representatives,
    parse_tournament,
    random_tournament,
    scan_separation,
)
from tournsol.search import resolve_rule, splitmix64

from oracles import oracle_canonical_form, oracle_labeled

# unlabeled tournament counts, a classical sequence
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56}


def test_splitmix64_frozen_values():
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(2 ** 64 - 1) == 16490336266968443936


def test_derive_seed_frozen_value_and_independence():
    assert derive_seed(1, 2) == 13608149317741381227
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) != derive_seed(1, 0)


def test_random_tournament_is_deterministic():
    a = random_tournament(9, 42)
    b = random_tournament(9, 42)
    assert a == b
    assert a != random_tournament(9, 43)
    assert a.order == 9


def test_random_tournament_rejects_bad_order():
    with pytest.raises(ValueError):
        random_tournament(0, 1)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randrange(1, 8)
        t = random_tournament(n, rng.getrandbits(32))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(t) == canonical_form(t.apply_permutation(perm))


def test_canonical_form_separates_classes():
    for n in range(1, 6):
        forms = {canonical_form(t) for t in oracle_labeled(n)}
        assert len(forms) == CLASS_COUNTS[n]


def test_canonical_form_matches_the_oracle():
    for n in range(1, 6):
        for t in oracle_labeled(n):
            assert canonical_form(t) == oracle_canonical_form(t)
    rng = random.Random(606)
    for n in (6, 6, 6, 6, 7, 7):
        t = random_tournament(n, rng.getrandbits(32))
        assert canonical_form(t) == oracle_canonical_form(t)


# sha256 of the forms joined by newlines, and the first 16 hex digits of
# sha256 of repr of the representatives' row masks
PINNED_CLASSES = {
    6: ("12e7859aa69f1f91883f64cf63a1d0527ce55f7dd4d3bcbb30631dbdd52e012c", "42926a121ca1e589"),
    7: ("29e6f43f638ed2646b74e6ec36a574c120873e624d98ad74d8a371bc27bcc8ce", "62c9ab47c45a177f"),
}


@pytest.mark.parametrize("n", sorted(PINNED_CLASSES))
def test_canonical_forms_and_representatives_are_pinned(n):
    forms_sha256, reps_prefix = PINNED_CLASSES[n]
    reps = isomorphism_class_representatives(n)
    forms = b"\n".join(canonical_form(r) for r in reps)
    assert hashlib.sha256(forms).hexdigest() == forms_sha256
    masks = repr([r.row_masks for r in reps]).encode()
    assert hashlib.sha256(masks).hexdigest()[:16] == reps_prefix


def test_canonical_form_cap():
    with pytest.raises(ValueError):
        canonical_form(random_tournament(10, 0))
    with pytest.raises(ValueError, match="^order 10 above canonicalisation cap 9$"):
        isomorphism_class_representatives(10)


def test_automorphism_counts():
    cycle3 = Tournament([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    chain3 = Tournament([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    assert automorphism_count(cycle3) == 3
    assert automorphism_count(chain3) == 1
    assert automorphism_count(Tournament([[0]])) == 1


def cyclic_tournament(n):
    # x beats x+1, ..., x+(n-1)//2 mod n; at even n also x+n/2 when x < n/2
    return Tournament([[int(0 < (y - x) % n < n / 2 or (y - x) % n == n / 2 and x < y)
                        for y in range(n)] for x in range(n)])


def test_automorphism_count_cap():
    assert automorphism_count(cyclic_tournament(9)) == 9  # the rotations
    for n in (10, 31):  # without the cap, order 31 takes seconds
        with pytest.raises(ValueError, match=f"^order {n} above automorphism cap 9$"):
            automorphism_count(cyclic_tournament(n))


def test_representatives_counts_and_distinctness():
    for n, expected in list(CLASS_COUNTS.items())[:5]:
        reps = isomorphism_class_representatives(n)
        assert len(reps) == expected
        forms = {canonical_form(t) for t in reps}
        assert len(forms) == expected


def test_representatives_cover_all_labeled_tournaments():
    # orbit-counting certificate: class orbit sizes tile the labeled space
    import math

    for n in range(1, 6):
        reps = isomorphism_class_representatives(n)
        total = sum(math.factorial(n) // automorphism_count(t) for t in reps)
        assert total == 2 ** (n * (n - 1) // 2)


def test_representatives_are_the_classes_the_scan_examines(monkeypatch):
    import tournsol.search as search_mod

    examined = []

    def everything(t):
        examined.append(t)
        return frozenset(range(t.order))

    monkeypatch.setitem(search_mod.RULES, "everything", everything)
    scan_separation(("copeland", "everything"), 6, "exhaustive")
    for n in range(1, 7):
        assert [t for t in examined if t.order == n] == isomorphism_class_representatives(n)


def test_representatives_check_the_orbit_count(monkeypatch):
    import tournsol.search as search_mod

    monkeypatch.setattr(search_mod, "automorphism_count", lambda t: 1)
    isomorphism_class_representatives(2)  # no nontrivial automorphism up to order 2
    with pytest.raises(RuntimeError, match="order 3"):
        isomorphism_class_representatives(3)


def test_resolve_rule_aliases():
    assert resolve_rule("tc") is resolve_rule("top_cycle")
    assert resolve_rule("uc") is resolve_rule("uncovered")
    assert resolve_rule("bp") is resolve_rule("bipartisan")
    with pytest.raises(ValueError):
        resolve_rule("borda")


def test_rule_sets_meet_on_a_chain():
    chain3 = Tournament([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    assert copeland_set(chain3) & banks_set(chain3) == {0}  # both pick the top
    assert resolve_rule("uc")(chain3) & resolve_rule("bp")(chain3) == {0}


# the first witness of `scan --rules copeland,bp --mode exhaustive --max-order 8`
COPELAND_BP_WITNESS = """8
01111000
00111100
00011011
00001001
00000001
10111000
11011100
11000110
"""


def test_copeland_and_bp_separate_on_the_scan_witness():
    t = parse_tournament(COPELAND_BP_WITNESS)
    assert copeland_set(t) == {6}
    assert bipartisan_set(t)[0] == {0, 1, 2, 5, 7}
    assert not copeland_set(t) & bipartisan_set(t)[0]
    assert banks_set(t) & bipartisan_set(t)[0]


def test_scan_positional_keyword_and_defaults():
    positional = scan_separation(("bipartisan", "copeland"), 8, "random", 300, 1)
    keyword = scan_separation(rules=("bipartisan", "copeland"), max_order=8, mode="random",
                              sample_count=300, seed=1)
    assert positional.examined == keyword.examined == {8: 300}
    assert positional.labeled_counts is keyword.labeled_counts is None
    assert len(positional.witnesses) == 1
    assert positional == keyword
    default = scan_separation(("banks", "bp"), 5)  # exhaustive, as if sample_count=0, seed=0
    explicit = scan_separation(("banks", "bp"), 5, "exhaustive", 0, 0)
    assert default.examined == explicit.examined == {n: CLASS_COUNTS[n] for n in range(1, 6)}
    assert default.labeled_counts == explicit.labeled_counts == {
        n: 2 ** (n * (n - 1) // 2) for n in range(1, 6)}
    assert default.witnesses == ()
    assert default == explicit


def test_scan_validation_runs_before_any_work(monkeypatch):
    import tournsol.search as search_mod

    def no_work(*args):
        raise AssertionError("the scan built a tournament before checking its parameters")

    monkeypatch.setattr(search_mod, "_certified_class_walk", no_work)
    monkeypatch.setattr(search_mod, "random_tournament", no_work)
    cases = [
        (dict(rules=("banks",), max_order=5), "^exactly two rules required$"),
        (dict(rules=("banks", "bp"), max_order=0), "^order must be at least 1$"),
        (dict(rules=("banks", "bp"), max_order=5, mode="sideways"), "^unknown mode 'sideways'$"),
        (dict(rules=("banks", "nope"), max_order=5),
         r"^unknown rule 'nope'; choose from copeland, tc, uc, banks, bp$"),
        (dict(rules=("banks", "bp"), max_order=9),
         "^exhaustive scan above order 8 not supported$"),
        (dict(rules=("banks", "bp"), max_order=5, mode="random", sample_count=-1),
         "^random mode needs at least one sample$"),
        # derive_seed masks to 64 bits, so -1 would draw the samples of 2**64 - 1
        (dict(rules=("banks", "bp"), max_order=5, mode="random", sample_count=1, seed=-1),
         "^seed -1 outside 0..18446744073709551615$"),
        (dict(rules=("banks", "bp"), max_order=5, mode="random", sample_count=1, seed=2 ** 64),
         "^seed 18446744073709551616 outside 0..18446744073709551615$"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            scan_separation(**kwargs)


def test_exhaustive_scan_small_orders():
    outcome = scan_separation(("copeland", "tc"), 5, "exhaustive")
    assert list(outcome.examined) == list(range(1, 6))
    assert outcome.witnesses == ()
    assert outcome.labeled_counts is not None
    for n in range(1, 6):
        assert outcome.examined[n] == CLASS_COUNTS[n]
        assert outcome.labeled_counts[n] == 2 ** (n * (n - 1) // 2)


def test_random_scan_is_deterministic():
    a = scan_separation(("banks", "bp"), 7, "random", sample_count=40, seed=11)
    b = scan_separation(("banks", "bp"), 7, "random", sample_count=40, seed=11)
    assert a.examined == b.examined == {7: 40}
    assert a.witnesses == b.witnesses == ()
    assert a.labeled_counts is None
    c = scan_separation(("bipartisan", "copeland"), 8, "random", sample_count=300, seed=1)
    d = scan_separation(("bipartisan", "copeland"), 8, "random", sample_count=300, seed=1)
    assert c == d
    assert len(c.witnesses) == 1
    assert c._fields == ("examined", "labeled_counts", "witnesses")
    assert c.witnesses[0]._fields == ("rules", "tournament", "choice_sets")
    with pytest.raises(AttributeError):
        c.witnesses = ()
    with pytest.raises(AttributeError):
        c.witnesses[0].tournament = None


def test_scan_witness_round_trip_on_artificial_rules(monkeypatch):
    # force a witness by pitting a rule against an always-disjoint fake
    import tournsol.search as search_mod

    def bottom(t):
        return frozenset({min(range(t.order), key=lambda v: (t.copeland_score(v), v))})

    monkeypatch.setitem(search_mod.RULES, "bottom", bottom)
    outcome = scan_separation(("copeland", "bottom"), 2, "exhaustive")
    assert outcome.witnesses, "order-2 chain separates best from worst"
    w = outcome.witnesses[0]
    assert w.tournament.order == 2
    assert parse_tournament(format_tournament(w.tournament)) == w.tournament
    sa, sb = w.choice_sets
    assert set(sa) & set(sb) == set()
    assert search_mod.RULES["copeland"](w.tournament) == frozenset(sa)


def test_scan_evaluates_each_rule_once_per_tournament(monkeypatch):
    # witnesses included: their choice sets are the sets the test compared
    import tournsol.search as search_mod

    seen = {"copeland": [], "bottom": []}

    def counted(name, rule):
        def count(t):
            seen[name].append(t)
            return rule(t)
        return count

    def bottom(t):
        return frozenset({min(range(t.order), key=lambda v: (t.copeland_score(v), v))})

    monkeypatch.setitem(search_mod.RULES, "copeland", counted("copeland", copeland_set))
    monkeypatch.setitem(search_mod.RULES, "bottom", counted("bottom", bottom))
    exhaustive = scan_separation(("copeland", "bottom"), 4, "exhaustive")
    assert exhaustive.examined == {n: CLASS_COUNTS[n] for n in range(1, 5)}
    assert len(exhaustive.witnesses) == 6  # every class but the order-1 one and the 3-cycle
    classes = [r for n in range(1, 5) for r in isomorphism_class_representatives(n)]
    assert len(classes) == 8
    assert seen["copeland"] == seen["bottom"] == classes
    for w in exhaustive.witnesses:
        assert w.choice_sets == (tuple(sorted(copeland_set(w.tournament))),
                                 tuple(sorted(bottom(w.tournament))))
    for name in seen:
        seen[name].clear()
    sampled = scan_separation(("copeland", "bottom"), 5, "random", sample_count=20, seed=3)
    assert sampled.witnesses
    assert seen["copeland"] == seen["bottom"] == [
        random_tournament(5, derive_seed(3, i)) for i in range(20)]


@pytest.mark.parametrize("call, message", [
    (lambda: random_tournament(0, 0), "order must be at least 1"),
    (lambda: random_tournament(5, -5), "seed must be nonnegative, got -5"),
    (lambda: isomorphism_class_representatives(0), "order must be at least 1"),
    # masked to 64 bits, these would alias derive_seed(2**64 - 1, 0), derive_seed(0, 0),
    # derive_seed(0, 2**64 - 1) and splitmix64(2**64 - 1)
    (lambda: derive_seed(-1, 0), "seed -1 outside 0..18446744073709551615"),
    (lambda: derive_seed(2 ** 64, 0), "seed 18446744073709551616 outside 0..18446744073709551615"),
    (lambda: derive_seed(0, -1), "index -1 outside 0..18446744073709551615"),
    (lambda: splitmix64(-1), "seed -1 outside 0..18446744073709551615"),
])
def test_validation_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
