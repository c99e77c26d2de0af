from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from barriers.barrier import ExactSize, Plus, Schreier, base_members, front
from barriers.coloring import (
    Coloring,
    PartialColoringError,
    builtin_coloring,
    check_bounded,
    table_coloring,
)
from barriers.solver import (
    MAX_GROUND,
    FrontIndex,
    Witness,
    find,
    verify_free,
    verify_mono,
    verify_rainbow,
    verify_thin,
)

from conftest import SPEC_POOL


def reference_universe(f, ground):
    """find's thin universe when none is given, by its definition: the colors
    used on the ground front, one member at a time."""
    return tuple(sorted({f(s) for s in front(f.barrier, ground)}))


def const(spec, value):
    return builtin_coloring(spec, "const", {"value": value})


def test_verify_mono():
    assert verify_mono(const(Schreier(), 4), range(8))
    parity = builtin_coloring(Schreier(), "min-parity")
    assert verify_mono(parity, (0, 2, 4, 6, 8, 10))
    two = table_coloring(ExactSize(1), {(0,): 0, (1,): 1})
    assert not verify_mono(two, (0, 1))
    assert verify_mono(two, ())  # empty front is vacuously constant


def test_verify_free():
    f = builtin_coloring(Schreier(), "min")
    assert verify_free(f, range(9))  # the color always lands inside the member
    g = builtin_coloring(ExactSize(1), "max-plus-one")
    assert not verify_free(g, (0, 1, 2))
    assert verify_free(const(Schreier(), 0), range(1, 10))  # 0 outside the set


def test_verify_thin():
    f = const(ExactSize(1), 0)
    assert verify_thin(f, (), (0, 1))  # empty image omits everything
    two = table_coloring(ExactSize(1), {(0,): 0, (1,): 1})
    assert not verify_thin(two, (0, 1), (0, 1))
    assert verify_thin(two, (0,), (0, 1))


def test_verify_rainbow():
    rank = builtin_coloring(Schreier(), "rank")
    assert verify_rainbow(rank, range(8))
    assert not verify_rainbow(const(ExactSize(1), 3), (0, 1))


def test_verify_rejects_non_base_elements():
    from barriers.barrier import Plus

    f = const(Plus(ExactSize(1)), 0)
    with pytest.raises(ValueError):
        verify_mono(f, (0, 1))  # 0 is outside the shifted base


def test_partial_coloring_raises():
    f = table_coloring(ExactSize(1), {(0,): 1})
    with pytest.raises(PartialColoringError):
        verify_mono(f, (0, 1))


def test_find_mono_pigeonhole():
    two = table_coloring(ExactSize(1), {(x,): x % 2 for x in range(6)})
    w = find("mono", two, range(6), 3)
    assert w is not None and w.property == "mono"
    assert verify_mono(two, w.h)
    assert w.h == (0, 2, 4)  # smallest-lex witness at minimal size


def test_find_rainbow_none_for_constant():
    f = const(ExactSize(1), 7)
    assert find("rainbow", f, range(4), 2) is None


def test_find_free_excludes_successors():
    f = builtin_coloring(ExactSize(1), "max-plus-one")
    w = find("free", f, range(9), 4)
    assert w is not None and w.h == (0, 2, 4, 6)


def test_find_thin_uses_declared_universe():
    f = Coloring(ExactSize(1), lambda ms: [0] * len(ms), name="zero")
    w = find("thin", f, range(3), 2, universe=(0, 1))
    assert w is not None and w.detail == 1  # omits the declared color 1


def test_find_none_means_exhausted():
    f = const(ExactSize(1), 7)
    g = tuple(range(8))
    assert find("rainbow", f, g, 2) is None
    for size in range(2, len(g) + 1):
        for h in combinations(g, size):
            assert not verify_rainbow(f, h)
    # same for a mono search that cannot reach its size
    two = table_coloring(ExactSize(1), {(x,): x % 2 for x in range(8)})
    assert find("mono", two, g, 5) is None
    for size in range(5, len(g) + 1):
        for h in combinations(g, size):
            assert not verify_mono(two, h)


def test_find_results_always_verify():
    members = front(Schreier(), range(9))
    f = table_coloring(Schreier(), {s: (3 * s[0] + len(s)) % 4 for s in members})
    universe = reference_universe(f, range(9))
    checks = {
        "mono": verify_mono,
        "free": verify_free,
        "rainbow": verify_rainbow,
        "thin": lambda g, h: verify_thin(g, h, universe),
    }
    for prop, check in checks.items():
        w = find(prop, f, range(9), 3)
        if w is not None:
            assert check(f, w.h), (prop, w)


@given(st.sets(st.integers(0, 9), max_size=7), st.data())
def test_anti_monotone_in_the_solution_set(h, data):
    h = tuple(sorted(h))
    members = front(Schreier(), range(10))
    table = {s: (s[0] * 7 + len(s)) % 5 for s in members}
    f = table_coloring(Schreier(), table)
    sub = tuple(sorted(data.draw(st.sets(st.sampled_from(h or (0,)), max_size=len(h)))))
    sub = tuple(x for x in sub if x in h)
    universe = reference_universe(f, range(10))
    if verify_free(f, h):
        assert verify_free(f, sub)
    if verify_rainbow(f, h):
        assert verify_rainbow(f, sub)
    if verify_thin(f, h, universe):
        assert verify_thin(f, sub, universe)
    if verify_mono(f, h):
        assert verify_mono(f, sub)


def test_check_bounded_detects_violations():
    members = front(ExactSize(1), range(6))
    f = table_coloring(ExactSize(1), {s: 0 for s in members}, declared_bound=2)
    ok, worst = check_bounded(f, range(6))
    assert not ok and worst == 6
    g = table_coloring(ExactSize(1), {s: i // 2 for i, s in enumerate(members)}, declared_bound=2)
    ok, worst = check_bounded(g, range(6))
    assert ok and worst == 2
    # no declared bound: vacuously ok, with the worst multiplicity still read
    assert check_bounded(table_coloring(ExactSize(1), {s: 0 for s in members}), range(6)) == (True, 6)


def test_witness_json():
    assert Witness((1, 2), "mono", 0).to_json() == {"h": [1, 2], "property": "mono", "detail": 0}


# --- the subset-lattice search against brute force ------------------------------


def brute_find(prop, f, ground, min_size, universe=None):
    """find by its definition: every subset by size then lex, each checked
    by the verify_* of the property on its own front."""
    g = base_members(f.barrier, ground)
    if prop == "thin":
        universe = reference_universe(f, g) if universe is None else tuple(sorted(set(universe)))
    for size in range(min_size, len(g) + 1):
        for h in combinations(g, size):
            image = {f(s) for s in front(f.barrier, h)}
            if prop == "mono" and verify_mono(f, h):
                return Witness(h, "mono", image.pop() if image else None)
            if prop == "thin" and verify_thin(f, h, universe):
                return Witness(h, "thin", min(c for c in universe if c not in image))
            if prop == "free" and verify_free(f, h):
                return Witness(h, "free")
            if prop == "rainbow" and verify_rainbow(f, h):
                return Witness(h, "rainbow")
    return None


def seeded_grounds(seed):
    rng = random.Random(seed)
    return [tuple(range(6)), tuple(range(8)), tuple(sorted(rng.sample(range(11), 7)))]


@pytest.mark.parametrize("label", sorted(SPEC_POOL))
def test_find_matches_brute_force_on_seeded_tables(label):
    spec = SPEC_POOL[label]
    for seed, ground in enumerate(seeded_grounds(len(label))):
        rng = random.Random(seed)
        palette = rng.sample(range(len(ground) + 3), rng.choice((2, 3, 5)))
        f = table_coloring(spec, {s: rng.choice(palette) for s in front(spec, ground)})
        for prop in ("mono", "free", "thin", "rainbow"):
            for min_size in (0, 1, 2, 3, 5):
                want = brute_find(prop, f, ground, min_size)
                assert find(prop, f, ground, min_size) == want, (label, ground, prop, min_size)


@pytest.mark.parametrize("name", ["min", "max-plus-one", "min-parity", "size", "rank"])
def test_find_matches_brute_force_on_builtins(name):
    for spec in (ExactSize(1), ExactSize(2), Schreier(), Plus(ExactSize(1))):
        f = builtin_coloring(spec, name)
        for prop in ("mono", "free", "thin", "rainbow"):
            for min_size in (1, 2, 4):
                assert find(prop, f, range(8), min_size) == brute_find(prop, f, range(8), min_size)


def test_find_thin_matches_brute_force_on_given_universes():
    spec = Schreier()
    rng = random.Random(7)
    f = table_coloring(spec, {s: rng.randrange(4) for s in front(spec, range(8))})
    for universe in ((), (0,), (0, 1), (1, 3, 3), (0, 1, 2, 3), (9,)):
        for min_size in (1, 3, 6):
            want = brute_find("thin", f, range(8), min_size, universe)
            assert find("thin", f, range(8), min_size, universe) == want, (universe, min_size)
    assert find("thin", f, range(8), 0, ()) is None  # nothing omits a color of the empty universe


def test_violations_are_the_up_set_of_failing_subsets():
    # Four colors at random (large classes), k-bounded tables whose classes
    # have exactly k members (the rainbow pair points and the two-plane
    # closure), and one color.
    spec = Schreier()
    members = front(spec, range(7))
    rng = random.Random(3)
    shuffled = random.Random(5).sample(members, len(members))
    tables = {
        "four colors": {s: rng.randrange(4) for s in members},
        "2-bounded": {s: i // 2 for i, s in enumerate(shuffled)},
        "3-bounded": {s: i // 3 for i, s in enumerate(shuffled)},
        "one color": {s: 1 for s in members},
    }
    for name, table in tables.items():
        f = table_coloring(spec, table)
        index = FrontIndex(f, range(7))
        universe = reference_universe(f, range(7))
        checks = {
            "mono": verify_mono,
            "free": verify_free,
            "rainbow": verify_rainbow,
            "thin": lambda g, h: verify_thin(g, h, universe),
        }
        for prop, check in checks.items():
            bad = index.violations(prop, universe)
            for m in range(1 << 7):
                h = [x for x in range(7) if m >> (6 - x) & 1]
                assert (bad >> m & 1) == (not check(f, h)), (name, prop, h)


def test_ground_cap_is_on_base_elements():
    f = const(ExactSize(1), 0)
    assert find("mono", f, range(MAX_GROUND), 1) == Witness((0,), "mono", 0)
    with pytest.raises(ValueError, match=str(MAX_GROUND)):
        find("mono", f, range(MAX_GROUND + 1), 1)
    # the plus barrier's base leaves 0 out, so 0..20 holds only 20 base elements
    g = const(Plus(ExactSize(1)), 0)
    assert find("mono", g, range(MAX_GROUND + 1), 1) == Witness((1,), "mono", None)


def test_find_colors_the_whole_ground_front():
    # (0,) alone is a mono witness, but the table misses (5,): the index
    # colors every member of the ground front first, so the search raises.
    f = table_coloring(ExactSize(1), {(x,): 0 for x in range(5)})
    assert find("mono", f, range(5), 1) == Witness((0,), "mono", 0)
    with pytest.raises(PartialColoringError):
        find("mono", f, range(6), 1)


def test_find_min_size_out_of_range():
    f = const(ExactSize(1), 0)
    assert find("mono", f, range(4), 5) is None  # no layer that large
    with pytest.raises(ValueError, match="min_size"):
        find("mono", f, range(4), -1)
    with pytest.raises(ValueError, match="unknown property 'blue'"):
        find("blue", f, range(4), 0)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_rainbow_and_thin_violations_for_every_class_size(n):
    # One class of m members for m = 1..n+2 (pair unions up to m = n, the
    # two-plane closure above), the rest in classes of one to three; thin
    # over every used color, a few of them, and a universe with an unused
    # color (nothing covers it, so no subset violates).
    spec = ExactSize(2)
    members = front(spec, range(n))
    rng = random.Random(n)
    for m in range(1, n + 3):
        order = rng.sample(members, len(members))
        width = rng.randint(1, 3)
        table = {s: 0 for s in order[:m]}
        table.update({s: 1 + i // width for i, s in enumerate(order[m:])})
        f = table_coloring(spec, table)
        index = FrontIndex(f, range(n))
        used = sorted(set(table.values()))
        checks = {"rainbow": (verify_rainbow, ())}
        for universe in (used, used[:2], used + [max(used) + 1]):
            checks[f"thin {universe}"] = (lambda g, h, u=tuple(universe): verify_thin(g, h, u), universe)
        for label, (check, universe) in checks.items():
            bad = index.violations(label.split()[0], universe)
            for mask in range(1 << n):
                h = [x for x in range(n) if mask >> (n - 1 - x) & 1]
                assert (bad >> mask & 1) == (not check(f, h)), (m, label, h)
