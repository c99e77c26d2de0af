from __future__ import annotations

import hashlib
import inspect
import json
import random
import re
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from barriers import barrier, cli, reduction
from barriers.barrier import (
    NOT_IN_BASE,
    OVERRUN,
    PROPER_PREFIX,
    Canonical,
    Derived,
    ExactSize,
    Plus,
    Product,
    Restrict,
    Schreier,
    base_members,
    classify,
    front,
    in_base,
    rank_key,
    spec_label,
)
from barriers.coloring import (
    BUILTIN_COLORINGS,
    BoundViolationError,
    Coloring,
    _table_coloring,
    builtin_coloring,
    table_coloring,
)
from barriers.diag import OracleEntry, OracleFamily, StagedColoring
from barriers.ordinals import OMEGA, Ordinal
from barriers.reduction import (
    REDUCTIONS,
    adversarial_instances,
    check_reduction,
    FreeToMonoColoring,
    random_instance,
    rrt2_fs_forward,
    rrt_rt_forward,
    ts_rt_forward,
)
from barriers.solver import MAX_GROUND, verify_free, verify_mono, verify_rainbow, verify_thin

import oracles
from conftest import EVENS, EXTRA_POOL, REDUCTION_ARMS, REDUCTION_BARRIERS, SPEC_POOL


def singles(table):
    return table_coloring(ExactSize(1), {(k,): v for k, v in table.items()})


# --- free set from monochromatic: frozen four-case values ---------------------


def test_fs_forward_case_values():
    g = FreeToMonoColoring(singles({0: 5, 1: 1}))
    assert g((2, 5)) == 0  # the color names a shifted coordinate
    g = FreeToMonoColoring(singles({0: 5, 1: 3}))
    assert g((2, 5)) == 0  # strictly inside the last gap
    g = FreeToMonoColoring(singles({0: 5, 1: 0}))
    assert g((2, 5)) == 0  # one hop: 1 - g((1, 2)) = 1 - 1
    assert g((1, 2)) == 1
    g = FreeToMonoColoring(singles({0: 5, 1: 4}))
    assert g((2, 5)) == 1  # literal reading: the value s_n - 1 lands in "otherwise"


def test_fs_forward_rejects_non_members():
    g = FreeToMonoColoring(singles({0: 0}))
    with pytest.raises(ValueError):
        g((2, 2))
    with pytest.raises(ValueError):
        g((2,))  # too short for the plus barrier over singletons


def test_fs_forward_matches_slow_reevaluation():
    for inner in (ExactSize(1), ExactSize(2), Schreier()):
        plus = Plus(inner)
        for seed in range(12):
            f = random_instance(REDUCTIONS["fs-to-rt"], inner, range(8), seed=seed)
            g = FreeToMonoColoring(f)
            for s in front(plus, range(1, 9)):
                assert g(s) == oracles.slow_fs(plus, f, s), (inner, seed, s)


def test_fs_forward_chain_tracking():
    f = singles({0: 99, **{x: max(x - 2, 0) for x in range(1, 9)}})
    g = FreeToMonoColoring(f)
    g((5, 9))
    assert g.max_chain >= 2  # (5,9) -> (3,5) -> (1,3)
    assert g((5, 9)) in (0, 1)  # memoized re-query is stable


def _ground(data, top: int) -> tuple[int, ...]:
    """0..top, or a sparse subset of it that keeps top."""
    if data.draw(st.booleans()):
        return tuple(range(top + 1))
    return tuple(sorted(data.draw(st.sets(st.integers(0, top - 1))) | {top}))


@given(st.data())
def test_fs_forward_matches_slow_recursion_in_any_order(data):
    # The prefix memo and the variant lookup against the straight recursion,
    # queried in lex order and shuffled.  On a sparse ground the hops reach
    # members outside it, so the lookup misses and the forward steps.
    inner = data.draw(st.sampled_from((ExactSize(0), ExactSize(1), ExactSize(2), Schreier(), Canonical(OMEGA),
                                       Derived(Schreier(), 2), Restrict(Schreier(), EVENS))))
    top = data.draw(st.integers(2, 8))
    ground = _ground(data, top)
    tabled = front(inner, range(top + 1))
    colors = data.draw(st.lists(st.integers(0, top + 3), min_size=len(tabled), max_size=len(tabled)))
    f = table_coloring(inner, dict(zip(tabled, colors)))
    plus = Plus(inner)
    members = front(plus, [x + 1 for x in ground])
    expected = {s: oracles.slow_fs_chain(plus, f, s) for s in members}
    deepest = max((depth for _, depth in expected.values()), default=0)
    for order in (members, data.draw(st.permutations(members))):
        g = FreeToMonoColoring(f)
        assert [g(s) for s in order] == [expected[s][0] for s in order]
        assert g.max_chain == deepest


@given(st.data())
def test_twin_count_forwards_agree_in_any_order(data):
    # Each query reads the rank order up to its own max, which may lie below
    # an earlier query's, so a shuffled order must color every member as
    # the lex order does.
    spec = data.draw(st.sampled_from((ExactSize(1), ExactSize(2), Schreier(), Canonical(OMEGA))))
    ground = _ground(data, data.draw(st.integers(1, 8)))
    members = front(spec, ground)
    seed = data.draw(st.integers(0, 1000))
    for name, forward in (("rrt-to-rt", rrt_rt_forward), ("rrt2-to-fs", rrt2_fs_forward)):
        f = random_instance(REDUCTIONS[name], spec, ground, seed=seed)
        in_lex = forward(f)
        colors = [in_lex(s) for s in members]
        shuffled = forward(f)
        order = data.draw(st.permutations(range(len(members))))
        assert [shuffled(members[i]) for i in order] == [colors[i] for i in order], name


def test_fs_backward():
    # drop max(H), then decrement pointwise
    backward = REDUCTIONS["fs-to-rt"].backward
    assert backward((1, 4, 9)) == (0, 3)
    assert backward((9, 4, 4, 1)) == (0, 3)
    assert backward((2,)) == ()
    with pytest.raises(ValueError, match="need at least 1 elements"):
        backward(())
    with pytest.raises(ValueError, match="below the shift 1"):
        backward((0, 3, 5))


# --- thin set forwards/backwards ------------------------------------------------


def test_ts_rt_forward():
    f = singles({0: 0, 1: 17, 2: 3})
    g = ts_rt_forward(f)
    assert g((0,)) == 0 and g((1,)) == 1 and g((2,)) == 1


def test_ts_fs_backward():
    # drop min(H); a witness needs 2 elements to keep one
    red = REDUCTIONS["ts-to-fs"]
    assert red.backward((3, 5, 8)) == (5, 8)
    assert red.backward((1, 0)) == (1,)
    assert red.backward((4,)) == () and red.min_witness == 2
    with pytest.raises(ValueError, match="need at least 1 elements"):
        red.backward(())


# --- rainbow forwards -------------------------------------------------------------


def test_rrt_rt_forward_counts():
    f = table_coloring(ExactSize(1), {(0,): 7, (1,): 7, (2,): 3}, declared_bound=2)
    g = rrt_rt_forward(f)
    assert (g((0,)), g((1,)), g((2,))) == (0, 1, 0)


def test_rrt_rt_forward_injective_instance_is_zero():
    members = front(Schreier(), range(7))
    f = table_coloring(Schreier(), {s: i for i, s in enumerate(members)}, declared_bound=2)
    g = rrt_rt_forward(f)
    assert all(g(s) == 0 for s in members)


def test_rrt_rt_forward_detects_bound_lies():
    f = table_coloring(ExactSize(1), {(x,): 0 for x in range(5)}, declared_bound=2)
    g = rrt_rt_forward(f)
    with pytest.raises(BoundViolationError):
        g((4,))


def test_rrt2_fs_forward():
    f = table_coloring(ExactSize(1), {(0,): 4, (1,): 4, (2,): 9}, declared_bound=2)
    g = rrt2_fs_forward(f)
    assert g((0,)) == 0  # no earlier twin
    assert g((1,)) == 0  # min((0) \ (1))
    assert g((2,)) == 0
    h = table_coloring(ExactSize(2), {s: i // 2 for i, s in enumerate(front(ExactSize(2), range(5)))}, declared_bound=2)
    gg = rrt2_fs_forward(h)
    twins = [s for s in front(ExactSize(2), range(5)) if gg(s) != 0]
    assert twins  # some member names a coordinate of its earlier twin


# --- the exhaustive checker ---------------------------------------------------------


def test_check_reduction_agrees_with_solver_enumeration():
    red = REDUCTIONS["ts-to-rt"]
    f = singles({0: 0, 1: 5, 2: 5, 3: 0, 4: 2})
    ground = range(5)
    report = check_reduction(red, f, ground, 2)
    g = ts_rt_forward(f)
    uni = {f(s) for s in front(f.barrier, range(5))} | {0, 1} | set(range(5))
    expected = 0
    for size in range(2, 6):
        for h in combinations(range(5), size):
            if verify_mono(g, h):
                expected += 1
                assert verify_thin(f, h, uni)
    assert report.checked_witnesses == expected
    assert not report.counterexamples


def test_check_reduction_fs_trims_the_top_of_the_witness():
    # A mono front says nothing about colors only queried above its largest
    # element; the desk transform drops max(H) before decrementing.
    members = front(ExactSize(1), range(9))
    table = {s: 0 for s in members}
    table[(8,)] = 1
    f = table_coloring(ExactSize(1), table, name="top-probe")
    report = check_reduction(REDUCTIONS["fs-to-rt"], f, range(9), 3)
    assert not report.counterexamples
    # Untrimmed, the same witnesses would fail: exhibit one.
    g = FreeToMonoColoring(f)
    h = (2, 5, 9)
    assert verify_mono(g, h)
    assert not verify_free(f, tuple(x - 1 for x in h))
    assert verify_free(f, tuple(x - 1 for x in h[:-1]))


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_check_reduction_zero_counterexamples_smoke(name):
    red = REDUCTIONS[name]
    for spec in (ExactSize(1), Schreier()):
        for seed in (3, 4):
            f = random_instance(red, spec, range(8), seed=seed)
            report = check_reduction(red, f, range(8), 3)
            assert not report.counterexamples, report.counterexamples[:3]
        for f in adversarial_instances(red, spec, range(8)):
            report = check_reduction(red, f, range(8), 3)
            assert not report.counterexamples, (f.name, report.counterexamples[:3])


def _identity(f):
    return f


# Every registered reduction weakened by one step: each drop removed, and the
# forward replaced by the identity (ts-to-fs's forward already is it).
WEAKENINGS = (
    ("fs-to-rt", None, {"drop": ()}),
    ("fs-to-rt", None, {"forward": _identity}),
    ("ts-to-rt", None, {"forward": _identity}),
    ("ts-to-fs", None, {"drop": ()}),
    ("rrt-to-rt", 2, {"forward": _identity}),
    ("rrt-to-rt", 3, {"forward": _identity}),
    ("rrt2-to-fs", None, {"forward": _identity}),
)


def _sweep(red, bound):
    """The instances with counterexamples, as (barrier, instance, count), and
    the largest forward color, over criterion 5's barriers on 0..9 with 10
    seeded and all adversarial instances each."""
    ground = range(10)
    hits, top = [], 0
    for b_name, spec in REDUCTION_BARRIERS.items():
        seeded = [random_instance(red, spec, ground, seed=i, bound=bound) for i in range(10)]
        for f in seeded + adversarial_instances(red, spec, ground, bound=bound):
            report = check_reduction(red, f, ground, 3)
            if report.counterexamples:
                hits.append((b_name, f.name, len(report.counterexamples)))
            top = max(top, report.forward_max_color or 0)
    return hits, top


def test_every_weakening_of_a_reduction_is_caught():
    assert {(name, bound) for name, bound, _ in WEAKENINGS} == set(REDUCTION_ARMS)
    for name, bound, fields in WEAKENINGS:
        red = REDUCTIONS[name]
        real_hits, real_top = _sweep(red, bound)
        assert not real_hits
        weak = replace(red, **fields)
        if (name, fields) == ("fs-to-rt", {"forward": _identity}):
            # the target ground is the source ground shifted up by 1, where
            # the source table has no value
            with pytest.raises(ValueError):
                _sweep(weak, bound)
        elif name == "ts-to-rt":
            # on a finite ground every coloring has finitely many colors, so
            # a mono set is thin; the identity shows in the color range only
            assert (real_top, _sweep(weak, bound)) == (1, ([], 59))
        else:
            hits = _sweep(weak, bound)[0]
            assert hits, (name, bound, fields)
            if name == "ts-to-fs":
                # H = 0..9 is free for the min coloring on exact:1 and uses
                # every color, so only the drop of min makes it thin
                assert hits == [("exact:1", "min", 1)]


# One tiny cell per arm of REDUCTION_ARMS, a barrier and a ground, on which
# every instance is run.  Free and thin sources take every table with colors
# below 7; a k-bounded rainbow source takes every coloring whose color
# classes have at most k members, up to a renaming of colors.
CELLS = {
    ("fs-to-rt", None): (ExactSize(1), range(5)),
    ("ts-to-rt", None): (ExactSize(1), range(5)),
    ("ts-to-fs", None): (ExactSize(1), range(5)),
    ("rrt-to-rt", 2): (Schreier(), range(6)),
    ("rrt-to-rt", 3): (ExactSize(2), range(4)),
    ("rrt2-to-fs", None): (ExactSize(2), range(5)),
}


def _growth_strings(n, k):
    """The colorings of n members with classes of at most k members, each
    once: its colors numbered in order of first use."""
    out = [()]
    for _ in range(n):
        out = [s + (c,) for s in out for c in range(max(s, default=-1) + 2) if s.count(c) < k]
    return out


def _failing(red, bound, first=False):
    """The color tuples of the cell's instances with counterexamples at
    min_size 3, up to the first one if asked."""
    spec, ground = CELLS[red.name, bound]
    members = front(spec, ground)
    k = (bound or 2) if red.source_property == "rainbow" else None
    tables = product(range(7), repeat=len(members)) if k is None else _growth_strings(len(members), k)
    out = []
    for colors in tables:
        f = _table_coloring(spec, dict(zip(members, colors)), name="table", declared_bound=k)
        if check_reduction(red, f, ground, 3).counterexamples:
            out.append(colors)
            if first:
                break
    return out


def test_every_instance_of_a_tiny_cell_for_every_arm():
    # every arm shows 0 instances with counterexamples on its cell: 16,807
    # tables of exact:1 on 0..4 for fs-to-rt, ts-to-rt and ts-to-fs; 764
    # colorings of schreier on 0..5 for rrt-to-rt at k = 2; 166 of exact:2 on
    # 0..3 at k = 3; 9,496 of exact:2 on 0..4 for rrt2-to-fs.  Each
    # weakening shows one on its arm's cell (the sweep stops at the first):
    # without its drop fs-to-rt fails on 14,776 and ts-to-fs on one, f(x) =
    # x; with the identity forward rrt-to-rt fails on 676 and 20, rrt2-to-fs
    # on 7,577.  The refused fs-to-rt identity and the ts-to-rt one, seen in
    # the color range only, are left to the sampled sweep.
    assert set(CELLS) == set(REDUCTION_ARMS)
    for name, bound in CELLS:
        assert _failing(REDUCTIONS[name], bound) == [], (name, bound)
    for name, bound, fields in WEAKENINGS:
        if (name, fields) not in (("fs-to-rt", {"forward": _identity}), ("ts-to-rt", {"forward": _identity})):
            assert _failing(replace(REDUCTIONS[name], **fields), bound, first=True), (name, bound, fields)
    assert _failing(replace(REDUCTIONS["ts-to-fs"], drop=()), None) == [(0, 1, 2, 3, 4)]


def test_check_reduction_refuses_a_misspelt_property():
    # a target property outside PROPERTIES is refused by the index, not
    # checked as some other property
    red = replace(REDUCTIONS["ts-to-rt"], target_property="Mono")
    f = random_instance(red, Schreier(), range(8), seed=3)
    with pytest.raises(ValueError, match="unknown property 'Mono'"):
        check_reduction(red, f, range(8), 3)


def test_check_reduction_twin_count_range():
    for k in (2, 3):
        f = random_instance(REDUCTIONS["rrt-to-rt"], Schreier(), range(8), seed=11, bound=k)
        report = check_reduction(REDUCTIONS["rrt-to-rt"], f, range(8), 3)
        assert report.forward_max_color is not None and report.forward_max_color < k


def test_check_reduction_requires_declared_bound():
    f = singles({x: x for x in range(5)})  # no declared bound
    with pytest.raises(ValueError):
        check_reduction(REDUCTIONS["rrt-to-rt"], f, range(5), 2)
    f2 = table_coloring(ExactSize(1), {(x,): x for x in range(5)}, declared_bound=3)
    with pytest.raises(ValueError):
        check_reduction(REDUCTIONS["rrt2-to-fs"], f2, range(5), 2)


def test_random_instances_are_seed_deterministic():
    a = random_instance(REDUCTIONS["fs-to-rt"], Schreier(), range(8), seed=42)
    b = random_instance(REDUCTIONS["fs-to-rt"], Schreier(), range(8), seed=42)
    members = front(Schreier(), range(8))
    assert [a(s) for s in members] == [b(s) for s in members]


def test_bounded_random_instances_respect_bound():
    from barriers.coloring import check_bounded

    for k in (2, 3):
        f = random_instance(REDUCTIONS["rrt-to-rt"], Schreier(), range(8), seed=5, bound=k)
        ok, worst = check_bounded(f, range(8))
        assert ok and worst <= k


# --- the subset-lattice checker against brute force ----------------------------------


def brute_check(red, f, ground, min_size):
    """check_reduction by its definition: every target subset by size then
    lex, both properties checked by verify_* on their own fronts."""
    g = base_members(f.barrier, ground)
    gvals = red.forward(f)
    universe = {f(s) for s in front(f.barrier, g)} | {0, 1} | set(g)  # used, the collapse colors, the ground
    verify = {
        "mono": verify_mono,
        "free": verify_free,
        "rainbow": verify_rainbow,
        "thin": lambda c, h: verify_thin(c, h, universe),
    }
    tg = red.target_ground(g)
    checked, counterexamples = 0, []
    for size in range(max(min_size, red.min_witness), len(tg) + 1):
        for h in combinations(tg, size):
            if verify[red.target_property](gvals, h):
                checked += 1
                back = red.backward(h)
                if not verify[red.source_property](f, back):
                    cex = {"witness": list(h), "solution": list(back), "property": red.source_property}
                    counterexamples.append(cex)
    return checked, counterexamples


def instances(red, spec, ground):
    bounds = (2, 3) if red.name == "rrt-to-rt" else (None,)
    for bound in bounds:
        for seed in (1, 2):
            yield random_instance(red, spec, ground, seed=seed, bound=bound)
        yield from adversarial_instances(red, spec, ground, bound=bound)


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_check_reduction_matches_brute_force(name):
    red = REDUCTIONS[name]
    for spec in (ExactSize(1), ExactSize(2), Schreier()):
        for f in instances(red, spec, range(7)):
            report = check_reduction(red, f, range(7), 2)
            want = brute_check(red, f, range(7), 2)
            assert (report.checked_witnesses, list(report.counterexamples)) == want, (name, spec, f.name)


def test_check_reduction_lists_counterexamples_in_brute_force_order():
    # Broken reductions: fs-to-rt without dropping max(H), ts-to-fs without
    # dropping min(H).  Both produce counterexamples, which must come in the
    # order of the subset scan.
    broken = [
        replace(REDUCTIONS["fs-to-rt"], drop=()),
        replace(REDUCTIONS["ts-to-fs"], drop=()),
    ]
    seen = 0
    for red in broken:
        for spec in (ExactSize(1), Schreier()):
            for f in instances(red, spec, range(7)):
                report = check_reduction(red, f, range(7), 2)
                want = brute_check(red, f, range(7), 2)
                assert (report.checked_witnesses, list(report.counterexamples)) == want, (red.name, spec, f.name)
                seen += len(want[1])
    assert seen > 0


def test_check_reduction_ground_cap():
    f = random_instance(REDUCTIONS["ts-to-rt"], ExactSize(1), range(MAX_GROUND + 1), seed=0)
    with pytest.raises(ValueError, match=str(MAX_GROUND)):
        check_reduction(REDUCTIONS["ts-to-rt"], f, range(MAX_GROUND + 1), 3)


# --- the backward map as data -------------------------------------------------------


def test_registry_backward_maps_are_the_callables():
    # The declared drops and shifts reproduce the solution maps as callables.
    old = {
        "fs-to-rt": lambda h: tuple(x - 1 for x in h[:-1]),
        "ts-to-fs": lambda h: h[1:],
        "ts-to-rt": lambda h: h,
        "rrt-to-rt": lambda h: h,
        "rrt2-to-fs": lambda h: h,
    }
    for name, backward in old.items():
        red = REDUCTIONS[name]
        assert red.target_ground(range(6)) == tuple(range(red.shift, 6 + red.shift))
        tg = red.target_ground(range(6))
        for size in range(red.min_witness, 7):
            for h in combinations(tg, size):
                assert red.backward(h) == backward(h), (name, h)
    assert {n: r.min_witness for n, r in REDUCTIONS.items() if r.min_witness > 1} == {"fs-to-rt": 2, "ts-to-fs": 2}


DROPS = ((), ("min",), ("max",), ("min", "max"), ("max", "min"), ("min", "min"), ("max", "max"))


def backward_images(red, n):
    """For each target mask over n ground elements (g[i] at bit n-1-i), the
    source mask of its image under red.backward, or None when it is too
    small to drop from; the source ground is range(n)."""
    tg = red.target_ground(range(n))
    images = []
    for m in range(1 << n):
        h = tuple(x for i, x in enumerate(tg) if m >> (n - 1 - i) & 1)
        back = red.backward(h) if len(h) >= len(red.drop) else None
        images.append(None if back is None else sum(1 << (n - 1 - x) for x in back))
    return images


@pytest.mark.parametrize("drop", DROPS)
@pytest.mark.parametrize("shift", (0, 1))
def test_preimage_of_every_single_mask(drop, shift):
    red = replace(REDUCTIONS["ts-to-rt"], drop=drop, shift=shift)
    for n in range(11):
        want = [0] * (1 << n)
        for m, image in enumerate(backward_images(red, n)):
            if image is not None:
                want[image] |= 1 << m
        assert [red.preimage(1 << b, n) for b in range(1 << n)] == want, n


@given(st.integers(0, 10), st.sampled_from(DROPS), st.integers(0, 1), st.data())
def test_preimage_matches_the_backward_map(n, drop, shift, data):
    red = replace(REDUCTIONS["ts-to-rt"], drop=drop, shift=shift)
    s = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    want = sum(1 << m for m, b in enumerate(backward_images(red, n)) if b is not None and s >> b & 1)
    assert red.preimage(s, n) == want


@pytest.mark.parametrize("drop", DROPS)
def test_preimage_agrees_with_backward_mask_by_mask(drop):
    # bit m of preimage(s, n) is set iff m keeps an element per drop and
    # the mask of backward of its subset lies in s
    rng = random.Random(f"preimage {drop}")
    for shift in (0, 1):
        red = replace(REDUCTIONS["ts-to-rt"], drop=drop, shift=shift)
        for n in range(7):
            images = backward_images(red, n)
            for _ in range(16):
                s = rng.getrandbits(1 << n)
                got = red.preimage(s, n)
                for m, image in enumerate(images):
                    want = m.bit_count() >= len(drop) and bool(s >> image & 1)
                    assert bool(got >> m & 1) == want, (drop, shift, n, s, m)


def test_reduction_fields_are_checked():
    with pytest.raises(ValueError, match="drop"):
        replace(REDUCTIONS["ts-to-fs"], drop=("first",))
    with pytest.raises(ValueError):
        REDUCTIONS["ts-to-fs"].backward(())
    with pytest.raises(ValueError):
        REDUCTIONS["fs-to-rt"].backward((0, 3))  # 0 lies below the shifted ground


def test_misaligned_target_ground_raises():
    # fs-to-rt's forward colors the plus barrier, whose base leaves out 0:
    # without the shift the target ground would not be its base.
    red = replace(REDUCTIONS["fs-to-rt"], shift=0)
    f = random_instance(red, ExactSize(1), range(6), seed=1)
    with pytest.raises(ValueError, match="shifted by 0"):
        check_reduction(red, f, range(6), 2)


# --- the twin forwards color each member once -----------------------------------


def counting(coloring):
    calls = []

    def batch(ms):
        calls.extend(ms)
        return coloring.colors_of(ms)

    return Coloring(coloring.barrier, batch, name=coloring.name, declared_bound=coloring.declared_bound), calls


def twin_definition(spec, f, s):
    """The earlier members of s's color, by the definition over the oracle's
    rank table."""
    color = f(s)
    ranks = oracles.rank_table(spec, s[-1])
    return [t for t, r in ranks.items() if r < ranks[s] and f(t) == color]


def rrt_rt_definition(spec, f, k, s):
    count = len(twin_definition(spec, f, s))
    if count >= k:
        raise BoundViolationError(count)
    return count


def rrt2_fs_definition(spec, f, s):
    twins = twin_definition(spec, f, s)
    if len(twins) > 1:
        raise BoundViolationError(len(twins))
    return min(set(twins[0]) - set(s)) if twins else 0


@pytest.mark.parametrize("spec", [ExactSize(1), ExactSize(2), Schreier()])
def test_twin_forwards_color_each_member_once(spec):
    members = front(spec, range(8))
    ranked = sorted(members, key=rank_key)
    rng = random.Random(7)
    tables = [
        ({s: i // 2 for i, s in enumerate(members)}, 2),
        ({s: rng.randrange(len(members) // 2) for s in members}, 2),  # bound lies too
        ({s: i % 5 for i, s in enumerate(members)}, 3),
    ]
    for table, k in tables:
        f = table_coloring(spec, table, declared_bound=k)
        forwards = [(rrt_rt_forward, lambda s: rrt_rt_definition(spec, f, k, s))]
        if k == 2:
            forwards.append((rrt2_fs_forward, lambda s: rrt2_fs_definition(spec, f, s)))
        for forward, definition in forwards:
            counted, calls = counting(f)
            g = forward(counted)
            queries = rng.sample(members, len(members) // 2) * 2
            furthest = -1
            for s in queries:
                try:
                    want = definition(s)
                except BoundViolationError:
                    with pytest.raises(BoundViolationError):
                        g(s)
                else:
                    assert g(s) == want, (forward.__name__, s)
                furthest = max(furthest, ranked.index(s))
                assert sorted(calls, key=rank_key) == ranked[: furthest + 1]  # each once, a rank prefix
            with pytest.raises(ValueError, match="not a member"):
                g((0, 1, 2, 3, 4, 5, 6, 7) if spec != ExactSize(1) else (0, 1))


# --- a forward reads the instance only below the member it colors ---------------


def reads_above(red, f, ground):
    """The target members s whose color, from a fresh forward asked for s
    alone, reads f at a member t with max(t) > max(s) - red.shift.  Each s
    gets its own forward, since the fs-to-rt memo and the twin counts' rank
    prefix are shared across a batch."""
    out = []
    for s in front(red.forward(f).barrier, red.target_ground(base_members(f.barrier, ground))):
        counted, calls = counting(f)
        red.forward(counted).colors_of([s])
        if any(max(t) > max(s) - red.shift for t in calls):
            out.append(s)
    return out


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_a_forward_reads_the_instance_only_below_the_member_it_colors(name):
    # the forward instance is computed from f uniformly, reading f only at
    # members that lie below the one it colors; on criterion 5's barriers
    red = REDUCTIONS[name]
    for spec in (ExactSize(1), ExactSize(2), Schreier(), Canonical(OMEGA), Derived(Schreier(), 2),
                 Restrict(Schreier(), EVENS)):
        for f in instances(red, spec, range(10)):
            assert reads_above(red, f, range(10)) == [], (name, spec_label(spec), f.name)


def test_a_look_ahead_forward_is_caught():
    # a forward that colors every member by f at the rank-last member of the table
    members = front(Schreier(), range(10))
    top = max(members, key=rank_key)

    def look_ahead(f):
        return Coloring(f.barrier, lambda ms: f.colors_of([top]) * len(ms))

    red = replace(REDUCTIONS["ts-to-fs"], forward=look_ahead)
    f = random_instance(red, Schreier(), range(10), seed=1)
    assert reads_above(red, f, range(10)) == [s for s in members if max(s) < max(top)] != []


# --- the shared front index carries no coloring state -----------------------------


def test_reports_do_not_depend_on_the_kept_fronts():
    # Many colorings through one (barrier, ground): every report equals the
    # one computed with the front caches emptied first, and the definition.
    spec, ground = Schreier(), range(8)
    broken = [replace(REDUCTIONS["fs-to-rt"], drop=()), replace(REDUCTIONS["ts-to-fs"], drop=())]
    cases = [(red, f) for red in [*REDUCTIONS.values(), *broken] for f in instances(red, spec, ground)]
    kept = [check_reduction(red, f, ground, 2) for red, f in cases]
    fresh = []
    for red, f in cases:
        barrier.indexed_front.cache_clear()
        fresh.append(check_reduction(red, f, ground, 2))
    assert kept == fresh
    for (red, f), report in zip(cases, kept):
        want = brute_check(red, f, ground, 2)
        assert (report.checked_witnesses, list(report.counterexamples)) == want, (red.name, f.name)
    assert sum(len(r.counterexamples) for r in kept) > 0


def test_twin_forwards_classify_no_front_member(monkeypatch):
    calls = []
    real = barrier.classify

    def counting_classify(spec, s):
        calls.append(s)
        return real(spec, s)

    monkeypatch.setattr(barrier, "classify", counting_classify)
    spec, ground = Schreier(), range(9)
    f = random_instance(REDUCTIONS["rrt2-to-fs"], spec, ground, seed=3)
    definitions = {
        rrt_rt_forward: lambda s: rrt_rt_definition(spec, f, 2, s),
        rrt2_fs_forward: lambda s: rrt2_fs_definition(spec, f, s),
    }
    for forward, definition in definitions.items():
        g = forward(f)
        for s in front(spec, ground):
            want = definition(s)
            calls.clear()
            assert g(s) == want, (forward.__name__, s)
            assert calls == [s]  # the call's own check, none in the forward
        with pytest.raises(ValueError, match="is not a member"):
            g((2, 3))  # a proper prefix
    calls.clear()
    for name in ("rrt-to-rt", "rrt2-to-fs"):
        assert check_reduction(REDUCTIONS[name], f, ground, 2).ok
    assert calls == []


def test_free_to_mono_hops_call_no_variant(monkeypatch):
    # A hop steps along the member with v+1 inserted; the member is the
    # library's own, so it is not classified again through variant.
    calls = []
    real = barrier.variant

    def counting_variant(spec, s, k):
        calls.append((s, k))
        return real(spec, s, k)

    monkeypatch.setattr(barrier, "variant", counting_variant)
    monkeypatch.setattr(reduction, "variant", counting_variant, raising=False)
    f = random_instance(REDUCTIONS["fs-to-rt"], Schreier(), range(9), seed=0)
    report = check_reduction(REDUCTIONS["fs-to-rt"], f, range(9), 3)
    assert report.ok and report.max_recursion_chain == 2  # the check hops
    assert calls == []


def test_free_to_mono_hops_step_to_the_variant(monkeypatch):
    # Every hop steps along the member with k inserted, once per hop group,
    # on 0..n and on a sparse ground, where some hops leave the ground.
    steps = []
    real = reduction._variant

    def counting_variant(spec, s, k):
        steps.append((s, k))
        return real(spec, s, k)

    monkeypatch.setattr(reduction, "_variant", counting_variant)
    chains = []
    for spec in (ExactSize(0), ExactSize(1), ExactSize(2), Schreier(), Canonical(OMEGA)):
        for seed in range(6):
            f = random_instance(REDUCTIONS["fs-to-rt"], spec, range(9), seed=seed)
            steps.clear()
            report = check_reduction(REDUCTIONS["fs-to-rt"], f, range(9), 3)
            assert report.ok, (spec, seed)
            assert bool(steps) == (report.max_recursion_chain > 0), (spec, seed)
            chains.append(report.max_recursion_chain)
    assert max(chains[:6]) == 1 and max(chains) > 1  # exact:0 hops to (k,), which ends at k
    sparse = (0, 2, 3, 5, 7, 8)
    f = random_instance(REDUCTIONS["fs-to-rt"], Schreier(), sparse, seed=1)
    g = FreeToMonoColoring(f)
    members = front(g.barrier, [x + 1 for x in sparse])
    want = [oracles.slow_fs(g.barrier, f, s) for s in members]
    steps.clear()
    assert [g(s) for s in members] == want
    assert len(steps) == len(g.above)  # one per hop group
    assert any(k - 1 not in sparse for _, k in steps)


def test_free_to_mono_reads_each_prefix_once():
    # The memo is filled by the rule alone: whether a front comes as one
    # batch or as single calls, in lex order or shuffled, f is read once per
    # prefix reached, by a member or by a hop.
    rng = random.Random(3)
    red = REDUCTIONS["fs-to-rt"]
    for spec in (ExactSize(1), ExactSize(2), Schreier(), Restrict(Schreier(), EVENS)):
        for ground in (range(10), (0, 2, 3, 5, 7, 8)):
            f = random_instance(red, spec, ground, seed=rng.randrange(1000))
            members = front(Plus(spec), red.target_ground(base_members(spec, ground)))
            shuffled = rng.sample(members, len(members))
            for label, ask in (("batch", lambda g: g.colors_of(members)),
                               ("lex", lambda g: [g(s) for s in members]),
                               ("shuffled", lambda g: [g(s) for s in shuffled])):
                counted, calls = counting(f)
                g = FreeToMonoColoring(counted)
                ask(g)
                assert len(calls) == len(set(calls)) == len(g.memo), (spec_label(spec), ground, label)


def test_free_to_mono_hops_are_shared_across_instances():
    # A hop target depends on the barrier, the member and k alone, so a
    # second instance on one barrier steps through the first one's hops, and
    # its report is the one computed with no hop kept.
    first, second = (random_instance(REDUCTIONS["fs-to-rt"], Schreier(), range(9), seed=seed) for seed in (0, 1))
    barrier._variant.cache_clear()
    assert check_reduction(REDUCTIONS["fs-to-rt"], first, range(9), 3).max_recursion_chain > 0
    hits = barrier._variant.cache_info().hits
    shared = check_reduction(REDUCTIONS["fs-to-rt"], second, range(9), 3)
    assert barrier._variant.cache_info().hits > hits
    barrier._variant.cache_clear()
    assert check_reduction(REDUCTIONS["fs-to-rt"], second, range(9), 3) == shared


def test_free_to_mono_colors_hops_outside_the_base_0():
    # A hop through k = v + 1 outside the plus barrier's base would mean v
    # outside the base of f.barrier, so no H contains v: the member takes 0
    # with no hop, as for v in t.  (3, 5) is t = (2,) plus a coordinate; the
    # color -3 lies below s_0 - 1 and would hop through -2.  No table or
    # builtin takes a negative color, so a coloring of its own gives one.
    negative = FreeToMonoColoring(Coloring(ExactSize(1), lambda ms: [-3] * len(ms)))
    assert negative((3, 5)) == 0
    # (5, 7) is t = (4,) over the evens; the color 1 would hop through 2,
    # and 2 is in the plus barrier's base only if 1 is in the evens.
    evens = Restrict(ExactSize(1), EVENS)
    odd = table_coloring(evens, {(x,): 1 for x in range(0, 12, 2)})
    assert FreeToMonoColoring(odd)((5, 7)) == 0
    report = check_reduction(REDUCTIONS["fs-to-rt"], odd, range(12), 3)
    assert report.checked_witnesses > 0 and not report.counterexamples


def test_free_to_mono_is_sound_where_k_leaves_the_base():
    # the random and stress instances hop through k outside the plus base
    # of these barriers; each check agrees with the brute force
    red = REDUCTIONS["fs-to-rt"]
    for spec in (Derived(Schreier(), 2), Restrict(Schreier(), EVENS)):
        for f in instances(red, spec, range(9)):
            report = check_reduction(red, f, range(9), 2)
            assert (report.checked_witnesses, list(report.counterexamples)) == brute_check(red, f, range(9), 2)
            assert not report.counterexamples, (spec, f.name)


def test_free_to_mono_checks_membership_on_calls_only(monkeypatch):
    # The rule trusts the plus-barrier members that FrontIndex hands it, so a
    # reduction check classifies nothing; a call still refuses non-members.
    calls = []
    real = barrier.classify

    def counting_classify(spec, s):
        calls.append(s)
        return real(spec, s)

    monkeypatch.setattr(barrier, "classify", counting_classify)
    red = REDUCTIONS["fs-to-rt"]
    broken = replace(red, drop=())
    reports = []
    for spec in (ExactSize(1), ExactSize(2), Schreier()):
        for f in instances(red, spec, range(7)):
            for r in (red, broken):
                calls.clear()
                report = check_reduction(r, f, range(7), 2)
                assert calls == [], (spec, f.name)
                assert (report.checked_witnesses, list(report.counterexamples)) == brute_check(r, f, range(7), 2)
                reports.append({
                    "name": r.name,
                    "barrier": spec_label(spec),
                    "coloring": f.name,
                    "ground": list(range(7)),
                    "min_size": 2,
                    "checked_witnesses": report.checked_witnesses,
                    "counterexamples": list(report.counterexamples),
                    "max_recursion_chain": report.max_recursion_chain,
                    "forward_max_color": report.forward_max_color,
                })
    # the reports, one row each with the call that made it, as computed when
    # the rule classified every memo miss
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "d683a2cabb289c3ccc05ff7014e2437a33c977997d0968cd93dbb2acae75d89d"

    g = FreeToMonoColoring(random_instance(REDUCTIONS["fs-to-rt"], Schreier(), range(8), seed=4))
    member = front(Plus(Schreier()), range(1, 9))[5]
    want = oracles.slow_fs(Plus(Schreier()), g.f, member)
    calls.clear()
    assert g(member) == want
    assert g(list(member)) == want
    assert calls == [member, member]  # one check per call, on the memo hit too
    for bad in ((1,), (2, 3), (0, 1), (1, 2, 3, 4, 5)):  # prefixes, outside the base, an overrun
        with pytest.raises(ValueError, match="is not a member"):
            g(bad)


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_cli_reduce_check_on_a_sparse_ground_matches_brute_force(name, capsys):
    # The CLI's instances table the front of 0..max(ground): the fs-to-rt
    # hops and the twin counts read f at members outside the ground.
    red = REDUCTIONS[name]
    ground = (0, 2, 3, 5, 7, 8)
    for label, spec in (("schreier", Schreier()), ("exact:2", ExactSize(2))):
        argv = ["reduce", "--name", name, "--barrier", label, "--ground", "0,2,3,5,7,8",
                "--random", "2", "--seed", "4", "--adversarial", "--check", "--min-size", "2", "--json"]
        assert cli.main(argv) == 0, capsys.readouterr().err
        report = json.loads(capsys.readouterr().out)
        fs = [random_instance(red, spec, ground, seed=4 * 100003 + i) for i in range(2)]
        fs += adversarial_instances(red, spec, ground)
        expected = [brute_check(red, f, ground, 2) for f in fs]
        assert report["instances"] == len(fs)
        assert report["checked_witnesses"] == sum(checked for checked, _ in expected)
        assert report["counterexamples"] == [c for _, cex in expected for c in cex]


# --- a front in one call: colors_of against batches of one ----------------------

EMPTY_FRONT_SPECS = (ExactSize(0), Canonical(Ordinal.from_int(0)), Product(ExactSize(0), ExactSize(0)))
PARAMS = {"const": {"value": 3}, "rank-div": {"k": 2}, "rank-mod": {"m": 3}}


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:
        return type(exc), str(exc)


def _state(g: Coloring):
    """The mutable state of a forward: the fs-to-rt memo and its deepest
    chain, or the twin counts' places."""
    place = inspect.getclosurevars(g.batch).nonlocals.get("place")
    return (
        getattr(g, "memo", None),
        getattr(g, "max_chain", None),
        place.place if isinstance(place, reduction._ColorClasses) else None,
    )


def _kinds(spec, ground, data):
    """(label, make, members): a maker of fresh colorings of one kind, and
    the members that FrontIndex would hand it (the front inside the
    ground, or inside the target ground of a forward)."""
    tabled = front(spec, range(max(ground) + 1))
    colors = data.draw(st.lists(st.integers(0, 4), min_size=len(tabled), max_size=len(tabled)))
    full = dict(zip(tabled, colors))
    gaps = dict(full)
    if tabled:
        del gaps[tabled[data.draw(st.integers(0, len(tabled) - 1))]]
    lying = data.draw(st.sampled_from((1, 2, 3)))
    members = front(spec, ground)
    kinds = [
        ("table", lambda: table_coloring(spec, full), members),
        ("partial table", lambda: table_coloring(spec, gaps), members),
    ]
    kinds += [
        (name, lambda name=name: builtin_coloring(spec, name, PARAMS.get(name)), members)
        for name in BUILTIN_COLORINGS
    ]
    seed = data.draw(st.integers(0, 99))
    for name, red in REDUCTIONS.items():
        if red.source_property == "rainbow":
            k = 2 if red.name == "rrt2-to-fs" else lying
            sources = {
                "random": random_instance(red, spec, ground, seed=seed, bound=k),
                "lying": table_coloring(spec, full, declared_bound=k),
                "partial": table_coloring(spec, gaps, declared_bound=k),
            }
        else:
            sources = {"table": table_coloring(spec, full), "partial": table_coloring(spec, gaps)}
        for label, f in sources.items():
            target = front(red.forward(f).barrier, red.target_ground(ground))
            kinds.append((f"{name} on {label}", lambda red=red, f=f: red.forward(f), target))
    return kinds


def _agree(label, make, members, data):
    for order in (members, data.draw(st.permutations(members))):
        per_member, at_once = make(), make()
        want = _outcome(lambda: [per_member.batch((s,))[0] for s in order])
        assert _outcome(lambda: at_once.colors_of(order)) == want, label
        if want[0] == "ok":  # after an error the two may have stopped at different members
            assert _state(at_once) == _state(per_member), label
            assert make().batch(order) == want[1], label  # one batch alone, no rerun


@given(st.data())
def test_colors_of_is_the_per_member_rule_for_every_kind(data):
    # Values, errors (type and message) and the forwards' state, for every
    # coloring kind, on dense and sparse grounds, in lex and shuffled order.
    spec = data.draw(st.sampled_from([*SPEC_POOL.values(), *EXTRA_POOL.values(), *EMPTY_FRONT_SPECS]))
    ground = _ground(data, data.draw(st.integers(1, 7)))
    for label, make, members in _kinds(spec, ground, data):
        _agree(label, make, members, data)


@given(st.data())
def test_colors_of_is_the_per_member_rule_for_the_staged_defeaters(data):
    alpha = data.draw(st.sampled_from((Ordinal.from_int(1), Ordinal.from_int(2), OMEGA)))
    fam = OracleFamily((OracleEntry(0, EVENS, data.draw(st.integers(0, 3))), OracleEntry(1, EVENS, 0)))
    ground = _ground(data, data.draw(st.integers(1, 7)))
    thin, rainbow = StagedColoring("thin", alpha, fam), StagedColoring("rainbow", alpha, fam)
    spec = thin.barrier
    kinds = {
        "thin": lambda: StagedColoring("thin", alpha, fam),
        "rainbow": lambda: StagedColoring("rainbow", alpha, fam),
        "ts-to-rt": lambda: ts_rt_forward(thin),
        "rrt-to-rt": lambda: rrt_rt_forward(rainbow),
        "rrt2-to-fs": lambda: rrt2_fs_forward(rainbow),
    }
    for label, make in kinds.items():
        _agree(label, make, front(spec, ground), data)


def _non_members(b, members):
    """An overrun, a proper prefix and (when the base leaves a number out)
    a sequence outside the base of the barrier b, off its longest member."""
    m = max(members, key=len)
    above = next(x for x in range(m[-1] + 1, m[-1] + 50) if in_base(b, x))
    bad = {m + (above,): OVERRUN, m[:-1]: PROPER_PREFIX}
    outside = next((x for x in range(50) if not in_base(b, x)), None)
    if outside is not None:
        bad[(outside,)] = NOT_IN_BASE
    assert {q: classify(b, q) for q in bad} == bad
    return bad


def test_every_coloring_kind_refuses_a_non_member_on_a_call():
    # A call classifies its query, whatever the kind; a batch trusts it.
    spec, ground = Restrict(Schreier(), EVENS), range(10)
    full = front(spec, ground)
    kinds = [("table", table_coloring(spec, {s: s[-1] % 3 for s in full}), full)]
    kinds += [(name, builtin_coloring(spec, name, PARAMS.get(name)), full) for name in BUILTIN_COLORINGS]
    for name, red in REDUCTIONS.items():
        g = red.forward(random_instance(red, spec, ground, seed=1))
        kinds.append((name, g, front(g.barrier, red.target_ground(ground))))
    fam = OracleFamily((OracleEntry(0, EVENS, 0), OracleEntry(1, EVENS, 1)))
    for alpha in (Ordinal.from_int(1), OMEGA):
        for g in (StagedColoring("thin", alpha, fam), StagedColoring("rainbow", alpha, fam)):
            kinds.append((f"{g.name} {alpha}", g, front(g.barrier, range(7))))
    for label, g, members in kinds:
        bad = _non_members(g.barrier, members)
        assert NOT_IN_BASE in bad.values() or isinstance(g, StagedColoring), label  # its base is every natural
        for q in bad:
            with pytest.raises(ValueError, match=f"^{re.escape(str(q))} is not a member$"):
                g(q)
        assert [g(s) for s in members] == [g.colors_of([s])[0] for s in members], label
