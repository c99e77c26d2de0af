from __future__ import annotations

import json
import random
import re
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from barriers import barrier
from barriers.barrier import (
    MAX_GROUND,
    Canonical,
    Derived,
    ELEMENT,
    ExactSize,
    NOT_IN_BASE,
    OVERRUN,
    PROPER_PREFIX,
    Plus,
    Product,
    Restrict,
    Schreier,
    VariantRangeError,
    OrderTypeUnsupportedError,
    append_variant,
    capped_front,
    check_sperner,
    classify,
    density_of_masks,
    density_probe,
    enum_rank,
    base_members,
    front,
    in_base,
    point_set,
    make_derived,
    make_product,
    make_restrict,
    order_type,
    rank_key,
    rank_of,
    sperner_of_masks,
    step,
    up_closure,
    up_closure2,
    variant,
)
from barriers.cli import main
from barriers.jsonio import spec_to_json
from barriers.ordinals import OMEGA, Ordinal, mul, omega_pow, parse_ordinal
from barriers.seqs import GroundSet, Tail

import oracles

from conftest import EXTRA_POOL, SPEC_POOL

ALL_SPECS = {**SPEC_POOL, **EXTRA_POOL}


def subsets(g, max_size=None):
    g = tuple(g)
    top = len(g) if max_size is None else min(max_size, len(g))
    return chain.from_iterable(combinations(g, size) for size in range(top + 1))


# --- frozen classification examples ------------------------------------------


def test_classify_schreier():
    assert classify(Schreier(), (2, 4, 5)) is ELEMENT
    assert classify(Schreier(), (1, 3, 7)) is OVERRUN
    assert classify(Schreier(), (3, 5)) is PROPER_PREFIX


def test_classify_canonical_limit():
    assert classify(Canonical(OMEGA), (2, 3, 5, 8)) is ELEMENT
    assert classify(Canonical(OMEGA), (2, 3, 5)) is PROPER_PREFIX
    assert classify(Canonical(OMEGA), (0,)) is ELEMENT


def test_classify_not_in_base():
    assert classify(Plus(Schreier()), (0, 2)) is NOT_IN_BASE
    assert classify(Derived(Schreier(), 2), (1, 5)) is NOT_IN_BASE
    assert classify(make_restrict(Schreier(), GroundSet(tail=Tail(0, 2))), (1, 2)) is NOT_IN_BASE


def test_step_examples():
    assert step(ExactSize(2), (4, 9, 13)) == (4, 9)
    assert step(Schreier(), (0, 5, 6)) == (0,)
    assert step(Canonical(Ordinal.from_int(1)), (7,)) == (7,)
    assert step(ExactSize(3), (4, 9)) is None  # inconclusive, not an error
    assert step(ExactSize(0), (5, 6)) == ()
    # inside an exact-size block (canonical:w after 2 is exact:3): the same
    # checks on every coordinate, and nothing read past the member

    def stream(xs):
        yield from xs
        raise AssertionError("read past the member")

    assert step(Canonical(OMEGA), stream((2, 5, 6, 9))) == (2, 5, 6, 9)
    assert step(Plus(ExactSize(2)), stream((1, 4, 6))) == (1, 4, 6)
    assert step(Canonical(OMEGA), (2, 5, 6)) is None
    with pytest.raises(ValueError, match="got 7 after 7"):
        step(Canonical(OMEGA), (3, 4, 7, 7, 8, 9, 10))
    with pytest.raises(barrier.NotInBaseError, match="7 is not in the base"):
        step(make_restrict(Canonical(OMEGA), GroundSet(tail=Tail(0, 2))), (2, 4, 7, 8))


def _step_by_prefixes(spec, xs):
    """step by its definition: the stream's checks on each coordinate read,
    then the shortest prefix that classify calls a member.  Returns the
    outcome (a member, None, or the error's type and message) and the
    number of coordinates read."""
    if classify(spec, ()) is ELEMENT:
        return (), 0
    for i, x in enumerate(xs):
        if i and x <= xs[i - 1]:
            return (ValueError, f"stream must be strictly increasing, got {x} after {xs[i - 1]}"), i + 1
        if not in_base(spec, x):
            return (barrier.NotInBaseError, f"{x} is not in the base"), i + 1
        if classify(spec, xs[: i + 1]) is ELEMENT:
            return tuple(xs[: i + 1]), i + 1
    return None, len(xs)


@given(st.sampled_from(sorted(ALL_SPECS)), st.sets(st.integers(0, 14), max_size=10), st.data())
def test_step_matches_its_definition(name, xs, data):
    # increasing streams, some with one number slipped in anywhere (also
    # inside an exact-size block: canonical:w after 3 is exact:6): the same
    # outcome, the same error at the same coordinate, nothing read past it
    spec = ALL_SPECS[name]
    xs = sorted(xs)
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(xs)))
        xs.insert(at, data.draw(st.integers(0, 14)))
    want, reads = _step_by_prefixes(spec, xs)
    stream = iter(xs)
    try:
        got = step(spec, stream)
    except ValueError as exc:
        got = (type(exc), str(exc))
    assert got == want, (name, xs)
    assert len(xs) - len(list(stream)) == reads, (name, xs)


def test_front_examples():
    assert len(front(ExactSize(3), range(6))) == 20
    assert len(front(Schreier(), range(6))) == 8
    assert front(Plus(ExactSize(1)), (1, 2, 3)) == ((1, 2), (1, 3), (2, 3))


def test_front_is_lex_sorted_and_deterministic():
    for spec in ALL_SPECS.values():
        members = front(spec, range(9))
        assert list(members) == sorted(members)
        assert members == front(spec, range(9))


def test_check_sperner():
    assert check_sperner([(0,), (1, 2)])
    assert not check_sperner([(1,), (1, 2)])
    assert check_sperner(front(Canonical(OMEGA), range(8)))


def test_density_probe_examples():
    rep = density_probe(ExactSize(1), (0, 1, 2))
    assert (rep.hit, rep.inconclusive, rep.violations) == (7, 0, ())
    rep = density_probe(ExactSize(3), (0, 1))
    assert (rep.hit, rep.inconclusive) == (0, 3)
    assert density_probe(Schreier(), range(7)).violations == ()


# --- the independent membership oracle ---------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_classification_matches_direct_membership(name):
    # the trichotomy sweep: exactly one tag, and the right one, for every
    # increasing sequence over the base with max <= 12
    spec = ALL_SPECS[name]
    for s in subsets(range(13)):
        assert classify(spec, s) is oracles.tag_oracle(spec, s), (name, s)


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_front_matches_subset_filter(name):
    spec = ALL_SPECS[name]
    assert tuple(sorted(front(spec, range(9)))) == oracles.front_oracle(spec, range(9))


def test_unit_factors_match_direct_membership():
    # the one-member family {()} as a product factor, under plus and derived
    units = (ExactSize(0), Canonical(parse_ordinal("0")), make_derived(Schreier(), 0))
    for unit in units:
        for spec in (Product(ExactSize(1), unit), Product(unit, Schreier()), Product(unit, unit), Plus(unit)):
            for s in subsets(range(8)):
                assert classify(spec, s) is oracles.tag_oracle(spec, s), (spec, s)
            assert front(spec, range(8)) == oracles.front_oracle(spec, range(8)), spec


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_density_probe_matches_tag_oracle(name, capsys):
    # stream every nonempty subset of the base in 0..9 through the stop rule,
    # tagging each prefix (the empty one first) by direct membership
    spec = ALL_SPECS[name]
    g = [x for x in range(10) if oracles.obase(spec, x)]
    counts = {ELEMENT: 0, OVERRUN: 0, PROPER_PREFIX: 0}
    for sub in subsets(g):
        if sub:
            tags = (oracles.tag_oracle(spec, sub[:i]) for i in range(len(sub) + 1))
            counts[next((t for t in tags if t is not PROPER_PREFIX), PROPER_PREFIX)] += 1
    rep = density_probe(spec, range(10))
    assert (rep.hit, rep.inconclusive, len(rep.violations)) == (
        counts[ELEMENT], counts[PROPER_PREFIX], counts[OVERRUN]
    )
    # `check` reads the density off the one front it walks
    assert main(["check", "--barrier", json.dumps(spec_to_json(spec)), "--ground", "0..10", "--json"]) == 0
    density = json.loads(capsys.readouterr().out)["density"]
    assert (density["hit"], density["inconclusive"]) == (counts[ELEMENT], counts[PROPER_PREFIX])


def test_density_probe_refuses_grounds_past_the_cap():
    assert density_probe(ExactSize(1), range(MAX_GROUND)).hit == (1 << MAX_GROUND) - 1
    # the cap counts base elements: 0 is outside the base of plus(exact:1)
    assert density_probe(Plus(ExactSize(1)), range(MAX_GROUND + 1)).inconclusive == MAX_GROUND
    with pytest.raises(ValueError, match=str(MAX_GROUND)):
        density_probe(ExactSize(1), range(MAX_GROUND + 1))


def test_front_refuses_walks_past_the_member_cap(monkeypatch):
    # front(schreier, 0..n) has F(n+1) members (Fibonacci): 55 at 0..9.
    assert len(front(Schreier(), range(10))) == 55
    monkeypatch.setattr(barrier, "MAX_MEMBERS", 55)
    barrier.indexed_front.cache_clear()  # a kept front was walked under the real cap
    assert len(front(Schreier(), range(10))) == 55
    with pytest.raises(ValueError, match="more than 55 members"):
        front(Schreier(), range(11))


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_front_cache_matches_subset_filter(name):
    # a walked front and a kept one both equal the subset filter, on a dense
    # and on a sparse ground, and are handed out as immutable tuples
    spec = ALL_SPECS[name]
    for ground in (range(11), (0, 2, 3, 5, 8, 9, 10)):
        want = oracles.front_oracle(spec, ground)
        barrier.indexed_front.cache_clear()
        first = front(spec, ground)  # walked
        second = front(spec, ground)  # kept
        assert first == want and second is first, (name, ground)
        assert type(first) is tuple and all(type(s) is tuple for s in first)
        g, _, masks = capped_front(spec, ground)
        assert type(masks) is tuple
        assert masks == tuple(sum(1 << len(g) - 1 - g.index(x) for x in s) for s in want)


# the three specs whose front is {()}, with the one mask 0
EMPTY_MEMBER_SPECS = {
    "exact:0": ExactSize(0),
    "canonical:0": Canonical(Ordinal.from_int(0)),
    "product(exact:0, exact:0)": Product(ExactSize(0), ExactSize(0)),
}


@pytest.mark.parametrize("name", sorted({**ALL_SPECS, **EMPTY_MEMBER_SPECS}))
@settings(max_examples=12)
@given(ground=st.lists(st.integers(0, 3 * MAX_GROUND), max_size=MAX_GROUND, unique=True))
@example(ground=list(range(MAX_GROUND)))
@example(ground=list(range(1, 3 * MAX_GROUND, 3)))
def test_one_walk_keeps_each_members_mask(name, ground):
    # the walk carries each prefix's mask next to the prefix: the kept masks
    # equal the masks computed member by member (g[i] at bit n-1-i) on
    # sparse grounds up to the ground cap
    spec = {**ALL_SPECS, **EMPTY_MEMBER_SPECS}[name]
    g, members, masks = capped_front(spec, ground)
    assert members == front(spec, ground)
    assert masks == tuple(sum(1 << len(g) - 1 - g.index(x) for x in s) for s in members)
    if name in EMPTY_MEMBER_SPECS:
        assert masks == (0,)


def test_fronts_of_long_grounds_carry_no_wide_masks():
    # masks are only read over capped bases, so a base past the ground cap
    # keeps 0 masks instead of n-bit ones: a million-element ground costs
    # no more than its base
    barrier.indexed_front.cache_clear()
    assert front(ExactSize(0), range(10**6)) == ((),)
    g = tuple(range(10**5))
    members, masks = barrier.indexed_front(ExactSize(1), g)
    assert members == tuple((x,) for x in g) and not any(masks)
    assert barrier.indexed_front(ExactSize(1), g[:MAX_GROUND])[1] == tuple(1 << MAX_GROUND - 1 - i for i in range(MAX_GROUND))


def test_capped_front_refuses_bases_past_the_ground_cap():
    ground = range(MAX_GROUND + 1)
    with pytest.raises(ValueError) as got:
        capped_front(ExactSize(1), ground)
    assert str(got.value) == (
        "the ground has 21 base elements; scans over all its subsets are limited to 20 (they cost 2^n)"
    )
    # the cap counts base elements: 0 is outside the base of plus(exact:1)
    assert capped_front(Plus(ExactSize(1)), ground)[0] == tuple(range(1, MAX_GROUND + 1))


def test_restrict_and_derived_share_the_front_of_their_normal_form():
    evens = (0, 2, 4, 6, 8, 10, 12)  # inside the restricted base
    restricted = Restrict(Schreier(), GroundSet(tail=Tail(0, 2)))
    assert (barrier._norm(restricted), base_members(restricted, evens)) == (Schreier(), evens)
    assert front(restricted, evens) is front(Schreier(), evens)
    assert front(restricted, range(13)) == front(Schreier(), evens)
    # (2,) + s is a Schreier member iff s has two elements above 2
    above = range(3, 12)
    derived = Derived(Schreier(), 2)
    assert front(derived, above) is front(ExactSize(2), above)
    assert front(derived, above) == tuple(s[1:] for s in front(Schreier(), (2, *above)) if s[0] == 2)


# --- structural invariants -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_prefix_coherence(name):
    spec = ALL_SPECS[name]
    for s in subsets(range(9)):
        tag = classify(spec, s)
        if tag is NOT_IN_BASE:
            continue
        member_prefixes = [i for i in range(len(s)) if classify(spec, s[:i]) is ELEMENT]
        if tag is OVERRUN:
            assert len(member_prefixes) == 1
        else:
            assert not member_prefixes


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_front_sperner(name):
    assert check_sperner(front(ALL_SPECS[name], range(10)))


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_check_sperner_matches_the_pairwise_definition(name):
    members = front(ALL_SPECS[name], range(11))
    assert check_sperner(members) == oracles.slow_sperner(members)
    for s in members[:: max(1, len(members) // 6)]:
        # a member's proper prefix, and a superset of a member
        for extra in ([s[:-1]] if s else []) + [s + (11,), s + (12, 20)]:
            injected = members + (extra,)
            assert oracles.slow_sperner(injected) is False
            assert check_sperner(injected) is False


@pytest.mark.parametrize("name", sorted(ALL_SPECS) + ["{()}"])
def test_axioms_read_off_the_kept_masks(name):
    # `check` reads Sperner and density off the kept masks: on dense, sparse
    # and empty bases, against the pairwise definition and the per-member
    # fold (a member ending at g[j] starts 2^(n-1-j) subsets, the member ()
    # of {()} all 2^n - 1 nonempty ones)
    spec = barrier.EMPTY if name == "{()}" else ALL_SPECS[name]
    for ground in (range(11), (0, 2, 3, 5, 8, 9, 10), ()):
        members = front(spec, ground)
        g, _, masks = capped_front(spec, ground)
        n = len(g)
        assert sperner_of_masks(masks, n) == oracles.slow_sperner(members) is True, (name, ground)
        full = (1 << n) - 1
        if masks and masks[0] != full:  # a set strictly above a member
            assert not sperner_of_masks(masks + (full,), n)
        hit = sum(1 << n - 1 - g.index(s[-1]) if s else full for s in members)
        assert density_of_masks(masks, n) == density_probe(spec, ground), (name, ground)
        assert (density_of_masks(masks, n).hit, density_of_masks(masks, n).inconclusive) == (hit, full - hit)


@given(st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=12))
def test_check_sperner_on_random_families(sets):
    members = [tuple(sorted(a)) for a in sets]
    assert check_sperner(members) == oracles.slow_sperner(members)


def test_check_sperner_on_repeated_and_empty_members():
    # a member listed twice is one point, so it contains no second member;
    # the empty member lies inside every other; members are read as sets
    for members in ([(0, 2), (1,), (0, 2)], [(), ()], [(), (1,)], [(1,), (), (1,)], [(2, 3), (2,), (2, 3)],
                    [(1, 1), (2, 3)]):
        assert check_sperner(members) == oracles.slow_sperner(members), members
    assert check_sperner([(0, 2), (1,), (0, 2)]) and not check_sperner([(), (1,)])


@given(st.integers(0, 8), st.data())
def test_point_set_is_the_set_of_its_masks(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    masks += data.draw(st.lists(st.sampled_from(masks), max_size=5)) if masks else []  # repeats
    assert point_set(masks, n) == sum(1 << m for m in set(masks))


@given(st.integers(0, 8), st.data())
def test_up_closures_match_their_definitions(n, data):
    points = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))

    def containing(k):  # the masks that contain at least k distinct points
        return sum(1 << h for h in range(1 << n) if sum(p & ~h == 0 for p in points) >= k)

    bits = sum(1 << p for p in points)
    assert up_closure(bits, n) == containing(1)
    assert up_closure2(bits, n) == containing(2)


def test_check_sperner_refuses_more_than_max_ground_coordinates():
    assert check_sperner([(x,) for x in range(barrier.MAX_GROUND)])
    with pytest.raises(ValueError, match="limited to 20"):
        check_sperner([(x,) for x in range(barrier.MAX_GROUND + 1)])


def test_plus_front_law():
    for inner in (ExactSize(1), ExactSize(2), Schreier()):
        for ground in (range(1, 8), (1, 2, 4, 7, 9), range(2, 9)):
            g = tuple(ground)
            shrunk = tuple(x - 1 for x in g if x >= 1)
            expected = sorted(
                t + (m,)
                for t in (tuple(x + 1 for x in s) for s in front(inner, shrunk))
                for m in g
                if m > max(t, default=0)
            )
            assert list(front(Plus(inner), g)) == expected


def test_restrict_front_law(evens):
    spec = make_restrict(Schreier(), evens)
    for ground in (range(10), (0, 2, 3, 5, 6, 8)):
        inside = [x for x in ground if x in evens]
        assert front(spec, ground) == front(Schreier(), inside)


def test_derived_front_law():
    spec = make_derived(Schreier(), 2)
    g = tuple(range(3, 10))
    got = front(spec, g)
    expected = tuple(
        s for s in subsets(g) if s and classify(Schreier(), (2,) + s) is ELEMENT
    )
    assert tuple(sorted(got)) == tuple(sorted(expected))


# --- variants -------------------------------------------------------------------


def test_variant_examples():
    assert variant(Schreier(), (2, 4, 5), 3) == (2, 3, 4)
    assert variant(Schreier(), (2, 4, 5), 1) == (1, 2)
    assert variant(ExactSize(2), (4, 9), 6) == (4, 6)


def test_variant_errors():
    with pytest.raises(VariantRangeError):
        variant(Schreier(), (2, 4, 5), 7)  # beyond max: distinct error
    with pytest.raises(ValueError):
        variant(Schreier(), (2, 4), 1)  # not a member
    with pytest.raises(ValueError):
        variant(Schreier(), (2, 4, 5), 4)  # already present
    # the base is checked first: 9 lies outside the evens and above max(s)
    evens = Restrict(ExactSize(2), GroundSet(tail=Tail(0, 2)))
    with pytest.raises(barrier.NotInBaseError, match=r"^9 is not in the base$"):
        variant(evens, (4, 8), 9)


def test_append_variant():
    assert append_variant(Schreier(), (1, 4), 2) == (1, 2)
    assert append_variant(ExactSize(2), (4, 9), 6) == (4, 6)
    with pytest.raises(VariantRangeError):
        append_variant(Schreier(), (2, 4, 5), 3)  # not in the last gap
    evens = Restrict(ExactSize(2), GroundSet(tail=Tail(0, 2)))
    with pytest.raises(barrier.NotInBaseError, match=r"^5 is not in the base$"):
        append_variant(evens, (2, 8), 5)  # in the last gap, outside the base


@pytest.mark.parametrize(
    "spec",
    [
        ExactSize(0),
        Canonical(parse_ordinal("0")),
        make_product(ExactSize(0), ExactSize(0)),
        make_derived(ExactSize(1), 1),
        Restrict(Canonical(parse_ordinal("0")), GroundSet(tail=Tail(0, 2))),
    ],
    ids=["exact:0", "canonical:0", "product", "derived", "restrict"],
)
def test_the_empty_member_has_no_variant(spec):
    # () is the one member; it has no max to insert k below, nor a last gap
    assert front(spec, range(4)) == ((),)
    for k in (0, 1, 5):
        with pytest.raises(VariantRangeError, match=r"^variant of the empty member$"):
            variant(spec, (), k)
        with pytest.raises(VariantRangeError, match=r"^append_variant of the empty member$"):
            append_variant(spec, (), k)


def schreier_facts_expected(s, k):
    """Facts (1) and (2) about the Schreier family, stated directly."""
    if k < s[0]:
        return (k,) + s[:k]
    i = max(j for j in range(len(s)) if s[j] < k)
    return s[: i + 1] + (k,) + s[i + 1 : s[0]]


def test_schreier_variant_facts_small():
    for s in front(Schreier(), range(8)):
        if not s or s[-1] == 0:
            continue
        for k in range(8):
            if k in s or k >= s[-1]:
                continue
            v = variant(Schreier(), s, k)
            assert v == schreier_facts_expected(s, k)
            assert v < s


@given(st.integers(0, 6), st.data())
def test_variant_is_member_and_lex_smaller(min_val, data):
    members = [s for s in front(Canonical(OMEGA), range(9)) if len(s) >= 2]
    s = data.draw(st.sampled_from(members))
    ks = [k for k in range(9) if k not in s and k < s[-1]]
    if not ks:
        return
    k = data.draw(st.sampled_from(ks))
    v = variant(Canonical(OMEGA), s, k)
    assert classify(Canonical(OMEGA), v) is ELEMENT
    assert k in v
    assert v < s


# --- order types ------------------------------------------------------------------


def test_order_type_examples():
    assert order_type(Schreier()) == omega_pow(OMEGA)
    assert order_type(Plus(Schreier())) == omega_pow(OMEGA)
    assert order_type(Canonical(parse_ordinal("w^2"))) == omega_pow(parse_ordinal("w^2"))
    assert order_type(ExactSize(0)) == parse_ordinal("1")
    assert str(order_type(Product(ExactSize(1), Schreier()))) == "w^(w + 1)"


def test_order_type_plus_law():
    for name, spec in ALL_SPECS.items():
        if isinstance(spec, Derived):
            continue
        assert order_type(Plus(spec)) == mul(OMEGA, order_type(spec)), name


def test_order_type_product_consistency():
    # Successor canonical barriers are products with the singleton family.
    from barriers.ordinals import ONE, add

    for a in ("1", "2", "3", "w + 1"):
        idx = parse_ordinal(a)
        via_product = order_type(Product(ExactSize(1), Canonical(idx)))
        assert via_product == omega_pow(add(idx, ONE))


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the limit chain of a limit that is not additively principal overshoots; "
                "see the FOUND line on canonical:w*2 in CHANGES.md",
            ),
        )
        if name == "canonical:w*2"
        else name
        for name in sorted(ALL_SPECS)
        if not isinstance(ALL_SPECS[name], Derived)
    ],
)
def test_a_first_coordinate_block_is_no_longer_than_the_barrier(name):
    # The members that start with x are a convex block of the lex order,
    # so the block's type, that of the residual after x, is at most the
    # barrier's.
    spec = ALL_SPECS[name]
    whole = order_type(spec)
    for x in range(13):
        if classify(spec, (x,)) in (ELEMENT, PROPER_PREFIX):
            assert order_type(barrier._d(barrier._norm(spec), x)) <= whole, (name, x)


def test_order_type_derived_unsupported():
    with pytest.raises(OrderTypeUnsupportedError):
        order_type(Derived(Schreier(), 2))


# --- constructors ------------------------------------------------------------------


def test_canonical_of_an_int_index():
    assert classify(Canonical(Ordinal.from_int(2)), (3, 7)) is ELEMENT


def test_make_derived_examples():
    assert classify(make_derived(Schreier(), 2), (5, 6)) is ELEMENT
    with pytest.raises(ValueError):
        make_derived(ExactSize(0), 3)  # nothing extends the one-member family
    with pytest.raises(ValueError):
        make_derived(Plus(Schreier()), 0)  # 0 is outside the shifted base


def test_make_restrict_requires_tail(evens):
    spec = make_restrict(Schreier(), evens)
    assert classify(spec, (1, 2)) is NOT_IN_BASE
    with pytest.raises(ValueError):
        make_restrict(Schreier(), GroundSet(prefix=(0, 2, 4)))


def test_make_product_rejects_shifted_factors():
    # a product lives on the base of both factors, so each must be a plain
    # factor or a product of them, on either side
    for factor in (
        Plus(ExactSize(1)),
        Derived(Schreier(), 1),
        Restrict(Schreier(), GroundSet(tail=Tail(0, 2))),
        Product(ExactSize(1), Plus(ExactSize(1))),
    ):
        for left, right in ((factor, Schreier()), (Schreier(), factor)):
            with pytest.raises(ValueError, match="^product factors must live on the full base of naturals$"):
                make_product(left, right)
    assert classify(make_product(ExactSize(1), ExactSize(1)), (3, 9)) is ELEMENT
    spec = make_product(make_product(ExactSize(1), Schreier()), Canonical(OMEGA))
    assert step(spec, range(20)) == tuple(range(10))  # (0,), (1, 2), then 3 and exact:6


# --- enumeration rank ----------------------------------------------------------------


def test_enum_rank_is_the_position_in_max_lex_order():
    for spec in (ExactSize(1), ExactSize(2), Schreier()):
        for s, want in oracles.rank_table(spec, 7).items():
            assert enum_rank(spec, s) == want


def test_enum_rank_prefix_finite():
    # every member has finitely many predecessors, all with max <= its max
    s = (2, 3, 4)
    r = enum_rank(Schreier(), s)
    earlier = [t for t in front(Schreier(), range(5)) if rank_key(t) < rank_key(s)]
    assert r == len(earlier)


@pytest.mark.parametrize("name", sorted({**ALL_SPECS, **EMPTY_MEMBER_SPECS}))
def test_rank_of_a_batch_equals_enum_rank(name):
    # the rank table at the batch's largest max ranks every member, and
    # enum_rank each member alone, at its position in the oracle's (max,
    # lex) rank table, whatever the batch's order
    spec = {**ALL_SPECS, **EMPTY_MEMBER_SPECS}[name]
    members = list(front(spec, range(11)))
    position = oracles.rank_table(spec, 10)
    shuffled = random.Random(0).sample(members, len(members))
    for batch in (members, shuffled):
        top, ranks = rank_of(spec, batch)
        assert ranks == [position[s] for s in batch], name
        assert [enum_rank(spec, s) for s in batch] == ranks, name
        assert top == max((s[-1] for s in batch if s), default=-1)


@pytest.mark.parametrize(
    "spec, batch, first",
    [
        (Schreier(), [(1, 2), (2, 3), (3, 4), (0,)], (2, 3)),  # proper prefixes
        (Plus(Schreier()), [(1, 2), (0, 2), (1, 3, 4)], (0, 2)),  # outside the base, then an overrun
    ],
)
def test_rank_of_names_the_first_non_member(spec, batch, first):
    with pytest.raises(ValueError, match=f"^{re.escape(str(first))} is not a member$"):
        rank_of(spec, batch)
    with pytest.raises(ValueError):
        enum_rank(spec, first)


@pytest.mark.parametrize("s", [(3000,), (2, 3000, 3001)])  # a proper prefix, an overrun
def test_enum_rank_refuses_a_non_member_before_ranking(s):
    # a max this large has a front past MAX_MEMBERS, so the refusal must
    # come from the classification, not from the rank table
    with pytest.raises(ValueError, match=f"^{re.escape(str(s))} is not a member$"):
        enum_rank(ExactSize(2), s)


_ATOMS = st.sampled_from(
    [
        ExactSize(1),
        ExactSize(2),
        ExactSize(3),
        Schreier(),
        Canonical(parse_ordinal("0")),
        Canonical(parse_ordinal("2")),
        Canonical(OMEGA),
        Canonical(parse_ordinal("w + 1")),
        Canonical(parse_ordinal("w*2")),
        Canonical(parse_ordinal("w^2")),
    ]
)


@st.composite
def composite_specs(draw):
    spec = draw(_ATOMS)
    for wrapper in draw(st.lists(st.sampled_from("pdrx"), max_size=2)):
        if wrapper == "p":
            spec = Plus(spec)
        elif wrapper == "d":
            try:
                spec = make_derived(spec, draw(st.integers(0, 2)))
            except ValueError:
                pass
        elif wrapper == "r":
            spec = Restrict(spec, GroundSet(tail=Tail(0, draw(st.integers(1, 2)))))
        elif wrapper == "x":
            try:
                spec = make_product(spec, draw(_ATOMS))
            except ValueError:
                pass
    return spec


def _plain(spec):
    """Built from plain factors and products of them."""
    match spec:
        case ExactSize() | Schreier() | Canonical():
            return True
        case Product(left, right):
            return _plain(left) and _plain(right)
    return False


_EVENS = GroundSet(tail=Tail(0, 2))


@given(composite_specs(), st.integers(-3, 14))
@example(Plus(Derived(Schreier(), 2)), 4)
@example(Plus(Restrict(Schreier(), _EVENS)), 3)
@example(Product(Restrict(ExactSize(1), _EVENS), ExactSize(1)), 4)
@example(Product(Schreier(), Plus(Derived(Schreier(), 0))), 2)
@example(Plus(Plus(Derived(Schreier(), 2))), 4)  # two pluses shift by two
@example(Product(Plus(Schreier()), Plus(Schreier())), 0)  # equal factors share one shifted test
def test_in_base(spec, x):
    # the one base predicate agrees with the recursive definition, and the
    # naturals are one constant, shared by exactly the plain specs
    assert in_base(spec, x) == oracles.obase(spec, x)
    assert (barrier._base_test(spec) is barrier._NATURALS) == _plain(spec)


@given(composite_specs(), st.sets(st.integers(0, 8)))
def test_composite_specs_match_direct_membership(spec, xs):
    s = tuple(sorted(xs))
    assert classify(spec, s) is oracles.tag_oracle(spec, s)
    for i in range(len(s)):
        assert classify(spec, s[:i]) is oracles.tag_oracle(spec, s[:i])


# --- the front walk's shortcuts ---------------------------------------------------


@given(composite_specs(), st.sets(st.integers(0, 11)))
def test_composite_fronts_match_subset_filter(spec, xs):
    assert front(spec, xs) == oracles.front_oracle(spec, xs)


def _shortest_below(r, g, start, room):
    """Length of the shortest member of residual r inside g[start:] (None if
    there is none), by the unpruned walk; checks the length bound at every
    node on the way, with ``room`` at least len(g): from lo = g[start] it is
    at most that length, and the children's bounds, each from the coordinate
    after the child's, never decrease along g (cut at room + 1, past which
    the bound stops counting)."""
    if r is barrier.EMPTY:
        return 0
    best, needs = None, []
    for j in range(start, len(g)):
        child = barrier._d(r, g[j])
        lo = g[j + 1] if j + 1 < len(g) else g[j] + 1
        needs.append(min(barrier._need(child, lo, room), room + 1))
        below = _shortest_below(child, g, j + 1, room)
        if below is not None and (best is None or below + 1 < best):
            best = below + 1
    assert needs == sorted(needs), (r, g[start:], needs)
    assert best is None or barrier._need(r, g[start], room) <= best, (r, g[start:], best)
    return best


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_length_bound_is_a_monotone_lower_bound(name):
    # the premise of stopping a walk's child loop at the first child that
    # cannot fit in what is left of the ground, on a dense ground and on
    # sparse ones, where the next coordinate lies far above the last
    for ground in (range(11), (0, 3, 7, 12, 20, 31, 40), (1, 2, 5, 9, 17, 26, 33, 40), (6, 19, 40)):
        r, g = barrier._norm(ALL_SPECS[name]), base_members(ALL_SPECS[name], ground)
        _shortest_below(r, g, 0, len(g))


def test_length_bound_values():
    need, room = barrier._need, 100
    assert need(barrier.EMPTY, 5, room) == 0 and need(ExactSize(4), 5, room) == 4
    # Schreier from lo: lo + 1; plus reads its inner one below
    assert need(Schreier(), 0, room) == 1 and need(Schreier(), 5, room) == 6
    assert need(Plus(Schreier()), 0, room) == 2 and need(Plus(Schreier()), 3, room) == 4
    # canonical:w from 3 reads 3, then the 6-sets above it; w+1 reads 3, then w from 4
    assert need(Canonical(OMEGA), 3, room) == 7 and need(Canonical(parse_ordinal("w + 1")), 3, room) == 12
    assert need(Plus(Plus(Canonical(OMEGA))), 2, room) == 3
    # a right factor starts past the shortest left member: 3 from 2, 6 from 5, 2 from 11
    assert need(Product(Schreier(), Product(Plus(Schreier()), ExactSize(2))), 2, room) == 11
    # past the room the bound stops counting, and it loops along limit chains
    assert 9 < need(Canonical(OMEGA), 5, 9) <= 16
    assert 9 < need(barrier._d(Canonical(parse_ordinal("w^2")), 990), 991, 9)


def test_a_limit_residual_is_one_node(monkeypatch):
    # canonical:w^2 after 10^6 is the chain of canonical:w*10^6 down to
    # canonical:0, built and bounded with no fundamental sequence read (10^6
    # nonempty factors pass any room below it); the residual after the next
    # coordinate unrolls one factor, so it reads one
    calls = []
    real = barrier.fund_seq
    monkeypatch.setattr(barrier, "fund_seq", lambda index, n: calls.append(n) or real(index, n))
    barrier._chain.cache_clear()
    r = barrier._d(Canonical(parse_ordinal("w^2")), 10**6)
    assert barrier._need(r, 10**6 + 1, 5) == 10**6 and calls == []
    assert barrier._d(r, 10**6 + 1) == Product(barrier._d(Canonical(parse_ordinal("w*1000000")), 10**6 + 1),
                                              barrier._d(Canonical(parse_ordinal("w^2")), 10**6 - 1))
    assert calls == [10**6]


def test_exact_size_blocks_fold_in_normal_forms():
    assert barrier._norm(Product(ExactSize(2), ExactSize(3))) == ExactSize(5)
    assert barrier._norm(Product(ExactSize(2), Product(ExactSize(1), Schreier()))) == Product(ExactSize(3), Schreier())
    assert barrier._norm(Plus(ExactSize(2))) == ExactSize(3)
    assert barrier._norm(Plus(ExactSize(0))) == ExactSize(1)
    assert barrier._norm(Product(ExactSize(0), Plus(Plus(ExactSize(0))))) == ExactSize(2)
    for x in range(7):
        assert barrier._d(Canonical(OMEGA), x) == ExactSize(x * (x + 1) // 2)
    assert barrier._d(Canonical(OMEGA), 0) is barrier.EMPTY


def test_an_empty_right_factor_drops_from_normal_forms():
    # a limit chain ends in its canonical:index[0] block, not in a product
    # with {()}, and unrolls into its first factor and the rest
    w2 = Canonical(parse_ordinal("w*2"))
    assert barrier._norm(Derived(w2, 0)) == barrier._norm(Canonical(OMEGA)) == Canonical(OMEGA)
    assert barrier._norm(Product(Schreier(), ExactSize(0))) == Schreier()
    assert barrier._d(w2, 1).unrolled == Product(Canonical(parse_ordinal("w + 1")), Canonical(OMEGA))
    for name, spec in ALL_SPECS.items():
        assert front(spec, range(11)) == oracles.front_oracle(spec, range(11)), name


def test_exact_size_walk_stops_past_the_member_cap(monkeypatch):
    monkeypatch.setattr(barrier, "MAX_MEMBERS", 10)
    barrier.indexed_front.cache_clear()
    with pytest.raises(ValueError, match="more than 10 members"):
        front(ExactSize(2), range(10))  # 45 members
    out, masks = [], []
    bits = tuple(1 << 9 - i for i in range(10))
    with pytest.raises(ValueError, match="more than 10 members"):
        barrier._walk(ExactSize(2), tuple(range(10)), bits, 0, (), 0, out, masks)
    assert out == list(combinations(range(10), 2))[:11]  # built only up to the cap
    assert masks == [bits[a] | bits[b] for a, b in out]  # and the masks with them


def test_walks_skip_branches_that_cannot_fit(monkeypatch):
    # no member of product(canonical:3, canonical:w+1) fits in 0..12: after
    # three coordinates come x < y with y >= 4 and then y(y+1)/2 more, 15 in
    # all.  The unpruned walk visits all 2^13 - 1 nodes, 14,380 _d calls.
    # The walk reads the first child, (0,) (two calls, one per factor), and
    # its bound from the next coordinate, 1, reads canonical:w+1 from 3 and
    # canonical:w from 4 (one call each): 2 + 1 + 1 + 10 coordinates
    # exceed the 12 left, so no other node is visited.
    calls = []
    real = barrier._d

    def counting_d(r, x):
        calls.append(x)
        return real(r, x)

    monkeypatch.setattr(barrier, "_d", counting_d)
    barrier.indexed_front.cache_clear()
    assert front(Product(Canonical(Ordinal.from_int(3)), Canonical(parse_ordinal("w + 1"))), range(13)) == ()
    assert calls == [0, 0, 3, 4]
    # on a sparse ground the bound reads the next coordinate, not x + 1:
    # after 0 comes schreier, which from 10 needs 11 coordinates, not 4
    calls.clear()
    assert front(Product(ExactSize(1), Schreier()), (0, 10, 11, 12)) == ()
    assert calls == [0, 0]
    # a limit canonical residual after x is one chain node, whatever x, of
    # x nonempty factors and a last one, so the bound reads no factor once x
    # passes what is left; after 0 in canonical:w+1 it reads canonical:w at
    # 2000, whose residual is the 2001000-sets
    for index, ground, read in (("w^w", (5, 2000), [5]), ("w^w", (0, 2000), [0, 2000]),
                                ("w + 1", (0, 2000), [0, 2000])):
        calls.clear()
        front(Canonical(parse_ordinal(index)), ground)
        assert calls == read, (index, ground)
