from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from barriers.barrier import ExactSize, Product, Canonical, classify, ELEMENT, front, step
from barriers.coloring import check_bounded
from barriers.diag import (
    DefeatResult,
    OracleEntry,
    OracleFamily,
    StagedColoring,
    code_seq,
    f_approx,
    pair,
    rainbow_defeater,
    thin_defeater,
    unpair,
    verify_defeat_rainbow,
    verify_defeat_thin,
)
from barriers.ordinals import OMEGA, ONE, Ordinal, omega_pow, parse_ordinal
from barriers.seqs import GroundSet, Tail

import oracles

EVENS = GroundSet(tail=Tail(0, 2))
FAM = OracleFamily.of([OracleEntry(0, EVENS, 0), OracleEntry(1, EVENS, 0)])
EMPTY = OracleFamily()


# --- pairing -----------------------------------------------------------------


def test_pair_examples():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 2
    assert pair(0, 1) == 1


def test_pair_unpair_roundtrip():
    seen = set()
    for a in range(25):
        for b in range(25):
            z = pair(a, b)
            assert z not in seen
            seen.add(z)
            assert unpair(z) == (a, b)
    assert sorted(pair(a, b) for a in range(10) for b in range(10) if a + b < 10) == list(range(55))


def test_unpair_is_closed_form_on_huge_codes():
    # walking the diagonals up to z would take about 2^(bits/2) steps here
    code = code_seq(tuple(range(11, 23)))
    assert code.bit_length() > 10_000
    assert unpair(pair(3, code)) == (3, code)
    assert unpair(pair(code, 5)) == (code, 5)


def test_code_seq_injective_with_length_tag():
    assert code_seq(()) != code_seq((0,))
    codes = {code_seq(s) for s in [(), (0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]}
    assert len(codes) == 7


# --- the oracle family ---------------------------------------------------------


def test_g_is_total_and_gated_by_the_delay():
    fam = OracleFamily.of([OracleEntry(0, EVENS, delay=3)])
    assert fam.g(0, 2, (2, 5)) == 0  # min(stage) <= delay: default
    assert fam.g(0, 2, (4, 5)) == 1
    assert fam.g(0, 3, (4, 5)) == 0
    assert fam.g(5, 2, (4, 5)) == 0  # absent index: default
    assert EMPTY.g(0, 0, (9,)) == 0


def test_oracle_family_rejects_duplicates():
    with pytest.raises(ValueError):
        OracleFamily.of([OracleEntry(0, EVENS), OracleEntry(0, EVENS)])


def test_stabilization_along_the_barrier():
    # for every threshold there is a stage inside the set, beyond the
    # threshold, on which the approximation is correct below it
    fam = OracleFamily.of([OracleEntry(0, EVENS, delay=2)])
    for alpha in (ONE, OMEGA):
        for k in range(9):
            m0 = next(x for x in EVENS.elements() if x > max(k, 2))
            stage = step(Canonical(alpha), EVENS.stream_from(m0))
            assert stage is not None and stage[0] > k
            assert all(fam.g(0, x, stage) == int(x in EVENS) for x in range(k + 1))


def test_f_approx_examples():
    assert f_approx(FAM, 0, 0, (5,)) == (0,)
    assert f_approx(FAM, 0, 0, (1,)) == (0,)
    assert f_approx(FAM, 0, 1, (1,)) is None  # needs two members below 1
    assert f_approx(EMPTY, 0, 0, (5,)) is None


# --- stage replays --------------------------------------------------------------


def test_thin_stage_trace():
    single = OracleFamily.of([OracleEntry(0, EVENS, 0)])
    col = thin_defeater(ONE, single)
    assert col.stage_colors((5,)) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}
    # substage 0 = (0,0) claims 0 with color 0; substage 1 = (0,1) claims 2
    # with color 1; everything else is filled with 1 at the close.
    both = thin_defeater(ONE, FAM)
    assert both.stage_colors((5,)) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 0}
    # with a second entry, substage 2 = (1,0) additionally claims 4 with 0.


def test_thin_defeater_empty_family_is_all_ones():
    col = thin_defeater(ONE, EMPTY)
    assert col.stage_colors((4,)) == {m: 1 for m in range(4)}


def test_thin_defeater_total_at_every_stage():
    col = thin_defeater(OMEGA, FAM)
    for s in front(Canonical(OMEGA), range(13)):
        if not s:
            continue
        colors = col.stage_colors(s)
        assert set(colors) == set(range(s[0]))


def test_rainbow_stage_trace():
    col = rainbow_defeater(ONE, FAM)
    c = pair(0, code_seq((5,)))
    colors = col.stage_colors((5,))
    assert colors[0] == colors[2] == c
    assert colors[1] == pair(1, code_seq((5,)))
    assert colors[3] == pair(3, code_seq((5,)))
    assert colors[4] == pair(4, code_seq((5,)))


def test_rainbow_defeater_empty_family_is_injective_per_stage():
    col = rainbow_defeater(ONE, EMPTY)
    colors = col.stage_colors((6,))
    assert len(set(colors.values())) == 6


@pytest.mark.parametrize("alpha_text", ["1", "2", "w"])
def test_rainbow_defeater_two_bounded_on_the_full_front(alpha_text):
    alpha = parse_ordinal(alpha_text)
    col = rainbow_defeater(alpha, FAM)
    ok, worst = check_bounded(col, range(13))
    assert ok and worst <= 2


def test_replays_match_straight_line_reimplementation():
    stages = [s for s in front(Canonical(OMEGA), range(11)) if s] + [(5,), (6,), (9,)]
    for fam in (FAM, EMPTY, OracleFamily.of([OracleEntry(0, EVENS, delay=4)])):
        for stage in stages:
            assert thin_defeater(OMEGA, fam).stage_colors(stage) == oracles.slow_thin_stage(fam, stage)
            assert rainbow_defeater(OMEGA, fam).stage_colors(stage) == oracles.slow_rainbow_stage(fam, stage)


@pytest.mark.parametrize(
    "alpha_text, stream",
    [
        ("w", range(4, 40)),  # 11 coordinates
        ("w", range(5, 40)),  # 16 coordinates, a 456 kbit stage code
        ("w+1", range(3, 40)),  # 12 coordinates
        ("w+1", (3, 4, 7, 8, 9, 11, 18, 21, 28, 29, 30, 31, 40)),  # 12 coordinates
        ("1", (40,)),  # one coordinate, colors for m up to 39
    ],
)
def test_big_rainbow_stages_match_the_direct_definition(alpha_text, stream):
    # Long stages carry big-integer codes (no stage under canonical w or w+1
    # has 13 to 15 coordinates); a stage with a large minimum has many
    # colors.  The oracle calls pair(m, code_seq(stage)) for every color.
    alpha = parse_ordinal(alpha_text)
    fam = OracleFamily.of([
        OracleEntry(0, GroundSet(tail=Tail(1, 3)), 0),
        OracleEntry(1, EVENS, 0),
        OracleEntry(2, GroundSet(tail=Tail(0, 5)), 2),
    ])
    stage = step(Canonical(alpha), iter(stream))
    want = oracles.slow_rainbow_stage(fam, stage)
    assert len(set(want.values())) < len(want)  # some pair is claimed
    assert rainbow_defeater(alpha, fam).stage_colors(stage) == want


def test_stage_replay_is_query_order_independent():
    a = thin_defeater(OMEGA, FAM)
    b = thin_defeater(OMEGA, FAM)
    fwd = a.stage_colors((4, 6, 8, 10))
    _ = b((2, 4, 6, 8, 10))  # poke one member first
    assert b.stage_colors((4, 6, 8, 10)) == fwd


def test_staged_coloring_is_a_coloring_on_the_product_barrier():
    col = thin_defeater(OMEGA, FAM)
    assert isinstance(col.barrier, Product)
    for s in front(col.barrier, range(9)):
        assert col(s) == col.stage_colors(s[1:])[s[0]]
    with pytest.raises(ValueError):
        col((5, 3, 4))  # first coordinate must sit below the stage minimum


def test_staged_coloring_validation():
    with pytest.raises(ValueError):
        StagedColoring("nope", OMEGA, FAM)
    with pytest.raises(ValueError):
        thin_defeater(Ordinal(), FAM)


# --- defeat verification ----------------------------------------------------------


@pytest.mark.parametrize("alpha_text", ["1", "w"])
def test_thin_defeat_witnesses(alpha_text):
    alpha = parse_ordinal(alpha_text)
    col = thin_defeater(alpha, FAM)
    for e, i in [(0, 0), (0, 1), (1, 0)]:
        res = verify_defeat_thin(col, e, i, 16)
        assert res.ok, (alpha_text, e, i, res.reason)
        m, stage = res.found
        assert m in EVENS and m < stage[0]
        assert all(x in EVENS for x in stage)
        assert classify(Canonical(alpha), stage) is ELEMENT
        assert col.stage_colors(stage)[m] == i


@pytest.mark.parametrize("alpha_text", ["1", "w"])
def test_rainbow_defeat_collision(alpha_text):
    alpha = parse_ordinal(alpha_text)
    col = rainbow_defeater(alpha, FAM)
    res = verify_defeat_rainbow(col, 0, 16)
    assert res.ok
    m, l, stage = res.found
    assert m < l < stage[0]
    assert m in EVENS and l in EVENS and all(x in EVENS for x in stage)
    assert col.stage_colors(stage)[m] == col.stage_colors(stage)[l]


def test_defeat_diagnostics():
    col = thin_defeater(ONE, FAM)
    assert verify_defeat_thin(col, 0, 0, 1).reason == "bound-too-small"
    assert verify_defeat_thin(col, 7, 0, 16).reason == "no-oracle-entry"
    lonely = OracleFamily.of([OracleEntry(0, GroundSet(prefix=(4,)), 0)])
    rb = rainbow_defeater(ONE, lonely)
    assert verify_defeat_rainbow(rb, 0, 16).reason == "bound-too-small"
    assert verify_defeat_rainbow(rainbow_defeater(ONE, EMPTY), 0, 12).reason == "no-oracle-entry"


def test_defeat_result_json():
    assert DefeatResult(None, "bound-too-small").to_json() == {
        "found": None,
        "reason": "bound-too-small",
    }
    assert DefeatResult((0, 2, (4,)), "ok").to_json() == {
        "found": {"numbers": [0, 2], "stage": [4]},
        "reason": "ok",
    }


def test_defeat_witnesses_refute_solver_properties():
    # the planted witness shows up on the front inside the declared set, so
    # the solver agrees: the evens are not thin for the planted color and
    # not a rainbow
    from barriers.solver import verify_rainbow, verify_thin

    thin = thin_defeater(ONE, FAM)
    res = verify_defeat_thin(thin, 0, 0, 16)
    m, stage = res.found
    ground = EVENS.elements_below(stage[-1] + 1)
    assert (m,) + stage in front(thin.barrier, ground)
    assert not verify_thin(thin, ground, universe=(0,))

    rainbow = rainbow_defeater(ONE, FAM)
    collision = verify_defeat_rainbow(rainbow, 0, 16)
    m, l, stage = collision.found
    ground = EVENS.elements_below(stage[-1] + 1)
    assert not verify_rainbow(rainbow, ground)


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_defeat_thin(rainbow_defeater(ONE, FAM), 0, 0, 8)
    with pytest.raises(ValueError):
        verify_defeat_rainbow(thin_defeater(ONE, FAM), 0, 8)
