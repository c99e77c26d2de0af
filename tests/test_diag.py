from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import pytest

from barriers.barrier import Product, Canonical, classify, ELEMENT, InternalInvariantError, front, step
from barriers import diag
from barriers.coloring import check_bounded
from barriers.diag import (
    DefeatResult,
    OracleEntry,
    OracleFamily,
    StagedColoring,
    code_seq,
    f_approx,
    pair,
    unpair,
    verify_defeat_rainbow,
    verify_defeat_thin,
)
from barriers.ordinals import OMEGA, ONE, Ordinal, parse_ordinal
from barriers.seqs import GroundSet, Tail

import oracles

EVENS = GroundSet(tail=Tail(0, 2))
FAM = OracleFamily((OracleEntry(0, EVENS, 0), OracleEntry(1, EVENS, 0)))
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
    fam = OracleFamily((OracleEntry(0, EVENS, delay=3),))
    assert fam.g(0, 2, (2, 5)) == 0  # min(stage) <= delay: default
    assert fam.g(0, 2, (4, 5)) == 1
    assert fam.g(0, 3, (4, 5)) == 0
    assert fam.g(5, 2, (4, 5)) == 0  # absent index: default
    assert EMPTY.g(0, 0, (9,)) == 0
    assert fam.g(0, 2, (3, 5)) == 0  # min(stage) == delay: still the default
    # the approximations read an entry once; they agree with a scan of g
    mixed = OracleFamily((fam.get(0), OracleEntry(2, GroundSet(prefix=(1,), tail=Tail(4, 3)))))
    for m in range(1, 12):
        for e in range(4):
            xs = [x for x in range(m) if mixed.g(e, x, (m, m + 1)) == 1]
            for i in range(4):
                need = pair(e, i) + 1
                assert f_approx(mixed, e, i, (m, m + 1)) == (tuple(xs[:need]) if len(xs) >= need else None)


def test_oracle_family_rejects_duplicates():
    with pytest.raises(ValueError):
        OracleFamily((OracleEntry(0, EVENS), OracleEntry(0, EVENS)))


def test_stabilization_along_the_barrier():
    # for every threshold there is a stage inside the set, beyond the
    # threshold, on which the approximation is correct below it
    fam = OracleFamily((OracleEntry(0, EVENS, delay=2),))
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
    single = OracleFamily((OracleEntry(0, EVENS, 0),))
    col = StagedColoring("thin", ONE, single)
    assert col.stage_colors((5,)) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}
    # substage 0 = (0,0) claims 0 with color 0; substage 1 = (0,1) claims 2
    # with color 1; everything else is filled with 1 at the close.
    both = StagedColoring("thin", ONE, FAM)
    assert both.stage_colors((5,)) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 0}
    # with a second entry, substage 2 = (1,0) additionally claims 4 with 0.


def test_thin_defeater_empty_family_is_all_ones():
    col = StagedColoring("thin", ONE, EMPTY)
    assert col.stage_colors((4,)) == {m: 1 for m in range(4)}


def test_thin_defeater_total_at_every_stage():
    col = StagedColoring("thin", OMEGA, FAM)
    for s in front(Canonical(OMEGA), range(13)):
        if not s:
            continue
        colors = col.stage_colors(s)
        assert set(colors) == set(range(s[0]))


def test_rainbow_stage_trace():
    col = StagedColoring("rainbow", ONE, FAM)
    c = pair(0, code_seq((5,)))
    colors = col.stage_colors((5,))
    assert colors[0] == colors[2] == c
    assert colors[1] == pair(1, code_seq((5,)))
    assert colors[3] == pair(3, code_seq((5,)))
    assert colors[4] == pair(4, code_seq((5,)))


def test_rainbow_defeater_empty_family_is_injective_per_stage():
    col = StagedColoring("rainbow", ONE, EMPTY)
    colors = col.stage_colors((6,))
    assert len(set(colors.values())) == 6


@pytest.mark.parametrize("alpha_text", ["1", "2", "w"])
def test_rainbow_defeater_two_bounded_on_the_full_front(alpha_text):
    alpha = parse_ordinal(alpha_text)
    col = StagedColoring("rainbow", alpha, FAM)
    ok, worst = check_bounded(col, range(13))
    assert ok and worst <= 2


def test_rainbow_codes_are_built_once_per_stage(monkeypatch):
    calls = Counter()
    real = diag.code_seq

    def counting_code_seq(s):
        calls[s] += 1
        return real(s)

    monkeypatch.setattr(diag, "code_seq", counting_code_seq)
    col = StagedColoring("rainbow", parse_ordinal("w+1"), FAM)
    assert check_bounded(col, range(14))[0]
    stages = {s[1:] for s in front(col.barrier, range(14))}
    assert calls == Counter(dict.fromkeys(stages, 1))
    for stage in stages:  # stage_colors reads the codes the calls built
        assert col.stage_colors(stage) == {m: col((m, *stage)) for m in range(stage[0])}
    assert calls == Counter(dict.fromkeys(stages, 1))
    calls.clear()
    assert verify_defeat_rainbow(StagedColoring("rainbow", parse_ordinal("w+1"), FAM), 0, 16).ok
    assert not calls  # the defeat search compares owners and builds no code


def test_replays_match_straight_line_reimplementation():
    stages = [s for s in front(Canonical(OMEGA), range(11)) if s] + [(5,), (6,), (9,)]
    for fam in (FAM, EMPTY, OracleFamily((OracleEntry(0, EVENS, delay=4),))):
        for stage in stages:
            assert StagedColoring("thin", OMEGA, fam).stage_colors(stage) == oracles.slow_thin_stage(fam, stage)
            assert StagedColoring("rainbow", OMEGA, fam).stage_colors(stage) == oracles.slow_rainbow_stage(fam, stage)


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
    fam = OracleFamily((
        OracleEntry(0, GroundSet(tail=Tail(1, 3)), 0),
        OracleEntry(1, EVENS, 0),
        OracleEntry(2, GroundSet(tail=Tail(0, 5)), 2),
    ))
    stage = step(Canonical(alpha), iter(stream))
    want = oracles.slow_rainbow_stage(fam, stage)
    assert len(set(want.values())) < len(want)  # some pair is claimed
    assert StagedColoring("rainbow", alpha, fam).stage_colors(stage) == want
    owner = StagedColoring("rainbow", alpha, fam)._replay(stage)
    assert all((owner[m] == owner[l]) == (want[m] == want[l]) for m in want for l in want)


def test_stages_with_one_minimum_share_their_labels():
    alpha = parse_ordinal("w+1")
    a = step(Canonical(alpha), iter(range(3, 40)))  # 12 coordinates
    b = step(Canonical(alpha), iter((3,) + tuple(range(5, 40))))  # 17 coordinates
    assert a[0] == b[0] and a != b
    for kind, slow in (("thin", oracles.slow_thin_stage), ("rainbow", oracles.slow_rainbow_stage)):
        col = StagedColoring(kind, alpha, FAM)
        assert col.stage_colors(a) == slow(FAM, a)
        assert col.stage_colors(b) == slow(FAM, b)
        assert col._replay(a) is col._replay(b) and len(col._cache) == 1
    # each stage's rainbow codes are fresh
    assert not set(col.stage_colors(a).values()) & set(col.stage_colors(b).values())


def test_stage_replay_is_query_order_independent():
    a = StagedColoring("thin", OMEGA, FAM)
    b = StagedColoring("thin", OMEGA, FAM)
    fwd = a.stage_colors((4, 6, 8, 10))
    (member,) = front(b.barrier, range(2, 25, 2))  # (2, 4, ..., 24): its stage starts at 4 too
    assert b(member) == fwd[2]  # poke one member first
    assert b.stage_colors((4, 6, 8, 10)) == fwd


def test_staged_coloring_is_a_coloring_on_the_product_barrier():
    col = StagedColoring("thin", OMEGA, FAM)
    assert isinstance(col.barrier, Product)
    for s in front(col.barrier, range(9)):
        assert col(s) == col.stage_colors(s[1:])[s[0]]
    with pytest.raises(ValueError):
        col((5, 3, 4))  # first coordinate must sit below the stage minimum


def test_staged_coloring_validation():
    with pytest.raises(ValueError):
        StagedColoring("nope", OMEGA, FAM)
    with pytest.raises(ValueError):
        StagedColoring("thin", Ordinal(), FAM)


# --- defeat verification ----------------------------------------------------------


@pytest.mark.parametrize("alpha_text", ["1", "w"])
def test_thin_defeat_witnesses(alpha_text):
    alpha = parse_ordinal(alpha_text)
    col = StagedColoring("thin", alpha, FAM)
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
    col = StagedColoring("rainbow", alpha, FAM)
    res = verify_defeat_rainbow(col, 0, 16)
    assert res.ok
    m, l, stage = res.found
    assert m < l < stage[0]
    assert m in EVENS and l in EVENS and all(x in EVENS for x in stage)
    assert col.stage_colors(stage)[m] == col.stage_colors(stage)[l]


def _double_loop_rainbow(fam: OracleFamily, alpha: Ordinal, e: int, bound: int, colors_of) -> DefeatResult | None:
    """The rainbow defeat search as a double loop over the numbers below
    each stage, with the colors ``colors_of(stage)``.  None when it reaches
    a stage of more than 12 coordinates: the straight-line oracle builds
    every color from a code that doubles with every coordinate, and longer
    stages are compared in test_big_rainbow_stages_match_the_direct_definition."""
    entry = fam.get(e)
    for m0 in entry.members.elements():
        if m0 >= bound:
            break
        if m0 <= entry.delay:
            continue
        stage = step(Canonical(alpha), entry.members.stream_from(m0))
        if stage is None:
            break
        if len(stage) > 12:
            return None
        colors = colors_of(stage)
        below = [x for x in range(m0) if x in entry.members]
        for a, m in enumerate(below):
            for l in below[a + 1 :]:
                if colors[m] == colors[l]:
                    return DefeatResult((m, l, stage), "ok")
        assert len(below) < 2 * e + 2, f"no collision at the covered stage {stage}"
    return DefeatResult(None, "bound-too-small")


def _seeded_family(rng: random.Random) -> OracleFamily:
    entries = []
    for e in rng.sample(range(4), rng.randint(1, 3)):
        start = rng.randint(0, 4)
        prefix = tuple(x for x in range(start) if rng.random() < 0.5)
        tail = Tail(start, rng.randint(1, 2)) if rng.random() < 0.8 else None
        entries.append(OracleEntry(e, GroundSet(prefix=prefix, tail=tail), rng.randint(0, 2)))
    return OracleFamily(tuple(entries))


@pytest.mark.parametrize("alpha_text, bounds", [("1", (3, 13)), ("w", (3, 5)), ("w+1", (3, 5))])
def test_rainbow_defeat_matches_the_double_loop(alpha_text, bounds):
    alpha = parse_ordinal(alpha_text)
    rng = random.Random(alpha_text)
    reasons = Counter()
    # substages 0 and 1 both claim pairs of evens at the first stage past 6
    twice = OracleFamily((OracleEntry(0, EVENS, 6), OracleEntry(1, EVENS, 0)))
    for fam in [twice] + [_seeded_family(rng) for _ in range(40)]:
        col = StagedColoring("rainbow", alpha, fam)
        slow = lru_cache(maxsize=None)(lambda stage: oracles.slow_rainbow_stage(fam, stage))
        for entry in fam.entries:
            for bound in bounds:
                want = _double_loop_rainbow(fam, alpha, entry.e, bound, slow)
                if want is not None:
                    assert verify_defeat_rainbow(col, entry.e, bound) == want, (fam, entry.e, bound)
                    reasons[want.reason] += 1
    assert reasons["ok"] >= 10 and reasons["bound-too-small"] >= 10, reasons


def test_defeat_diagnostics():
    col = StagedColoring("thin", ONE, FAM)
    assert verify_defeat_thin(col, 0, 0, 1).reason == "bound-too-small"
    assert verify_defeat_thin(col, 7, 0, 16).reason == "no-oracle-entry"
    lonely = OracleFamily((OracleEntry(0, GroundSet(prefix=(4,)), 0),))
    rb = StagedColoring("rainbow", ONE, lonely)
    assert verify_defeat_rainbow(rb, 0, 16).reason == "bound-too-small"
    assert verify_defeat_rainbow(StagedColoring("rainbow", ONE, EMPTY), 0, 12).reason == "no-oracle-entry"


@pytest.mark.parametrize(
    "kind, e, i, covered", [("thin", 0, 1, 4), ("thin", 1, 1, 10), ("rainbow", 0, None, 4), ("rainbow", 1, None, 8)]
)
def test_a_replay_without_its_defeat_raises_at_the_first_covered_stage(monkeypatch, kind, e, i, covered):
    # Along the evens, thin (e, i) is covered once pair(e, i) + 1 evens lie
    # below the stage minimum, rainbow e once 2e + 2 do.  A replay that
    # plants nothing (every number its own color or owner) comes up empty
    # below that stage and is a bug at it.
    monkeypatch.setattr(diag, f"_{kind}_stage", lambda fam, stage: {m: m for m in range(stage[0])})

    def search(bound):
        col = StagedColoring(kind, ONE, FAM)
        return verify_defeat_thin(col, e, i, bound) if kind == "thin" else verify_defeat_rainbow(col, e, bound)

    assert search(covered).reason == "bound-too-small"
    bug = f"BUG: no {kind} defeat of X_{e} at the covered stage from {covered}$"
    with pytest.raises(InternalInvariantError, match=bug):
        search(covered + 1)


def test_stages_past_the_coordinate_cap_raise(monkeypatch):
    # under w the stage from 4 along the evens has 11 coordinates
    col = StagedColoring("rainbow", OMEGA, FAM)
    monkeypatch.setattr(diag, "MAX_STAGE_COORDS", 11)
    assert verify_defeat_rainbow(col, 0, 16).found == (0, 2, tuple(range(4, 26, 2)))
    monkeypatch.setattr(diag, "MAX_STAGE_COORDS", 10)
    with pytest.raises(ValueError, match="the stage from 4 has more than 10 coordinates"):
        verify_defeat_rainbow(StagedColoring("rainbow", OMEGA, FAM), 0, 16)
    with pytest.raises(ValueError, match="limited"):
        verify_defeat_thin(StagedColoring("thin", OMEGA, FAM), 0, 1, 16)
    # a finite declared set that runs out before the cap still ends the search
    short = OracleFamily((OracleEntry(0, GroundSet(prefix=(1, 3, 4, 5)), 0),))
    assert verify_defeat_rainbow(StagedColoring("rainbow", OMEGA, short), 0, 16).reason == "bound-too-small"
    monkeypatch.setattr(diag, "MAX_STAGE_COORDS", 2)
    with pytest.raises(ValueError, match="the stage from 3 has more than 2 coordinates"):
        verify_defeat_rainbow(StagedColoring("rainbow", OMEGA, short), 0, 16)


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

    thin = StagedColoring("thin", ONE, FAM)
    res = verify_defeat_thin(thin, 0, 0, 16)
    m, stage = res.found
    ground = EVENS.elements_below(stage[-1] + 1)
    assert (m,) + stage in front(thin.barrier, ground)
    assert not verify_thin(thin, ground, universe=(0,))

    rainbow = StagedColoring("rainbow", ONE, FAM)
    collision = verify_defeat_rainbow(rainbow, 0, 16)
    m, l, stage = collision.found
    ground = EVENS.elements_below(stage[-1] + 1)
    assert not verify_rainbow(rainbow, ground)


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_defeat_thin(StagedColoring("rainbow", ONE, FAM), 0, 0, 8)
    with pytest.raises(ValueError):
        verify_defeat_rainbow(StagedColoring("thin", ONE, FAM), 0, 8)
