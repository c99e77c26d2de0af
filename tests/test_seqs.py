from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from barriers.seqs import GroundSet, Tail, as_seq, insert_sorted, seq_minus


def test_as_seq_validates():
    assert as_seq([1, 4, 9]) == (1, 4, 9)
    assert as_seq(()) == ()
    with pytest.raises(ValueError):
        as_seq([2, 2])
    with pytest.raises(ValueError):
        as_seq([3, 1])
    with pytest.raises(ValueError):
        as_seq([-1])


def test_seq_minus():
    assert seq_minus((2, 5)) == (1,)
    assert seq_minus((1,)) == ()
    with pytest.raises(ValueError):
        seq_minus(())
    with pytest.raises(ValueError):
        seq_minus((0, 3))


def test_insert_sorted():
    assert insert_sorted((2, 4, 5), 3) == (2, 3, 4, 5)
    with pytest.raises(ValueError):
        insert_sorted((2, 4), 4)


seqs = st.lists(st.integers(0, 40), unique=True).map(lambda xs: tuple(sorted(xs)))


@given(seqs)
def test_plus_minus_roundtrip(s):
    shifted = tuple(x + 1 for x in s)
    if shifted:
        assert seq_minus(shifted + (shifted[-1] + 1,)) == s


def test_ground_set_membership_and_stream():
    evens = GroundSet(tail=Tail(0, 2))
    assert 0 in evens and 8 in evens and 7 not in evens
    assert evens.elements_below(9) == (0, 2, 4, 6, 8)
    stream = evens.stream_from(4)
    assert [next(stream) for _ in range(3)] == [4, 6, 8]

    mixed = GroundSet(prefix=(1, 3), tail=Tail(10, 5))
    assert 3 in mixed and 10 in mixed and 15 in mixed and 11 not in mixed
    assert mixed.elements_below(16) == (1, 3, 10, 15)
    stream = mixed.stream_from(2)
    assert [next(stream) for _ in range(4)] == [3, 10, 15, 20]
    assert list(GroundSet.of([1, 4, 6]).stream_from(2)) == [4, 6] and GroundSet.of([1]).elements_below(0) == ()


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(prefix=(5,), tail=Tail(4, 1))
    with pytest.raises(ValueError):
        Tail(0, 0)
    assert GroundSet.of([5, 1, 5]).prefix == (1, 5)
