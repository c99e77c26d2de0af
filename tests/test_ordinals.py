from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from barriers.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    add,
    compare,
    fund_seq,
    mul,
    omega_pow,
    parse_ordinal,
    pred,
)

import oracles

W2 = omega_pow(Ordinal.from_int(2))
W3 = omega_pow(Ordinal.from_int(3))
WW = omega_pow(OMEGA)


def nat(n):
    return Ordinal.from_int(n)


# --- deterministic pool: everything below w^w * 3 ---------------------------


def vector_pool():
    vecs = [
        oracles.vnorm(v)
        for v in product(range(3), repeat=4)
    ]
    return vecs


def ordinal_pool():
    pool = [oracles.v_to_ordinal(v) for v in vector_pool()]
    for k in (1, 2):
        bump = mul(WW, nat(k))
        pool.extend(add(bump, o) for o in pool[:70])
    return pool


def test_pool_is_large_and_below_bound():
    pool = ordinal_pool()
    bound = mul(WW, nat(3))
    assert len(pool) >= 200
    assert all(compare(o, bound) < 0 for o in pool)


def test_trichotomy_on_pool():
    pool = ordinal_pool()
    for a in pool:
        for b in pool:
            c, d = compare(a, b), compare(b, a)
            assert c == -d
            assert (c == 0) == (a == b)


# --- frozen examples ---------------------------------------------------------


def test_compare_examples():
    assert compare(OMEGA, OMEGA) == 0
    assert compare(W2, mul(OMEGA, nat(3))) == 1
    assert compare(WW, mul(W3, nat(5))) == 1


def test_arithmetic_examples():
    assert mul(OMEGA, WW) == WW  # 1 + w collapses in the exponent
    assert mul(OMEGA, W2) == W3
    assert add(W2, mul(W2, nat(2))) == mul(W2, nat(3))


def test_fund_seq_examples():
    assert fund_seq(OMEGA, 3) == nat(3)
    assert fund_seq(W2, 2) == mul(OMEGA, nat(2))
    assert fund_seq(WW, 2) == W2


def test_fund_seq_rejects_non_limits():
    with pytest.raises(ValueError):
        fund_seq(ZERO, 1)
    with pytest.raises(ValueError):
        fund_seq(nat(5), 1)
    with pytest.raises(ValueError):
        fund_seq(add(OMEGA, ONE), 1)
    with pytest.raises(ValueError, match="n must be non-negative"):
        fund_seq(OMEGA, -1)


def test_pred():
    assert pred(ONE) == ZERO
    assert pred(add(OMEGA, nat(2))) == add(OMEGA, ONE)
    with pytest.raises(ValueError):
        pred(OMEGA)


# --- cross-check against the vector oracle ----------------------------------


def test_add_mul_cmp_match_vector_oracle():
    vecs = [oracles.vnorm(v) for v in product(range(3), repeat=3)]
    for va in vecs:
        for vb in vecs:
            a, b = oracles.v_to_ordinal(va), oracles.v_to_ordinal(vb)
            assert compare(a, b) == oracles.vcmp(va, vb)
            assert add(a, b) == oracles.v_to_ordinal(oracles.vadd(va, vb))
            assert mul(a, b) == oracles.v_to_ordinal(oracles.vmul(va, vb))


def test_fund_seq_matches_vector_oracle():
    vecs = [oracles.vnorm(v) for v in product(range(3), repeat=4)]
    for v in vecs:
        o = oracles.v_to_ordinal(v)
        if not o.is_limit:
            continue
        for n in range(6):
            assert fund_seq(o, n) == oracles.v_to_ordinal(oracles.vfund(v, n))


# --- algebraic laws -----------------------------------------------------------


def small_pool():
    base = [ZERO, ONE, nat(2), OMEGA, add(OMEGA, ONE), mul(OMEGA, nat(2)), W2, add(W2, OMEGA), WW]
    return base


def test_associativity_and_distributivity():
    pool = small_pool()
    for a in pool:
        for b in pool:
            for c in pool:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_fund_seq_strictly_increasing_below_limit():
    pool = [o for o in ordinal_pool() if o.is_limit][:120] + [WW, mul(WW, nat(2))]
    for l in pool:
        prev = None
        for n in range(11):
            cur = fund_seq(l, n)
            assert compare(cur, l) < 0
            if prev is not None:
                assert compare(prev, cur) < 0
            prev = cur


# --- hypothesis strategies ----------------------------------------------------


def ordinal_strategy(depth: int = 2):
    if depth == 0:
        return st.integers(0, 4).map(nat)
    exp = ordinal_strategy(depth - 1)
    term = st.tuples(exp, st.integers(1, 3))
    return st.lists(term, max_size=3).map(
        lambda terms: _from_loose_terms(terms)
    )


def _from_loose_terms(terms):
    out = ZERO
    for exp, coeff in terms:
        out = add(out, mul(omega_pow(exp), nat(coeff)))
    return out


@given(ordinal_strategy(), ordinal_strategy())
def test_addition_right_monotone(a, b):
    if compare(a, b) < 0:
        assert compare(add(OMEGA, a), add(OMEGA, b)) < 0


@given(ordinal_strategy(), ordinal_strategy())
def test_multiplication_right_strictly_monotone(a, b):
    if compare(a, b) < 0:
        assert compare(mul(OMEGA, a), mul(OMEGA, b)) < 0


@given(ordinal_strategy())
def test_text_roundtrip(a):
    assert parse_ordinal(str(a)) == a


# --- text form ----------------------------------------------------------------


def test_parse_examples():
    assert parse_ordinal("w^w + w^2*3 + 5") == add(WW, add(mul(W2, nat(3)), nat(5)))
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w^(w + 1)") == omega_pow(add(OMEGA, ONE))
    assert str(omega_pow(add(OMEGA, ONE))) == "w^(w + 1)"
    assert str(add(WW, add(mul(W2, nat(3)), nat(5)))) == "w^w + w^2*3 + 5"


def test_parse_rejects_garbage():
    for bad in ("w^", "5 +", "(w", "w**2", "x", "w w", "w)", "w*0", "", "1_0", "w^+7", "w^\u0662", "w +\t1", "\nw"):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(bad)


def test_canonical_form_validation():
    with pytest.raises(ValueError, match="ordinals are non-negative"):
        Ordinal.from_int(-1)
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
