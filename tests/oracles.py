"""Independent oracles for the test suite.

Everything here recomputes expected answers by a different route than the
library: set membership by direct definition with brute-force splits instead
of prefix walks, ordinal arithmetic on coefficient vectors, a non-memoized
re-evaluation of the recursive forward coloring, and straight-line stage
replays.  Tests compare library output against these.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from barriers.barrier import (
    BarrierSpec,
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
    step,
)
from barriers.diag import OracleFamily, code_seq, pair, unpair
from barriers.ordinals import Ordinal, fund_seq, pred
from barriers.seqs import Seq, insert_sorted

# --- membership by direct definition ---------------------------------------


def obase(spec: BarrierSpec, x: int) -> bool:
    if x < 0:
        return False
    if isinstance(spec, (ExactSize, Schreier, Canonical)):
        return True
    if isinstance(spec, Plus):
        return x >= 1 and obase(spec.inner, x - 1)
    if isinstance(spec, Derived):
        return x > spec.n and obase(spec.inner, x)
    if isinstance(spec, Restrict):
        return x in spec.base and obase(spec.inner, x)
    if isinstance(spec, Product):
        return obase(spec.left, x) and obase(spec.right, x)
    raise TypeError(spec)


@lru_cache(maxsize=None)
def member(spec: BarrierSpec, s: Seq) -> bool:
    """Set membership computed from the definitions, with brute-force splits
    for products and limit chains."""
    if isinstance(spec, ExactSize):
        return len(s) == spec.size
    if isinstance(spec, Schreier):
        return bool(s) and len(s) == s[0] + 1
    if isinstance(spec, Plus):
        return bool(s) and member(spec.inner, tuple(x - 1 for x in s[:-1]))
    if isinstance(spec, Derived):
        return member(spec.inner, (spec.n,) + s)
    if isinstance(spec, Restrict):
        return all(x in spec.base for x in s) and member(spec.inner, s)
    if isinstance(spec, Product):
        return any(
            member(spec.left, s[:i]) and member(spec.right, s[i:]) for i in range(len(s) + 1)
        )
    if isinstance(spec, Canonical):
        a = spec.index
        if a.is_zero:
            return s == ()
        if not s:
            return False
        if a.is_successor:
            return member(Canonical(pred(a)), s[1:])
        blocks = [Canonical(fund_seq(a, j)) for j in range(s[0], -1, -1)]
        return _chain_member(tuple(blocks), s[1:])
    raise TypeError(spec)


@lru_cache(maxsize=None)
def _chain_member(blocks: tuple[BarrierSpec, ...], rest: Seq) -> bool:
    if not blocks:
        return rest == ()
    return any(
        member(blocks[0], rest[:i]) and _chain_member(blocks[1:], rest[i:])
        for i in range(len(rest) + 1)
    )


def tag_oracle(spec: BarrierSpec, s: Seq):
    if any(not obase(spec, x) for x in s):
        return NOT_IN_BASE
    if member(spec, s):
        return ELEMENT
    if any(member(spec, s[:i]) for i in range(len(s))):
        return OVERRUN
    return PROPER_PREFIX


def front_oracle(spec: BarrierSpec, ground) -> tuple[Seq, ...]:
    g = tuple(sorted(x for x in set(ground) if obase(spec, x)))
    subsets = chain.from_iterable(combinations(g, size) for size in range(len(g) + 1))
    return tuple(sorted(s for s in subsets if member(spec, s)))


def slow_sperner(members) -> bool:
    """Sperner by its definition: no member is a proper subset of another."""
    sets = [frozenset(s) for s in members]
    return not any(a < b for a in sets for b in sets)


# --- ordinal vectors (exponents below a fixed K) ----------------------------

K = 8  # vectors live below w^K


def vnorm(v) -> tuple[int, ...]:
    v = tuple(v) + (0,) * (K - len(v))
    assert len(v) == K
    return v


def vcmp(a, b) -> int:
    for i in range(K - 1, -1, -1):
        if a[i] != b[i]:
            return -1 if a[i] < b[i] else 1
    return 0


def vadd(a, b) -> tuple[int, ...]:
    j = max((i for i in range(K) if b[i]), default=None)
    if j is None:
        return a
    out = list(b)
    out[j] = a[j] + b[j]
    for i in range(j + 1, K):
        out[i] = a[i]
    return tuple(out)


def vmul(a, b) -> tuple[int, ...]:
    if not any(a) or not any(b):
        return vnorm(())
    da = max(i for i in range(K) if a[i])
    total = vnorm(())
    for j in range(K - 1, -1, -1):
        if not b[j]:
            continue
        if j == 0:
            part = list(a)
            part[da] = a[da] * b[0]
            part = tuple(part)
        else:
            assert da + j < K, "oracle overflow"
            part = tuple(b[j] if i == da + j else 0 for i in range(K))
        total = vadd(total, part)
    return total


def vfund(l, n) -> tuple[int, ...]:
    j = min(i for i in range(K) if l[i])
    assert j >= 1, "not a limit"
    out = list(l)
    out[j] -= 1
    out[j - 1] = n
    return tuple(out)


def v_to_ordinal(v) -> Ordinal:
    terms = tuple(
        (Ordinal.from_int(i), v[i]) for i in range(K - 1, -1, -1) if v[i]
    )
    return Ordinal(terms)


# --- non-memoized forward re-evaluation -------------------------------------


def slow_fs(plus_spec: BarrierSpec, f, s: Seq) -> int:
    """Straight recursive evaluation of the free-to-mono coloring."""
    return slow_fs_chain(plus_spec, f, s)[0]


def slow_fs_chain(plus_spec: BarrierSpec, f, s: Seq, depth: int = 0) -> tuple[int, int]:
    """The free-to-mono value at s and the number of hops the straight
    recursion takes below s."""
    assert depth < 500, "runaway recursion"
    t = tuple(x - 1 for x in s[:-1])
    v = f(t)
    n = len(s) - 1
    for i in range(n):
        if v == s[i] - 1:
            return 0, 0
    hop = None
    if v < s[0] - 1:
        hop = v + 1
    else:
        for i in range(n - 1):
            if s[i] - 1 < v < s[i + 1] - 1:
                hop = v + 1
                break
    if hop is not None:
        nxt = step(plus_spec, insert_sorted(s, hop))
        value, below = slow_fs_chain(plus_spec, f, nxt, depth + 1)
        return 1 - value, below + 1
    if n >= 1 and s[n - 1] - 1 < v < s[n] - 1:
        return 0, 0
    return 1, 0


# --- straight-line stage replays ---------------------------------------------


def slow_thin_stage(fam: OracleFamily, stage: Seq) -> dict[int, int]:
    s1 = stage[0]
    assigned: list[tuple[int, int]] = []

    def taken(m: int) -> bool:
        return any(mm == m for mm, _ in assigned)

    for u in range(s1):
        e, i = unpair(u)
        need = pair(e, i) + 1
        hits = []
        for x in range(s1):
            if fam.g(e, x, stage) == 1:
                hits.append(x)
        if len(hits) < need:
            continue
        approx = hits[:need]
        chosen = None
        for m in approx:
            if not taken(m):
                chosen = m
                break
        if chosen is not None:
            assigned.append((chosen, i))
    out = dict(assigned)
    for m in range(s1):
        if m not in out:
            out[m] = 1
    return out


def slow_rainbow_stage(fam: OracleFamily, stage: Seq) -> dict[int, int]:
    s1 = stage[0]
    claimed: list[int] = []
    out: dict[int, int] = {}
    for e in range(s1):
        pairs_found = []
        for m in range(s1):
            for l in range(m + 1, s1):
                if (
                    m not in claimed
                    and l not in claimed
                    and fam.g(e, m, stage) == 1
                    and fam.g(e, l, stage) == 1
                ):
                    pairs_found.append((m, l))
        if pairs_found:
            m, l = min(pairs_found)
            claimed.extend([m, l])
            out[m] = out[l] = pair(m, code_seq(stage))
    for l in range(s1):
        if l not in out:
            out[l] = pair(l, code_seq(stage))
    return out
