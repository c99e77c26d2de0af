"""Reference answers for the test suite.

The paper's objects are defined once, in ``benchmarks/oracle.py``, which
imports nothing from the library: base, membership with brute-force splits,
fronts by filtering every subset, (max, lex) rank tables, and the thin and
rainbow stage replays.  A change of definition is made there.  This module
loads that file by path and hands it specs and families as its own tuples
and dicts, read off the data-class fields (:func:`ospec`, :func:`ofamily`),
so no library code sits between a spec and its reference.  What that oracle
does not define stays here: ordinal arithmetic on coefficient vectors, a
non-memoized re-evaluation of the recursive forward coloring, and Sperner.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from barriers.barrier import ELEMENT, NOT_IN_BASE, OVERRUN, PROPER_PREFIX, BarrierSpec, Canonical, Derived
from barriers.barrier import ExactSize, Plus, Product, Restrict, Schreier
from barriers.diag import OracleFamily
from barriers.ordinals import Ordinal
from barriers.seqs import Seq, Tail

_ORACLE = Path(__file__).resolve().parents[1] / "benchmarks" / "oracle.py"
_spec = importlib.util.spec_from_file_location("benchmark_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# --- specs and families as the oracle's tuples and dicts ---------------------


def oterms(a: Ordinal) -> tuple:
    """An ordinal as nested (exponent, coefficient) tuples."""
    return tuple((oterms(exp), c) for exp, c in a.terms)


def _otail(tail: Tail | None) -> tuple | None:
    return None if tail is None else (tail.start, tail.step)


def ospec(spec: BarrierSpec) -> tuple:
    match spec:
        case ExactSize(size):
            return ("exact", size)
        case Schreier():
            return ("schreier",)
        case Canonical(index):
            return ("canonical", oterms(index))
        case Product(left, right):
            return ("product", ospec(left), ospec(right))
        case Plus(inner):
            return ("plus", ospec(inner))
        case Derived(inner, n):
            return ("derived", ospec(inner), n)
        case Restrict(inner, base):
            return ("restrict", ospec(inner), base.prefix, _otail(base.tail))
    raise TypeError(spec)


def ofamily(fam: OracleFamily) -> dict:
    return {e.e: {"prefix": e.members.prefix, "tail": _otail(e.members.tail), "delay": e.delay} for e in fam.entries}


# --- membership, fronts, ranks and stage replays -----------------------------


def obase(spec: BarrierSpec, x: int) -> bool:
    return oracle.in_base(ospec(spec), x)


def tag_oracle(spec: BarrierSpec, s: Seq):
    o = ospec(spec)
    if not all(oracle.in_base(o, x) for x in s):
        return NOT_IN_BASE
    if oracle.member(o, s):
        return ELEMENT
    if any(oracle.member(o, s[:i]) for i in range(len(s))):
        return OVERRUN
    return PROPER_PREFIX


def front_oracle(spec: BarrierSpec, ground) -> tuple[Seq, ...]:
    return oracle.front(ospec(spec), tuple(ground))


def rank_table(spec: BarrierSpec, top: int) -> dict[Seq, int]:
    return oracle.rank_table(ospec(spec), top)


def slow_thin_stage(fam: OracleFamily, stage: Seq) -> dict[int, int]:
    return dict(enumerate(oracle.thin_colors(ofamily(fam), stage[0])))


def slow_rainbow_stage(fam: OracleFamily, stage: Seq) -> dict[int, int]:
    """A color is an anchor paired with the stage's code: the canonical
    index of its set."""
    code = sum(1 << x for x in stage)
    return {m: oracle.pair(a, code) for m, a in enumerate(oracle.rainbow_anchors(ofamily(fam), stage[0]))}


# --- kept here: Sperner, ordinal vectors (exponents below a fixed K) --------


def slow_sperner(members) -> bool:
    """Sperner by its definition: no member is a proper subset of another."""
    sets = [frozenset(s) for s in members]
    return not any(a < b for a in sets for b in sets)


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
    recursion takes below s.  A hop goes to the shortest prefix of s with
    v + 1 inserted that the oracle calls a member; a v outside the base of
    f's barrier takes 0 instead."""
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
        if not oracle.in_base(ospec(f.barrier), v):
            return 0, 0
        stream = tuple(sorted(s + (hop,)))
        nxt = next(stream[:i] for i in range(len(stream) + 1) if oracle.member(ospec(plus_spec), stream[:i]))
        value, below = slow_fs_chain(plus_spec, f, nxt, depth + 1)
        return 1 - value, below + 1
    if n >= 1 and s[n - 1] - 1 < v < s[n] - 1:
        return 0, 0
    return 1, 0
