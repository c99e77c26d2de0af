"""Barrier constructors, classification and front enumeration.

A barrier on an infinite base X of naturals is a family of finite strictly
increasing sequences whose members cover X (Base), none of which strictly
contains another as a set (Sperner), and such that every infinite subset of X
has a member as an initial segment (Density).  Barriers here are intensional:
a :data:`BarrierSpec` is a constructor tree and every question is answered by
the classification rule :func:`classify`, never by materializing the family.

Classification of a sequence ``s`` over the base yields exactly one of:

* ``ELEMENT``        s is a member,
* ``PROPER_PREFIX``  s is a strict initial segment of some member,
* ``OVERRUN``        a strict initial segment of s is a member,
* ``NOT_IN_BASE``    some coordinate of s lies outside the base.

Sequences are read one coordinate at a time through residuals (Brzozowski
derivatives): the residual of a family after x is the family of all t with
(x,) + t a member, and for every constructor it is again a constructor.  In
normal form the one-member family {()} is always the object ``EMPTY``, so a
prefix is a member iff its residual is ``EMPTY``.  :func:`step` is the one
fold of residuals along a finite sequence (an exact-size residual is counted
down, with no residual built) and returns the shortest member prefix;
:func:`classify` reads its answer off that prefix (none, all of ``s`` or a
shorter one).  Base membership is checked separately, against the original
spec, and wins over an overrun.

Normal forms fold exact-size blocks: a-sets followed by b-sets are the
(a+b)-sets, and Plus of the k-sets is the (k+1)-sets, so every canonical
branch ends in one ``ExactSize`` block (``Canonical(w)`` after x is
``ExactSize(x(x+1)/2)``).

:func:`front` walks the residual tree of a finite ground set.  An
``ExactSize(k)`` residual is emitted whole, as the k-subsets of the rest of
the ground; at any other node the child loop stops at the first child whose
residual needs more coordinates than are left (:func:`_need`, a lower bound
on the length of the members whose coordinates start at the next one of the
ground; it never decreases as the child grows, since only Schreier and limit
canonical residuals read the coordinate and both grow with it).  One walk
emits a front's members and their masks, once per (normal form, base) pair,
and the last :data:`FRONT_CACHE` are kept (:func:`indexed_front`), since a
uniform check sends many instances through one barrier and ground.  Both
barrier axioms are read off the masks (:func:`capped_front`): Sperner is the
two-point closure (:func:`up_closure2`) of their point set, and the density
probe is a fold over them, since a subset's stream stops at its shortest
member prefix, so each member stands for the subsets it starts.  Ranks in the
(max, lex) enumeration are read off one cached rank table per barrier and top
(:func:`ranked_up_to`), in batches by :func:`rank_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import combinations, islice
from operator import and_, le, neg
from typing import Callable, Iterable, Sequence, Union

from .ordinals import OMEGA, Ordinal, fund_seq, mul, omega_pow, pred
from .seqs import GroundSet, Seq, _clip, as_seq, insert_sorted

__all__ = [
    "Classification",
    "ELEMENT",
    "PROPER_PREFIX",
    "OVERRUN",
    "NOT_IN_BASE",
    "ExactSize",
    "Schreier",
    "Canonical",
    "Product",
    "Plus",
    "Derived",
    "Restrict",
    "BarrierSpec",
    "NotInBaseError",
    "InternalInvariantError",
    "VariantRangeError",
    "OrderTypeUnsupportedError",
    "in_base",
    "base_members",
    "MAX_GROUND",
    "has_sets",
    "point_set",
    "up_closure",
    "up_closure2",
    "MAX_MEMBERS",
    "FRONT_CACHE",
    "indexed_front",
    "capped_front",
    "classify",
    "step",
    "front",
    "sperner_of_masks",
    "check_sperner",
    "DensityReport",
    "density_of_masks",
    "density_probe",
    "variant",
    "append_variant",
    "order_type",
    "make_product",
    "make_derived",
    "make_restrict",
    "rank_key",
    "ranked_up_to",
    "rank_of",
    "enum_rank",
    "spec_label",
]


class Classification(Enum):
    ELEMENT = "element"
    PROPER_PREFIX = "proper-prefix"
    OVERRUN = "overrun"
    NOT_IN_BASE = "not-in-base"


ELEMENT = Classification.ELEMENT
PROPER_PREFIX = Classification.PROPER_PREFIX
OVERRUN = Classification.OVERRUN
NOT_IN_BASE = Classification.NOT_IN_BASE


class NotInBaseError(ValueError):
    """A stream or argument left the base of the barrier."""


class InternalInvariantError(AssertionError):
    """BUG: a structural barrier invariant failed; never expected at runtime."""


class VariantRangeError(ValueError):
    """k-variant requested of the empty member, or with k beyond max(s)
    (see append_variant)."""


class OrderTypeUnsupportedError(ValueError):
    """Order type is not tracked for this constructor."""


@dataclass(frozen=True)
class ExactSize:
    """All increasing sequences of a fixed length; size 0 is the one-member
    family {()}, used as the product unit."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass(frozen=True)
class Schreier:
    """Sequences with length = min + 1."""


@dataclass(frozen=True)
class Canonical:
    """Canonical barrier of order type w^index, built by induction on the
    index: 0 gives {()}, successors prepend one coordinate, a limit branches
    on the first coordinate n into the product chain of the canonical
    barriers at index[n], ..., index[0]."""

    index: Ordinal


@dataclass(frozen=True)
class Product:
    """Members s + t with s from left, t from right, max(s) < min(t)."""

    left: "BarrierSpec"
    right: "BarrierSpec"


@dataclass(frozen=True)
class Plus:
    """Members are shifted inner members with one extra coordinate appended:
    { s^+ + (m) : s inner member, m > max(s^+) }, on the shifted base."""

    inner: "BarrierSpec"


@dataclass(frozen=True)
class Derived:
    """Members s with (n) + s a member of the inner barrier, on the base
    above n."""

    inner: "BarrierSpec"
    n: int


@dataclass(frozen=True)
class Restrict:
    """Members of the inner barrier contained in the given set, which must
    be infinite (carry a tail) so that Density survives."""

    inner: "BarrierSpec"
    base: GroundSet


BarrierSpec = Union[ExactSize, Schreier, Canonical, Product, Plus, Derived, Restrict]


# --- base -------------------------------------------------------------


def in_base(spec: BarrierSpec, x: int) -> bool:
    return _base_test(spec)(x)


_NATURALS = partial(le, 0)  # the base of every plain factor and of their products


@lru_cache(maxsize=256)
def _base_test(spec: BarrierSpec) -> Callable[[int], bool]:
    """The base of the spec as one callable, built once per spec along its
    constructors: plain factors and their products live on the naturals
    (:data:`_NATURALS`), j pluses over the naturals are the C-level
    ``j <= x``, and every other wrapper puts its own check in front of the
    test of what it wraps."""
    match spec:
        case ExactSize() | Schreier() | Canonical():
            return _NATURALS
        case Plus():
            j, inner = 0, spec
            while type(inner) is Plus:
                j, inner = j + 1, inner.inner
            t = _base_test(inner)
            return partial(le, j) if t is _NATURALS else lambda x: x >= j and t(x - j)
        case Derived(inner, n):
            t = _base_test(inner)
            return lambda x: x > n and t(x)
        case Restrict(inner, base):
            t = _base_test(inner)
            return lambda x: x in base and t(x)
        case Product(left, right):
            lt, rt = _base_test(left), _base_test(right)
            return lt if lt is rt else lambda x: lt(x) and rt(x)
    raise TypeError(f"not a barrier spec: {spec!r}")


def base_members(spec: BarrierSpec, ground: Iterable[int]) -> tuple[int, ...]:
    """Ground elements that belong to the base, sorted."""
    return tuple(sorted(filter(_base_test(spec), set(ground))))


MAX_GROUND = 20  # base elements of a ground set whose subsets are all scanned


@lru_cache(maxsize=None)  # one entry per n <= MAX_GROUND
def has_sets(n: int) -> tuple[int, ...]:
    """Entry i is the 2^n-bit set of the masks over range(n) that contain
    bit i: runs of 2^i zeros and 2^i ones, doubled up to 2^n bits."""
    out = []
    for i in range(n):
        run = 1 << i
        bits = ((1 << run) - 1) << run
        width = 2 * run
        while width < 1 << n:
            bits |= bits << width
            width *= 2
        out.append(bits)
    return tuple(out)


def point_set(masks: Iterable[int], n: int) -> int:
    """The 2^n-bit set of the masks over range(n), repeats allowed, built in
    a bytearray: ORing ``1 << m`` into a big int costs O(2^n) per mask."""
    bits = bytearray((1 << n >> 3) + 1)
    for m in masks:
        bits[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(bits, "little")


def up_closure(points: int, n: int) -> int:
    """The 2^n-bit set of the masks over range(n) that contain at least one
    mask of the 2^n-bit set ``points``: adding bit i moves a mask 2^i
    positions up, onto a mask in ``has_sets(n)[i]``.  n shift-ORs."""
    for i, has in enumerate(has_sets(n)):
        points |= (points << (1 << i)) & has
    return points


def up_closure2(points: int, n: int) -> int:
    """The 2^n-bit set of the masks over range(n) that contain at least two
    distinct masks of ``points``.  A zeta pass that counts the points below
    each mask, saturated at 2 and kept in two planes (at least one, at
    least two), so no set of pairs is built.  2n shift-ORs."""
    once, twice = points, 0
    for i, has in enumerate(has_sets(n)):
        run = 1 << i
        below = (once << run) & has
        twice |= ((twice << run) & has) | (once & below)  # reads once before it grows
        once |= below
    return twice


# --- classification ---------------------------------------------------


EMPTY = ExactSize(0)


def _prod(left: BarrierSpec, right: BarrierSpec) -> BarrierSpec:
    """Product(left, right) of two normal forms, in normal form: an EMPTY
    factor drops, and an exact-size left factor absorbs an exact-size right
    factor or head (a-sets followed by b-sets above them are the
    (a+b)-sets)."""
    if left is EMPTY:
        return right
    if right is EMPTY:
        return left
    if type(left) is ExactSize:
        if type(right) is ExactSize:
            return ExactSize(left.size + right.size)
        if type(right) is Product and type(right.left) is ExactSize:
            return Product(ExactSize(left.size + right.left.size), right.right)
    return Product(left, right)


def _plus(inner: BarrierSpec) -> BarrierSpec:
    """Plus(inner) of a normal form, in normal form: shifted k-sets with one
    coordinate appended are the (k+1)-sets (bases are checked apart)."""
    return ExactSize(inner.size + 1) if type(inner) is ExactSize else Plus(inner)


@dataclass(frozen=True)
class _Chain:
    """canonical:index[n] ... canonical:index[0] for n >= 1 and a limit index
    other than w, the residual of canonical:index after n: one node built in
    O(1), unrolled one factor at a time (the first is infinite: no fold)."""

    index: Ordinal
    n: int

    @cached_property
    def unrolled(self) -> BarrierSpec:
        return _prod(_norm(Canonical(fund_seq(self.index, self.n))), _chain(self.index, self.n - 1))


@lru_cache(maxsize=1 << 12)
def _chain(index: Ordinal, n: int) -> BarrierSpec:
    """The residual of canonical:index after n, for a limit index: the
    (n(n+1)/2)-sets for w, canonical:index[0] for n = 0, else a chain."""
    if index == OMEGA:
        return _norm(ExactSize(n * (n + 1) // 2))
    return _Chain(index, n) if n else _norm(Canonical(fund_seq(index, 0)))


def _norm(spec: BarrierSpec) -> BarrierSpec:
    """Normal form of a spec: the one-member family {()} is always the object
    EMPTY, a finite canonical index k is ExactSize(k), exact-size blocks are
    folded (:func:`_prod`, :func:`_plus`), and Restrict and Derived are
    unfolded (their bases stay with the original spec, see in_base)."""
    match spec:
        case ExactSize():
            return EMPTY if spec.size == 0 else spec
        case Schreier():
            return spec
        case Canonical():
            return _norm(ExactSize(spec.index.as_int())) if spec.index.is_finite else spec
        case Product():
            return _prod(_norm(spec.left), _norm(spec.right))
        case Plus():
            return _plus(_norm(spec.inner))
        case Derived():
            return _d(_norm(spec.inner), spec.n)
        case Restrict():
            return _norm(spec.inner)
    raise TypeError(f"not a barrier spec: {spec!r}")


def _d(r: BarrierSpec, x: int) -> BarrierSpec:
    """Residual { t : (x,) + t in r } of a normal form r other than EMPTY,
    again in normal form."""
    # Class patterns without captures: a capture through __match_args__
    # triples the cost of the dispatch, and this runs once per prefix node.
    match r:
        case ExactSize():
            return EMPTY if r.size == 1 else ExactSize(r.size - 1)
        case Product():
            return _prod(_d(r.left, x), r.right)
        case Canonical():
            if r.index.is_successor:
                # an infinite successor has an infinite predecessor
                return Canonical(pred(r.index))
            return _chain(r.index, x)
        case _Chain():
            return _d(r.unrolled, x)
        case Schreier():
            return EMPTY if x == 0 else ExactSize(x)
        case Plus():
            return _plus(_d(r.inner, x - 1))
    raise TypeError(f"not a barrier spec: {r!r}")


MAX_MEMBERS = 1 << 20  # members of one front walk
FRONT_CACHE = 64  # (normal form, base) pairs whose fronts stay indexed


def _need(r: BarrierSpec, lo: int, room: int) -> int:
    """A lower bound on the length of every member of the normal form r whose
    coordinates are all at least ``lo``, cut short once it passes ``room``
    (the value returned then is still a lower bound, above ``room``).  k
    for ExactSize(k), lo + 1 for Schreier, 1 plus the residual's bound
    after lo, from lo + 1, for an infinite canonical index, 1 plus the
    inner's bound from lo - 1 under plus, n for a chain of n + 1 factors
    once that passes ``room`` and else the bound of its product, and for a
    product the left bound a plus the right bound from lo + a (a left
    member of length a ends at lo + a - 1 or above).  Loops along right
    factors, plus, chains and canonical residuals, so it recurses only
    into left factors, as deep as the spec's nesting."""
    total = 0
    while total <= room:
        t = type(r)
        if t is ExactSize:
            return total + r.size
        if t is Product:
            left = _need(r.left, lo, room - total)
            total += left
            lo += left
            r = r.right
        elif t is Schreier:
            return total + (lo + 1 if lo > 0 else 1)
        elif t is Plus:
            total += 1
            lo -= 1
            r = r.inner
        elif t is _Chain:
            if total + r.n > room:  # n nonempty factors, then the last
                return total + r.n
            r = r.unrolled
        else:  # an infinite canonical index reads lo, then lo + 1 on
            total += 1
            r = _d(r, lo)
            lo += 1
    return total


def _walk(r: BarrierSpec, g: Seq, bits: tuple[int, ...], start: int, prefix: Seq, mask: int,
          out: list[Seq], masks: list[int]) -> None:
    """Depth-first walk of the extensions of ``prefix`` by g[start:], r being
    the residual after ``prefix`` and ``mask`` its mask (bits[i] for g[i]).
    Appends the members met, in lex order, to ``out`` and their masks to
    ``masks``, and raises ValueError past MAX_MEMBERS of them.  By Sperner
    every extension of a member overruns, so none is walked.

    An ExactSize(k) residual (EMPTY included) is emitted whole: its members
    are ``prefix + t`` for the k-subsets t of g[start:], in lex order, with
    masks ``mask`` plus the sums of the same k-subsets of bits[start:], cut
    off past MAX_MEMBERS, and none for a k past len(g) - start, which never
    reaches combinations (it cannot take a k past sys.maxsize).  Any other
    residual takes the children g[j] in turn and stops at the first whose
    residual needs more coordinates (:func:`_need`, from the next coordinate
    g[j+1] on) than the n-1-j left above g[j].  Stopping there skips no
    member: the bound never decreases as x grows, since the residual after
    x needs no fewer coordinates (only Schreier, after x: x more, and a
    limit canonical index, after x: one more chain factor, read x) and a
    larger lo never lowers a bound."""
    if type(r) is ExactSize:
        if r.size > len(g) - start:
            return
        room = MAX_MEMBERS + 1 - len(out)
        out.extend(islice(map(prefix.__add__, combinations(g[start:], r.size)), room))
        masks.extend(islice(map(mask.__add__, map(sum, combinations(bits[start:], r.size))), room))
        if len(out) > MAX_MEMBERS:
            raise ValueError(f"the front has more than {MAX_MEMBERS} members; front walks are limited to that many")
        return
    last = len(g) - 1
    for j in range(start, len(g)):
        child = _d(r, g[j])
        if _need(child, g[j + 1] if j < last else g[j] + 1, last - j) > last - j:
            return
        _walk(child, g, bits, j + 1, prefix + (g[j],), mask + bits[j], out, masks)


@lru_cache(maxsize=FRONT_CACHE)
def indexed_front(r: BarrierSpec, g: Seq) -> tuple[tuple[Seq, ...], tuple[int, ...]]:
    """The members of the front of the normal form r inside the sorted base
    g in lex order and their masks (``g[i]`` at bit ``n-1-i``; all 0 past
    :data:`MAX_GROUND` elements, where none is read), walked once per process
    while the pair stays among the last :data:`FRONT_CACHE` used."""
    members: list[Seq] = []
    masks: list[int] = []
    n = len(g)
    _walk(r, g, tuple(1 << n - 1 - i for i in range(n)) if n <= MAX_GROUND else (0,) * n, 0, (), 0, members, masks)
    return tuple(members), tuple(masks)


def capped_front(spec: BarrierSpec, ground: Iterable[int]) -> tuple[Seq, tuple[Seq, ...], tuple[int, ...]]:
    """``(g, members, masks)``: the base g inside the ground set and the kept
    front of the spec inside it, for the checks that scan every subset of g
    (density, find, check_reduction), at a cost of up to 2^n; so a base of
    more than :data:`MAX_GROUND` elements raises ValueError."""
    g = base_members(spec, ground)
    if len(g) > MAX_GROUND:
        raise ValueError(f"the ground has {len(g)} base elements; scans over all its subsets are limited to "
                         f"{MAX_GROUND} (they cost 2^n)")
    return (g, *indexed_front(_norm(spec), g))


def classify(spec: BarrierSpec, s: Iterable[int]) -> Classification:
    """Classify a strictly increasing sequence against the barrier, off its
    shortest member prefix (:func:`step`)."""
    seq = as_seq(s)
    if not all(map(_base_test(spec), seq)):
        return NOT_IN_BASE
    member = step(spec, seq)
    if member is None:
        return PROPER_PREFIX
    return ELEMENT if len(member) == len(seq) else OVERRUN


def _member(spec: BarrierSpec, s: Iterable[int]) -> Seq:
    """s as a sequence, checked to be a member of the barrier: ValueError
    otherwise."""
    seq = as_seq(s)
    if classify(spec, seq) is not ELEMENT:
        raise ValueError(f"{_clip(seq)} is not a member")
    return seq


def step(spec: BarrierSpec, stream: Iterable[int]) -> Seq | None:
    """Shortest prefix of the stream that is a member.

    Returns None (inconclusive) when a finite stream runs out while still a
    proper prefix.  Raises NotInBaseError when the stream leaves the base.
    Along any infinite increasing stream inside the base, Density guarantees
    termination.  No stream element past the member is read.  Once the
    residual is ExactSize(k), the member ends k coordinates later, so they
    are counted down with no residual built.
    """
    r = _norm(spec)
    if r is EMPTY:
        return ()
    left = r.size if type(r) is ExactSize else -1  # coordinates to go, once known
    inside = _base_test(spec)
    cur: list[int] = []
    for x in stream:
        if cur and x <= cur[-1]:
            raise ValueError(f"stream must be strictly increasing, got {x} after {cur[-1]}")
        if not inside(x):
            raise NotInBaseError(f"{x} is not in the base")
        cur.append(x)
        if left > 0:
            left -= 1
        else:
            r = _d(r, x)
            if type(r) is not ExactSize:
                continue
            left = r.size
        if not left:
            return tuple(cur)
    return None


def front(spec: BarrierSpec, ground: Iterable[int]) -> tuple[Seq, ...]:
    """All members contained in a finite ground set, in lexicographic order.

    Non-base elements of the ground set are ignored.  A front of more than
    :data:`MAX_MEMBERS` members raises ValueError.  Fronts are kept by
    (normal form, base) (:func:`indexed_front`), so specs with one normal
    form share their fronts; Restrict and Derived bases apply here.
    """
    return indexed_front(_norm(spec), base_members(spec, ground))[0]


def sperner_of_masks(masks: Iterable[int], n: int) -> bool:
    """True iff no mask over range(n) strictly contains another: a mask lies
    in :func:`up_closure2` of the :func:`point_set` iff it contains a
    second, distinct mask.  2n big-int shift-ORs whatever the number of
    masks."""
    points = point_set(masks, n)
    return not points & up_closure2(points, n)


def check_sperner(members: Iterable[Seq]) -> bool:
    """True iff no member strictly contains another as a set, read off the
    members' masks over the n coordinates they use (:func:`sperner_of_masks`);
    more than :data:`MAX_GROUND` coordinates raise ValueError."""
    members = list(members)
    union = sorted({x for s in members for x in s})
    n = len(union)
    if n > MAX_GROUND:
        raise ValueError(f"the members use {n} coordinates; Sperner checks are limited to {MAX_GROUND}")
    bit = {x: 1 << i for i, x in enumerate(union)}
    return sperner_of_masks((sum(map(bit.__getitem__, set(s))) for s in members), n)


@dataclass(frozen=True)
class DensityReport:
    hit: int
    inconclusive: int
    violations: tuple[Seq, ...]

    def to_json(self) -> dict:
        return {
            "hit": self.hit,
            "inconclusive": self.inconclusive,
            "violations": [list(v) for v in self.violations],
        }


def density_of_masks(masks: tuple[int, ...], n: int) -> DensityReport:
    """The density probe of a front, read off its masks (:func:`indexed_front`)
    over a base of n elements.

    A subset's stream stops at its shortest member prefix, so a member ending
    at g[j] is reached by exactly the 2^(n-1-j) subsets it starts, which is
    its mask's low bit, and the member () of the family {()} by all
    2^n - 1 nonempty subsets.
    """
    hit = (1 << n) - 1 if masks == (0,) else sum(map(and_, masks, map(neg, masks)))
    return DensityReport(hit=hit, inconclusive=(1 << n) - 1 - hit, violations=())


def density_probe(spec: BarrierSpec, ground: Iterable[int]) -> DensityReport:
    """Stream every nonempty subset of the ground set through the stop rule.

    ``hit`` counts subsets that reach a member, ``inconclusive`` those that
    run out first; both are read off the front (:func:`density_of_masks`).
    ``violations`` stays in the report schema but is always empty: a stream
    stops at its first member, so no subset can overrun without one.
    Non-base ground elements are dropped up front, matching the Density
    quantifier over subsets of the base, and a base of more than
    :data:`MAX_GROUND` elements raises ValueError.
    """
    g, _, masks = capped_front(spec, ground)
    return density_of_masks(masks, len(g))


# --- variants ----------------------------------------------------------


def variant(spec: BarrierSpec, s: Iterable[int], k: int) -> Seq:
    """The unique member (s_0,...,s_i,k,s_{i+1},...,s_j) obtained by
    inserting k below max(s) and truncating.

    Existence and uniqueness follow from Density plus Sperner; the result is
    always lexicographically below s.  The empty member, which has no max,
    and k at or above max(s) are rejected with a distinct error; the gap
    just below max(s) is also reachable through :func:`append_variant`.
    """
    seq = _member(spec, s)
    if not seq:
        raise VariantRangeError("variant of the empty member")
    if not in_base(spec, k):
        raise NotInBaseError(f"{_clip(k)} is not in the base")
    if k in seq:
        raise ValueError(f"{_clip(k)} already occurs in {_clip(seq)}")
    if k >= seq[-1]:
        raise VariantRangeError(f"{_clip(k)} is not below max{_clip(seq)}; use append_variant")
    return _variant(spec, seq, k)


@lru_cache(maxsize=1 << 12)
def _variant(spec: BarrierSpec, seq: Seq, k: int) -> Seq:
    """:func:`variant` past its argument checks: k lies below max(seq) and
    outside the member seq.  The step reads k, so a k outside the base
    raises NotInBaseError there (and nothing is cached).  A variant depends
    on its arguments alone, so the last 4,096 are kept."""
    out = step(spec, insert_sorted(seq, k))
    if out is None or k not in out:
        raise InternalInvariantError(f"BUG: no variant of {seq} through {k}")
    if out >= seq:
        raise InternalInvariantError(f"BUG: variant {out} not lex-below {seq}")
    return out


def append_variant(spec: BarrierSpec, s: Iterable[int], k: int) -> Seq:
    """Replace the last coordinate: for s_{n-1} < k < s_n the sequence
    (s_0,...,s_{n-1},k) is again a member."""
    seq = _member(spec, s)
    if not seq:
        raise VariantRangeError("append_variant of the empty member")
    if not in_base(spec, k):
        raise NotInBaseError(f"{_clip(k)} is not in the base")
    low = seq[-2] if len(seq) >= 2 else -1
    if not (low < k < seq[-1]):
        raise VariantRangeError(f"{_clip(k)} is not in the last gap of {_clip(seq)}")
    out = seq[:-1] + (k,)
    if classify(spec, out) is not ELEMENT:
        raise InternalInvariantError(f"BUG: {out} is not a member")
    return out


# --- order types --------------------------------------------------------


def order_type(spec: BarrierSpec) -> Ordinal:
    """Symbolic order type of the lexicographic order on the barrier.

    For Restrict this returns the inner order type, which is only an upper
    bound (passing to an infinite subset can shrink the type).  For Derived
    no rule is tracked and the call raises.
    """
    match spec:
        case ExactSize(n):
            return omega_pow(Ordinal.from_int(n))
        case Schreier():
            return omega_pow(OMEGA)
        case Canonical(index):
            return omega_pow(index)
        case Plus(inner):
            return mul(OMEGA, order_type(inner))
        case Product(left, right):
            # Left coordinates dominate lexicographically, so the whole order
            # is order_type(right) copies stacked along order_type(left).
            return mul(order_type(right), order_type(left))
        case Restrict(inner, _):
            return order_type(inner)
        case _Chain():
            return order_type(spec.unrolled)
        case Derived():
            raise OrderTypeUnsupportedError("order type of a derived barrier is not tracked")
    raise TypeError(f"not a barrier spec: {spec!r}")


# --- validated constructors ---------------------------------------------


def make_product(left: BarrierSpec, right: BarrierSpec) -> Product:
    if not (_base_test(left) is _base_test(right) is _NATURALS):
        raise ValueError("product factors must live on the full base of naturals")
    return Product(left, right)


def make_derived(inner: BarrierSpec, n: int) -> Derived:
    if not in_base(inner, n):
        raise ValueError(f"{_clip(n)} is not in the base")
    t = classify(inner, (n,))
    if t not in (ELEMENT, PROPER_PREFIX):
        raise ValueError(f"({_clip(n)},) does not extend to a member")
    return Derived(inner, n)


def make_restrict(inner: BarrierSpec, base: GroundSet) -> Restrict:
    if base.is_finite:
        raise ValueError("restriction base must carry an infinite tail")
    return Restrict(inner, base)


# --- enumeration rank ----------------------------------------------------


def rank_key(s: Seq) -> tuple[int, Seq]:
    """Sort key (max, then lex) under which every member has a finite,
    enumerable set of predecessors."""
    return (s[-1] if s else -1, s)


def _table_ground(top: int) -> range:
    """0..top, the ground of a table of the members with max <= top; past
    MAX_MEMBERS elements, ValueError before anything reads it."""
    if top >= MAX_MEMBERS:
        raise ValueError(f"a table up to {_clip(top)} reads more than {MAX_MEMBERS} ground elements; "
                         "tables are limited to that many")
    return range(top + 1)


@lru_cache(maxsize=256)
def ranked_up_to(spec: BarrierSpec, top: int) -> dict[Seq, int]:
    """The rank table up to top: member -> rank for every member with max
    coordinate <= top, its keys in rank order, so a sequence with max <= top
    that is missing is not a member."""
    return {s: i for i, s in enumerate(sorted(front(spec, _table_ground(top)), key=rank_key))}


def rank_of(spec: BarrierSpec, members: Sequence[Seq]) -> tuple[int, list[int]]:
    """``(top, ranks)``: the largest max of the members and the enum_rank of
    each, read off the rank table at that max (the ranks up to a smaller max
    are a prefix) with no classify.  The first non-member raises ValueError."""
    top = max(map(max, filter(None, members)), default=-1)
    ranks = list(map(ranked_up_to(spec, top).get, members))
    if None in ranks:
        raise ValueError(f"{members[ranks.index(None)]} is not a member")
    return top, ranks


def enum_rank(spec: BarrierSpec, s: Iterable[int]) -> int:
    """Position of a member in the (max, lex) enumeration of the barrier.
    A non-member raises ValueError before any rank table is built."""
    return rank_of(spec, [_member(spec, s)])[1][0]


# --- labels --------------------------------------------------------------


def spec_label(spec: BarrierSpec) -> str:
    """Compact human-readable form, used in reports."""
    match spec:
        case ExactSize(n):
            return f"exact:{n}"
        case Schreier():
            return "schreier"
        case Canonical(index):
            return f"canonical:{index}"
        case Product(left, right):
            return f"product({spec_label(left)}, {spec_label(right)})"
        case Plus(inner):
            return f"plus({spec_label(inner)})"
        case Derived(inner, n):
            return f"derived({spec_label(inner)}, {n})"
        case Restrict(inner, base):
            tail = "" if base.tail is None else f"+{base.tail.start}/{base.tail.step}"
            return f"restrict({spec_label(inner)}, {list(base.prefix)}{tail})"
    raise TypeError(f"not a barrier spec: {spec!r}")
