"""Uniform reductions between Ramsey-type principles on barriers.

Each reduction is a pair of maps: a forward map turning an instance (a
coloring) of the source principle into an instance of the target principle,
and a backward map turning target solutions into source solutions.  The
backward map is data: it drops the ends of H listed in ``drop``, in turn,
and shifts the rest down by ``shift``, the amount by which the target ground
lies above the source ground.  The five reductions shipped here:

    fs-to-rt    free set          <=  2-color monochromatic, on the plus barrier
    ts-to-rt    thin set          <=  2-color monochromatic
    ts-to-fs    thin set          <=  free set
    rrt-to-rt   rainbow (k-bdd)   <=  k-color monochromatic
    rrt2-to-fs  rainbow (2-bdd)   <=  free set

Forward colorings are demand-driven rules closing over the instance and the
barrier only, so they are uniform: no ground set is consulted beyond the
queried member.  ``check_reduction`` validates a reduction exhaustively on a
finite ground set: every subset that solves the target instance must map back
to a solution of the source instance.  It works on the subset lattice of
:mod:`barriers.solver`: the target solutions and the preimage of the source
violations under the backward map are 2^n-bit sets, and the counterexamples
are their intersection.

Desk-scale note for fs-to-rt: a finite monochromatic front constrains the
recursion only below its largest element (the recursion at a member needs a
next element of H after it), so its backward map drops max(H) before
decrementing.  The pointwise decrement itself is :func:`fs_backward`, and the
desk-scale map of ts-to-fs, dropping min(H), is :func:`ts_fs_backward`.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

from .barrier import (
    BarrierSpec,
    ELEMENT,
    InternalInvariantError,
    Plus,
    _variant,
    classify,
    front,
    base_members,
    rank_key,
    rank_of,
    ranked_up_to,
    spec_label,
)
from .coloring import BoundViolationError, Coloring, table_coloring
from .seqs import Seq, as_seq, seq_minus
from .solver import FrontIndex, drop_preimage, in_order

__all__ = [
    "FreeToMonoColoring",
    "fs_forward",
    "fs_backward",
    "ts_rt_forward",
    "ts_fs_backward",
    "rrt_rt_forward",
    "rrt2_fs_forward",
    "thin_universe",
    "Reduction",
    "REDUCTIONS",
    "ReductionReport",
    "check_reduction",
    "random_instance",
    "adversarial_instances",
]


# --- free set from monochromatic ----------------------------------------


def _entry(p: Seq, k: int) -> list:
    """A new memo entry of the prefix p: k, and the value and hop depth of
    the members of p above k, known (0, 0) when k is in p or above max(p)."""
    return [k, (0, 0) if p and (k in p or k > p[-1]) else None]


class FreeToMonoColoring(Coloring):
    """2-coloring of the plus barrier defined by recursion along the
    lexicographic order, which is well-founded on any barrier.

    For a member s = (s_0,...,s_n) of the plus barrier, let t be s with the
    last coordinate dropped and the rest shifted down, and v = f(t):

        v in t                                        -> 0
        v < s_0 - 1, or v strictly inside a gap
        (s_i - 1, s_{i+1} - 1) with i < n-1           -> 1 - g(s[v+1])
        v strictly inside (s_{n-1} - 1, s_n - 1)      -> 0
        otherwise (v = s_n - 1 or v >= s_n)           -> 1

    where s[v+1] is the (v+1)-variant, lexicographically below s.

    The members with one prefix p = s[:-1] share t, v and k = v + 1, so
    ``memo`` keeps one entry per prefix: k, and the value and hop depth
    shared by the members of p whose last coordinate lies above k.  Those
    take 0 when k is in p or above max(p), and hop when k lies below max(p)
    outside p (for p = (), every member above k hops).  A member at or
    below k takes 1.  The members of a hop group also share their variant:
    s + {k} strictly contains s, so the variant is a prefix of p + {k}
    through k.  It is looked up among the members colored already (in lex
    order on a ground 0..n it always is one, being lex-below s), and only a
    miss steps along the member with k inserted, which asserts that it
    reaches a member through k lex-below s.  The hop depth below each
    member (a pure function of the instance, independent of query order) is
    tracked, and ``max_chain`` holds the largest seen.  A call checks that s
    is a member unless it was colored already; the rule trusts its input,
    like the other forward colorings' rules, since the library hands it
    only members.  A front is colored in one call (:meth:`_bulk`): one
    ``f.colors_of`` call gives k for every new prefix, and only the first
    member of each hop group walks its chain.

    The memo and the set of members colored are the only mutable state;
    every entry is a pure function of the instance, so concurrent queries
    race only on identical values.
    """

    def __init__(self, inner: BarrierSpec, f: Coloring):
        self.inner = inner
        self.f = f
        # prefix -> [k, (value, depth) of its members above k, or None while unknown]
        self.memo: dict[Seq, list] = {}
        self.colored: set[Seq] = set()
        self.max_chain = 0
        super().__init__(Plus(inner), self._eval, name=f"free-to-mono({f.name})", colors=(0, 1), bulk=self._bulk)

    def __call__(self, s: Iterable[int]) -> int:
        seq = as_seq(s)
        if seq not in self.colored and classify(self.barrier, seq) is not ELEMENT:
            raise ValueError(f"{seq} is not a member of the plus barrier")
        return self._eval(seq)

    def _hop(self, s: Seq, k: int) -> Seq:
        """The k-variant of the member s, for k outside s and below max(s[:-1])
        (below s_0 when s[:-1] is empty)."""
        p = s[:-1]
        i = bisect_left(p, k)
        head = p[:i] + (k,)
        for j in range(i, len(p) + 1):
            w = head + p[i:j]
            if w in self.colored:
                return w
        # k lies below max(s) and outside s, and the step raises
        # NotInBaseError at k if it lies outside the base.
        return _variant(self.barrier, s, k)

    def _eval(self, s: Seq) -> int:
        # The rule: s is a member (checked by __call__, or made by the
        # library).  The chain holds the prefix entries waiting for their
        # variant's value, with the member that reached each.
        chain: list[tuple[list, Seq]] = []
        cur = s
        while True:
            p = cur[:-1]
            entry = self.memo.get(p)
            if entry is None:
                # seq_minus(cur) is a member of the inner barrier: no revalidation
                entry = self.memo[p] = _entry(p, self.f.rule(seq_minus(cur)) + 1)
            k, above = entry
            if cur[-1] <= k:
                value, depth = 1, 0
                break
            if above is not None:
                value, depth = above
                break
            chain.append((entry, cur))
            cur = self._hop(cur, k)
        self.colored.add(cur)
        for entry, node in reversed(chain):
            value = 1 - value
            depth += 1
            entry[1] = (value, depth)
            self.colored.add(node)
        if depth > self.max_chain:
            self.max_chain = depth
        return value

    def _bulk(self, members: Sequence[Seq]) -> list[int]:
        """``map(self._eval, members)`` with the inner colors fetched at once:
        one ``colors_of`` call at the new prefixes gives their k, each member
        reads its prefix entry, and only a member whose entry still waits for
        its value (the first of a hop group) runs ``_eval``.  The entries
        made here are the ones ``_eval`` would make, so the memo, the
        members colored and ``max_chain`` end as after the per-member loop
        (an entry's depth was counted in ``max_chain`` when it was set)."""
        memo = self.memo
        prefixes = [s[:-1] for s in members]
        fresh = [p for p in dict.fromkeys(prefixes) if p not in memo]
        for p, c in zip(fresh, self.f.colors_of([tuple(map((-1).__add__, p)) for p in fresh])):
            memo[p] = _entry(p, c + 1)
        self.colored.update(members)  # a variant lookup that finds a member sooner finds the same variant
        out = []
        for s, (k, above) in zip(members, map(memo.__getitem__, prefixes)):  # read as reached: _eval fills entries
            if s[-1] <= k:
                out.append(1)
            elif above is None:
                out.append(self._eval(s))
            else:
                out.append(above[0])
        return out


def fs_forward(inner: BarrierSpec, f: Coloring) -> FreeToMonoColoring:
    """Instance map of fs-to-rt: a free-set instance on the inner barrier
    becomes a 2-coloring of its plus barrier."""
    return FreeToMonoColoring(inner, f)


def fs_backward(h: Iterable[int]) -> tuple[int, ...]:
    """Solution map of fs-to-rt at the infinite level: pointwise decrement."""
    hs = tuple(sorted(set(h)))
    if hs and hs[0] < 1:
        raise ValueError(f"0 cannot occur in a plus-barrier solution: {hs}")
    return tuple(x - 1 for x in hs)


# --- thin set from monochromatic / free set ------------------------------


def ts_rt_forward(f: Coloring) -> Coloring:
    """Collapse to 2 colors: keep 0, send everything else to 1.  The new
    coloring validates each query, so its rule hands it to ``f.rule``, and
    a front to ``f.colors_of``."""
    return Coloring(
        f.barrier,
        lambda s: 0 if f.rule(s) == 0 else 1,
        name=f"thin-to-mono({f.name})",
        colors=(0, 1),
        bulk=lambda ms: [0 if c == 0 else 1 for c in f.colors_of(ms)],
    )


def ts_fs_backward(x: Iterable[int]) -> tuple[int, ...]:
    """Drop the minimum of a free solution; the remainder is thin (the
    dropped element can no longer occur as a color on the sub-front)."""
    xs = tuple(sorted(set(x)))
    if len(xs) < 2:
        raise ValueError(f"need at least 2 elements, got {xs}")
    return xs[1:]


def _thin_palette(used: Iterable[int], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(used) | {0, 1} | set(g)))


def thin_universe(f: Coloring, ground: Iterable[int]) -> tuple[int, ...]:
    """Color universe for desk-scale thinness checks: colors used on the
    ground front, the two collapse colors, and the ground elements themselves
    (the omitted color produced by ts-to-fs is a ground element)."""
    g = tuple(ground)
    return _thin_palette((f(s) for s in front(f.barrier, g)), g)


# --- rainbow from monochromatic / free set -------------------------------


class _ColorClasses:
    """The members of a barrier in (max, lex) rank order, colored by f as
    queries reach them: each member colored once, and only those up to the
    furthest member queried so far.  ``classes`` maps each color to its
    members in rank order, ``place`` each member to its color and its index
    in that list (the number of earlier members of its color).  A query
    (:meth:`fill`) takes a whole front at once: its ranks are read in one
    batch (:func:`rank_of`) off the rank table at its largest max
    (:func:`ranked_up_to`), and the table's members from the first uncolored
    one up to its highest-ranked member are colored by one ``f.colors_of``
    call.
    """

    def __init__(self, spec: BarrierSpec, f: Coloring):
        self.spec = spec
        self.f = f
        self.done = 0  # members colored, a prefix of the rank order
        self.classes: dict[int, list[Seq]] = {}
        self.place: dict[Seq, tuple[int, int]] = {}

    def __call__(self, s: Seq) -> tuple[int, int]:
        if s not in self.place:
            self.fill((s,))
        return self.place[s]

    def fill(self, members: Sequence[Seq]) -> None:
        """Place every member given; a non-member raises ValueError."""
        top, ranks = rank_of(self.spec, members)
        new = list(islice(ranked_up_to(self.spec, top), self.done, max(ranks, default=-1) + 1))
        for t, color in zip(new, self.f.colors_of(new)):
            cls = self.classes.setdefault(color, [])
            self.place[t] = (color, len(cls))
            cls.append(t)
        self.done += len(new)


def rrt_rt_forward(spec: BarrierSpec, f: Coloring) -> Coloring:
    """Count agreeing predecessors: g(s) = |{t before s : f(t) = f(s)}|,
    "before" in the (max, lex) rank order.

    For a k-bounded f this is a k-coloring; the bound is validated on every
    queried rank prefix and violations raise.
    """
    k = f.declared_bound
    if k is None or k < 1:
        raise ValueError("instance must declare a bound k >= 1")
    place = _ColorClasses(spec, f)

    def rule(s: Seq) -> int:
        color, count = place(s)
        if count >= k:
            raise BoundViolationError(
                f"color {color} occurs {count + 1} times up to {s}; declared bound {k}"
            )
        return count

    def bulk(members: Sequence[Seq]) -> list[int]:
        place.fill(members)
        counts = [count for _, count in map(place.place.__getitem__, members)]
        return counts if max(counts, default=0) < k else list(map(rule, members))  # raises at the first over k

    return Coloring(spec, rule, name=f"twin-count({f.name})", colors=tuple(range(k)), bulk=bulk)


def rrt2_fs_forward(spec: BarrierSpec, f: Coloring) -> Coloring:
    """g(s) = min(t \\ s) for the unique earlier twin t of s, else 0.

    Uniqueness holds because f is 2-bounded; t \\ s is nonempty because
    distinct members are set-incomparable.
    """
    if f.declared_bound != 2:
        raise ValueError("instance must declare bound 2")
    place = _ColorClasses(spec, f)

    def rule(s: Seq) -> int:
        color, count = place(s)
        if count > 1:
            raise BoundViolationError(f"color {color} occurs {count + 1} times up to {s}")
        if not count:
            return 0
        twin = place.classes[color][0]
        diff = set(twin) - set(s)
        if not diff:
            raise InternalInvariantError(f"BUG: member {twin} contained in {s}")
        return min(diff)

    def bulk(members: Sequence[Seq]) -> list[int]:
        place.fill(members)
        return list(map(rule, members))

    return Coloring(spec, rule, name=f"twin-min({f.name})", bulk=bulk)


# --- the reduction registry ----------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """A source principle, a target principle, the instance map ``forward``
    and the solution map as data: ``backward`` drops the ends of H named in
    ``drop`` ("min" or "max"), in turn, and shifts the rest down by
    ``shift``; the target ground is the source ground shifted up by it."""

    name: str
    source_property: str
    target_property: str
    forward: Callable[[BarrierSpec, Coloring], Coloring]
    drop: tuple[str, ...] = ()
    shift: int = 0
    needs_bound: int | None = None  # 2 = exactly 2-bounded, 0 = any declared k

    def __post_init__(self) -> None:
        if any(end not in ("min", "max") for end in self.drop):
            raise ValueError(f"drop must list ends, each 'min' or 'max', got {self.drop}")

    @property
    def min_witness(self) -> int:
        """The smallest target solution size that keeps an element after the drops."""
        return 1 + len(self.drop)

    def backward(self, h: Iterable[int]) -> tuple[int, ...]:
        hs = tuple(sorted(set(h)))
        if len(hs) < len(self.drop):
            raise ValueError(f"need at least {len(self.drop)} elements, got {hs}")
        for end in self.drop:
            hs = hs[1:] if end == "min" else hs[:-1]
        if hs and hs[0] < self.shift:
            raise ValueError(f"{hs} has elements below the shift {self.shift}")
        return tuple(x - self.shift for x in hs)

    def target_ground(self, g: Iterable[int]) -> tuple[int, ...]:
        return tuple(x + self.shift for x in g)

    def preimage(self, s: int, n: int) -> int:
        """The target masks over n ground elements whose backward image lies
        in the 2^n-bit set s of source masks (masks as in FrontIndex; the
        shift keeps the indices)."""
        for end in reversed(self.drop):
            s = drop_preimage(s, n, end)
        return s


REDUCTIONS: dict[str, Reduction] = {
    "fs-to-rt": Reduction(
        name="fs-to-rt",
        source_property="free",
        target_property="mono",
        forward=fs_forward,
        drop=("max",),
        shift=1,
    ),
    "ts-to-rt": Reduction(
        name="ts-to-rt",
        source_property="thin",
        target_property="mono",
        forward=lambda spec, f: ts_rt_forward(f),
    ),
    "ts-to-fs": Reduction(
        name="ts-to-fs",
        source_property="thin",
        target_property="free",
        forward=lambda spec, f: f,
        drop=("min",),
    ),
    "rrt-to-rt": Reduction(
        name="rrt-to-rt",
        source_property="rainbow",
        target_property="mono",
        forward=rrt_rt_forward,
        needs_bound=0,
    ),
    "rrt2-to-fs": Reduction(
        name="rrt2-to-fs",
        source_property="rainbow",
        target_property="free",
        forward=rrt2_fs_forward,
        needs_bound=2,
    ),
}


# --- exhaustive finite validation -----------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    name: str
    barrier: str
    coloring: str
    ground: tuple[int, ...]
    min_size: int
    checked_witnesses: int
    counterexamples: tuple[dict, ...]
    max_recursion_chain: int
    forward_max_color: int | None

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "barrier": self.barrier,
            "coloring": self.coloring,
            "ground": list(self.ground),
            "min_size": self.min_size,
            "checked_witnesses": self.checked_witnesses,
            "counterexamples": list(self.counterexamples),
            "max_recursion_chain": self.max_recursion_chain,
            "forward_max_color": self.forward_max_color,
        }


def check_reduction(
    red: Reduction | str,
    f: Coloring,
    ground: Iterable[int],
    min_size: int,
) -> ReductionReport:
    """Exhaustively validate one instance at desk scale.

    Every subset H of the target ground set with at least ``min_size``
    (and ``red.min_witness``) elements whose front solves the target
    instance is mapped back; the report collects any H whose image fails
    the source property, by size then lex.  For a correct reduction the
    counterexample list is empty.  Both fronts are indexed once (see
    :class:`FrontIndex`) and the check is a few operations on their 2^n-bit
    sets, so grounds with more than MAX_GROUND base elements raise
    ValueError, as does a forward barrier whose base inside the target
    ground is not ``red.target_ground`` of the source base.
    """
    if isinstance(red, str):
        red = REDUCTIONS[red]
    if red.needs_bound is not None:
        if f.declared_bound is None:
            raise ValueError(f"{red.name} needs a declared bound")
        if red.needs_bound and f.declared_bound != red.needs_bound:
            raise ValueError(f"{red.name} needs bound {red.needs_bound}")

    g = base_members(f.barrier, ground)
    gvals = red.forward(f.barrier, f)
    target = FrontIndex(gvals, red.target_ground(g))
    source = FrontIndex(f, g)
    if target.g != red.target_ground(source.g):
        raise ValueError(
            f"{red.name}: the forward barrier's base inside the target ground is {list(target.g)}, "
            f"not the source base {list(source.g)} shifted by {red.shift}"
        )
    universe = _thin_palette(source.colors, g) if red.source_property == "thin" else ()
    clean = target.all & ~target.violations(red.target_property)
    layers = target.layers[max(min_size, red.min_witness) :]
    bad = clean & red.preimage(source.violations(red.source_property, universe), len(g))
    counterexamples = []
    for m in in_order(bad, layers):
        h = target.subset(m)
        counterexamples.append(
            {"witness": list(h), "solution": list(red.backward(h)), "property": red.source_property}
        )
    return ReductionReport(
        name=red.name,
        barrier=spec_label(f.barrier),
        coloring=f.name,
        ground=g,
        min_size=min_size,
        checked_witnesses=sum((clean & layer).bit_count() for layer in layers),
        counterexamples=tuple(counterexamples),
        max_recursion_chain=getattr(gvals, "max_chain", 0),
        forward_max_color=max(target.colors, default=None),
    )


# --- instance generators ---------------------------------------------------


def _tabled_front(spec: BarrierSpec, g: tuple[int, ...]) -> tuple[Seq, ...]:
    """The members an instance on the base g must color: the front of
    0..max(g), not only of g.  The fs-to-rt forward reads f at the members
    its hops reach, and the twin counts at every member of lower rank; both
    may lie below max(g) and outside g.  On a ground 0..n this is the
    ground's front."""
    return front(spec, range(max(g, default=-1) + 1))


def random_instance(
    red: Reduction | str,
    spec: BarrierSpec,
    ground: Iterable[int],
    seed: int,
    bound: int | None = None,
) -> Coloring:
    """Seeded random table coloring, shaped for the reduction: plain
    colorings for free/thin sources, exactly-bounded color multisets for
    rainbow sources.  It tables the front of 0..max of the ground's base
    (see :func:`_tabled_front`)."""
    if isinstance(red, str):
        red = REDUCTIONS[red]
    g = base_members(spec, ground)
    members = _tabled_front(spec, g)
    rng = random.Random(seed)
    if red.needs_bound is not None:
        k = bound if bound is not None else (red.needs_bound or 2)
        colors = [i // k for i in range(len(members))]
        rng.shuffle(colors)
        return table_coloring(spec, dict(zip(members, colors)), name=f"random:{seed}", declared_bound=k)
    top = (max(g) if g else 0) + 4
    colors = [rng.randrange(top) for _ in members]
    return table_coloring(spec, dict(zip(members, colors)), name=f"random:{seed}")


def adversarial_instances(
    red: Reduction | str,
    spec: BarrierSpec,
    ground: Iterable[int],
    bound: int | None = None,
) -> list[Coloring]:
    """Deterministic stress instances per reduction, tabled like
    :func:`random_instance`."""
    if isinstance(red, str):
        red = REDUCTIONS[red]
    g = base_members(spec, ground)
    members = _tabled_front(spec, g)
    out: list[Coloring] = []
    if red.needs_bound is not None:
        k = bound if bound is not None else (red.needs_bound or 2)
        n = len(members)
        out.append(
            table_coloring(spec, {s: i for i, s in enumerate(members)}, name="injective", declared_bound=k)
        )
        out.append(
            table_coloring(spec, {s: i // k for i, s in enumerate(members)}, name="adjacent-twins", declared_bound=k)
        )
        stride = max(1, (n + k - 1) // k)
        out.append(
            table_coloring(spec, {s: i % stride for i, s in enumerate(members)}, name="far-twins", declared_bound=k)
        )
        return out
    out.append(table_coloring(spec, {s: 0 for s in members}, name="const:0"))
    out.append(table_coloring(spec, {s: max(g, default=0) + 50 for s in members}, name="const:big"))
    if members != ((),):  # these read an end of each member, and () has none
        out.append(table_coloring(spec, {s: s[0] for s in members}, name="min"))
        out.append(table_coloring(spec, {s: s[-1] + 1 for s in members}, name="max-plus-one"))
        out.append(table_coloring(spec, {s: max(s[0] - 2, 0) for s in members}, name="cascade"))
    if members:
        probe = {s: 0 for s in members}
        top = max(members, key=rank_key)
        probe[top] = min(x for x in g if x != 0) if len(g) > 1 else 0
        out.append(table_coloring(spec, probe, name="top-probe"))
    return out
