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

A forward map takes the instance alone: the barrier is part of the instance
(``f.barrier``), and the forward coloring is a demand-driven batch function
closing over the instance only, so it is uniform: no ground set is consulted
beyond the queried members.  ``check_reduction`` validates a reduction
exhaustively on a finite ground set: every subset that solves the target
instance must map back to a solution of the source instance.  It works on
the subset lattice of :mod:`barriers.solver`: the target solutions and the
preimage of the source violations under the backward map are 2^n-bit sets,
and the counterexamples are their intersection.  Its report carries only
its results.

Desk-scale note for fs-to-rt: a finite monochromatic front constrains the
recursion only below its largest element (the recursion at a member needs a
next element of H after it), so its backward map drops max(H) before
decrementing; the desk-scale map of ts-to-fs drops min(H).  Every solution
map is :meth:`Reduction.backward`, read off the registry entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

from .barrier import (
    BarrierSpec,
    InternalInvariantError,
    Plus,
    _variant,
    front,
    base_members,
    rank_key,
    rank_of,
    ranked_up_to,
)
from .coloring import BoundViolationError, Coloring, _table_coloring
from .seqs import Seq, seq_minus
from .solver import FrontIndex, drop_preimage, in_order

__all__ = [
    "FreeToMonoColoring",
    "ts_rt_forward",
    "rrt_rt_forward",
    "rrt2_fs_forward",
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
    """The instance map of fs-to-rt: a free-set instance f becomes the
    2-coloring of the plus barrier of ``f.barrier`` defined by recursion along
    the lexicographic order, which is well-founded on any barrier.

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
    below k takes 1.  A hop steps along the member with k inserted, which
    asserts that it reaches a member through k lex-below s.  The hop depth
    below each member (a pure function of the instance, independent of
    query order) is tracked, and ``max_chain`` holds the largest seen.  One
    ``f.colors_of`` call gives k for every new prefix of a batch
    (:meth:`_batch`), and only the first member of each hop group walks its
    chain (:meth:`_eval`).

    The memo is the only mutable state; every entry is a pure function of
    the instance, so concurrent queries race only on identical values.
    """

    def __init__(self, f: Coloring):
        self.f = f
        # prefix -> [k, (value, depth) of its members above k, or None while unknown]
        self.memo: dict[Seq, list] = {}
        self.max_chain = 0
        super().__init__(Plus(f.barrier), self._batch, name=f"free-to-mono({f.name})")

    def _eval(self, s: Seq) -> int:
        # The chain holds the prefix entries waiting for their variant's value.
        chain: list[list] = []
        cur = s
        while True:
            p = cur[:-1]
            entry = self.memo.get(p)
            if entry is None:
                # seq_minus(cur) is a member of the inner barrier: no revalidation
                entry = self.memo[p] = _entry(p, self.f.batch((seq_minus(cur),))[0] + 1)
            k, above = entry
            if cur[-1] <= k:
                value, depth = 1, 0
                break
            if above is not None:
                value, depth = above
                break
            chain.append(entry)
            # k lies below max(cur) and outside cur; the step raises
            # NotInBaseError at k if it lies outside the base.
            cur = _variant(self.barrier, cur, k)
        for entry in reversed(chain):
            value = 1 - value
            depth += 1
            entry[1] = (value, depth)
        if depth > self.max_chain:
            self.max_chain = depth
        return value

    def _batch(self, members: Sequence[Seq]) -> list[int]:
        """``map(self._eval, members)`` with the inner colors fetched at once:
        one ``colors_of`` call at the new prefixes gives their k, each member
        reads its prefix entry, and only a member whose entry still waits for
        its value (the first of a hop group) runs ``_eval``.  The entries
        made here are the ones ``_eval`` would make, so the memo and
        ``max_chain`` end as after the per-member loop (an entry's depth was
        counted in ``max_chain`` when it was set)."""
        memo = self.memo
        prefixes = [s[:-1] for s in members]
        fresh = [p for p in dict.fromkeys(prefixes) if p not in memo]
        for p, c in zip(fresh, self.f.colors_of([tuple(map((-1).__add__, p)) for p in fresh])):
            memo[p] = _entry(p, c + 1)
        out = []
        for s, (k, above) in zip(members, map(memo.__getitem__, prefixes)):  # read as reached: _eval fills entries
            if s[-1] <= k:
                out.append(1)
            elif above is None:
                out.append(self._eval(s))
            else:
                out.append(above[0])
        return out


# --- thin set from monochromatic / free set ------------------------------


def ts_rt_forward(f: Coloring) -> Coloring:
    """Collapse to 2 colors: keep 0, send everything else to 1."""
    return Coloring(f.barrier, lambda ms: [0 if c == 0 else 1 for c in f.batch(ms)], name=f"thin-to-mono({f.name})")


# --- rainbow from monochromatic / free set -------------------------------


class _ColorClasses:
    """The members of f's barrier in (max, lex) rank order, colored by f as
    queries reach them: each member colored once, and only those up to the
    furthest member queried so far.  ``classes`` maps each color to its
    members in rank order, ``place`` each member to its color and its index
    in that list (the number of earlier members of its color).  A query
    (:meth:`fill`) takes a whole batch at once: its ranks are read in one
    go (:func:`rank_of`) off the rank table at its largest max
    (:func:`ranked_up_to`), and the table's members from the first uncolored
    one up to its highest-ranked member are colored by one ``f.colors_of``
    call.
    """

    def __init__(self, f: Coloring):
        self.f = f
        self.done = 0  # members colored, a prefix of the rank order
        self.classes: dict[int, list[Seq]] = {}
        self.place: dict[Seq, tuple[int, int]] = {}

    def fill(self, members: Sequence[Seq]) -> list[tuple[int, int]]:
        """Place every member given and return their places; a non-member
        raises ValueError."""
        top, ranks = rank_of(self.f.barrier, members)
        new = list(islice(ranked_up_to(self.f.barrier, top), self.done, max(ranks, default=-1) + 1))
        for t, color in zip(new, self.f.colors_of(new)):
            cls = self.classes.setdefault(color, [])
            self.place[t] = (color, len(cls))
            cls.append(t)
        self.done += len(new)
        return list(map(self.place.__getitem__, members))


def rrt_rt_forward(f: Coloring) -> Coloring:
    """Count agreeing predecessors: g(s) = |{t before s : f(t) = f(s)}|,
    "before" in the (max, lex) rank order.

    For a k-bounded f this is a k-coloring; the bound is validated on every
    queried rank prefix and violations raise.
    """
    k = f.declared_bound
    if k is None or k < 1:
        raise ValueError("instance must declare a bound k >= 1")
    place = _ColorClasses(f)

    def batch(members: Sequence[Seq]) -> list[int]:
        counts = []
        for s, (color, count) in zip(members, place.fill(members)):
            if count >= k:
                raise BoundViolationError(f"color {color} occurs {count + 1} times up to {s}; declared bound {k}")
            counts.append(count)
        return counts

    return Coloring(f.barrier, batch, name=f"twin-count({f.name})")


def rrt2_fs_forward(f: Coloring) -> Coloring:
    """g(s) = min(t \\ s) for the unique earlier twin t of s, else 0.

    Uniqueness holds because f is 2-bounded; t \\ s is nonempty because
    distinct members are set-incomparable.
    """
    if f.declared_bound != 2:
        raise ValueError("instance must declare bound 2")
    place = _ColorClasses(f)

    def batch(members: Sequence[Seq]) -> list[int]:
        out = []
        for s, (color, count) in zip(members, place.fill(members)):
            if count > 1:
                raise BoundViolationError(f"color {color} occurs {count + 1} times up to {s}")
            if not count:
                out.append(0)
                continue
            twin = place.classes[color][0]
            diff = set(twin) - set(s)
            if not diff:
                raise InternalInvariantError(f"BUG: member {twin} contained in {s}")
            out.append(min(diff))
        return out

    return Coloring(f.barrier, batch, name=f"twin-min({f.name})")


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
    forward: Callable[[Coloring], Coloring]
    drop: tuple[str, ...] = ()
    shift: int = 0

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
        forward=FreeToMonoColoring,
        drop=("max",),
        shift=1,
    ),
    "ts-to-rt": Reduction(
        name="ts-to-rt",
        source_property="thin",
        target_property="mono",
        forward=ts_rt_forward,
    ),
    "ts-to-fs": Reduction(
        name="ts-to-fs",
        source_property="thin",
        target_property="free",
        forward=lambda f: f,
        drop=("min",),
    ),
    "rrt-to-rt": Reduction(
        name="rrt-to-rt",
        source_property="rainbow",
        target_property="mono",
        forward=rrt_rt_forward,
    ),
    "rrt2-to-fs": Reduction(
        name="rrt2-to-fs",
        source_property="rainbow",
        target_property="free",
        forward=rrt2_fs_forward,
    ),
}


# --- exhaustive finite validation -----------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    checked_witnesses: int
    counterexamples: tuple[dict, ...]
    max_recursion_chain: int
    forward_max_color: int | None

    @property
    def ok(self) -> bool:
        return not self.counterexamples


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
    ValueError, as do an instance that ``red.forward`` refuses (the rainbow
    forwards refuse one without the bound they need) and a forward barrier
    whose base inside the target ground is not ``red.target_ground`` of the
    source base.
    """
    if isinstance(red, str):
        red = REDUCTIONS[red]
    if min_size < 0:
        raise ValueError(f"min_size must be >= 0, got {min_size}")
    g = base_members(f.barrier, ground)
    gvals = red.forward(f)
    target = FrontIndex(gvals, red.target_ground(g))
    source = FrontIndex(f, g)
    if target.g != red.target_ground(source.g):
        raise ValueError(
            f"{red.name}: the forward barrier's base inside the target ground is {list(target.g)}, "
            f"not the source base {list(source.g)} shifted by {red.shift}"
        )
    # thinness is checked against the colors used on the source front, the
    # two collapse colors, and the ground elements themselves (the color
    # that ts-to-fs omits is a ground element)
    universe = tuple(sorted(set(source.colors) | {0, 1} | set(g))) if red.source_property == "thin" else ()
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
    if red.source_property == "rainbow":
        k = bound if bound is not None else 2
        colors = [i // k for i in range(len(members))]
        rng.shuffle(colors)
        return _table_coloring(spec, dict(zip(members, colors)), name=f"random:{seed}", declared_bound=k)
    top = (max(g) if g else 0) + 4
    colors = [rng.randrange(top) for _ in members]
    return _table_coloring(spec, dict(zip(members, colors)), name=f"random:{seed}")


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
    if red.source_property == "rainbow":
        k = bound if bound is not None else 2
        n = len(members)
        out.append(
            _table_coloring(spec, {s: i for i, s in enumerate(members)}, name="injective", declared_bound=k)
        )
        out.append(
            _table_coloring(spec, {s: i // k for i, s in enumerate(members)}, name="adjacent-twins", declared_bound=k)
        )
        stride = max(1, (n + k - 1) // k)
        out.append(
            _table_coloring(spec, {s: i % stride for i, s in enumerate(members)}, name="far-twins", declared_bound=k)
        )
        return out
    out.append(_table_coloring(spec, {s: 0 for s in members}, name="const:0"))
    out.append(_table_coloring(spec, {s: max(g, default=0) + 50 for s in members}, name="const:big"))
    if members != ((),):  # these read an end of each member, and () has none
        out.append(_table_coloring(spec, {s: s[0] for s in members}, name="min"))
        out.append(_table_coloring(spec, {s: s[-1] + 1 for s in members}, name="max-plus-one"))
        out.append(_table_coloring(spec, {s: max(s[0] - 2, 0) for s in members}, name="cascade"))
    if members:
        probe = {s: 0 for s in members}
        top = max(members, key=rank_key)
        probe[top] = min(x for x in g if x != 0) if len(g) > 1 else 0
        out.append(_table_coloring(spec, probe, name="top-probe"))
    return out
