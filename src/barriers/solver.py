"""Finite-front search for Ramsey-style solution sets.

The infinite statements ask for an infinite set whose induced sub-barrier is
monochromatic, free, thin or a rainbow.  At desk scale a solution is a finite
set H whose front (the members inside H) verifies the property; ``find``
searches subsets of a ground set exhaustively, by size then lexicographically,
so witnesses are reproducible.

All four properties are anti-monotone in H: shrinking a verified H keeps it
verified (for thin, with the same color universe).  So the subsets H that
violate a property form an up-set, the union of the up-sets of a few small
masks, and :class:`FrontIndex` computes it for all 2^n subsets at once as one
2^n-bit integer.  The work goes per color class, not per member: a class is
one 2^n-bit set of points (its members' masks) closed upward by one
superset-closure, or zeta, pass (:func:`barriers.barrier.up_closure`).  A
rainbow class of m members is violated above the union of any two, so up to
m = n its pairwise unions join one closure, and a larger class takes a zeta
count saturated at 2 (:func:`barriers.barrier.up_closure2`).  The index
colors the whole front as one batch (:meth:`Coloring.colors_of`), so a
coloring that keeps a table, a rank order or a memo does the work its
members share once per front.  The members and their masks do not depend on
the coloring: one walk emits both once per (normal form, base) pair and one
bounded cache keeps them (:func:`barriers.barrier.capped_front`), since a
uniform check sends many instances through the same barrier and ground.
With ``g[i]`` at bit ``n-1-i`` of a mask, the subsets of one size go in lex
order exactly as their masks go down, so with the size layers
(:func:`size_layers`) an answer is read off the bitset without a loop over
subsets: ``find`` takes the highest clean mask of the first nonempty layer
from ``min_size`` on, and ``check_reduction`` intersects the clean target
masks with the preimage of the source violations under the reduction's
backward map (:meth:`barriers.reduction.Reduction.preimage`).
Because the bitsets have 2^n bits, both refuse a ground whose base has more
than :data:`MAX_GROUND` elements.

The ``verify_*`` functions restate each property by its definition, one
subset at a time; they are the slow reference the index is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, filterfalse, starmap
from operator import or_
from typing import Iterable, Iterator

from .barrier import (
    MAX_GROUND,
    _base_test,
    capped_front,
    front,
    point_set,
    up_closure,
    up_closure2,
)
from .coloring import Coloring
from .seqs import _clip

__all__ = [
    "PROPERTIES",
    "Witness",
    "verify_mono",
    "verify_free",
    "verify_thin",
    "verify_rainbow",
    "MAX_GROUND",
    "FrontIndex",
    "find",
]

PROPERTIES = ("mono", "free", "thin", "rainbow")


@dataclass(frozen=True)
class Witness:
    h: tuple[int, ...]
    property: str
    detail: int | None = None  # mono: the color; thin: an omitted color

    def to_json(self) -> dict:
        return {"h": list(self.h), "property": self.property, "detail": self.detail}


def _checked(f: Coloring, h: Iterable[int]) -> tuple[int, ...]:
    hs = tuple(sorted(set(h)))
    bad = list(filterfalse(_base_test(f.barrier), hs))
    if bad:
        raise ValueError(f"{bad} not in the base of the barrier")
    return hs


def verify_mono(f: Coloring, h: Iterable[int]) -> bool:
    """True iff f is constant on the front inside h (vacuously on empty)."""
    hs = _checked(f, h)
    return len({f(s) for s in front(f.barrier, hs)}) <= 1


def verify_free(f: Coloring, h: Iterable[int]) -> bool:
    """True iff every member s inside h has f(s) outside h or inside s."""
    hs = _checked(f, h)
    hset = set(hs)
    return all(f(s) in s for s in front(f.barrier, hs) if f(s) in hset)


def verify_thin(f: Coloring, h: Iterable[int], universe: Iterable[int]) -> bool:
    """True iff f restricted to the front inside h omits a universe color."""
    hs = _checked(f, h)
    image = {f(s) for s in front(f.barrier, hs)}
    return any(c not in image for c in set(universe))


def verify_rainbow(f: Coloring, h: Iterable[int]) -> bool:
    """True iff f is injective on the front inside h."""
    hs = _checked(f, h)
    members = front(f.barrier, hs)
    return len({f(s) for s in members}) == len(members)


# --- the subset lattice ---------------------------------------------------

@lru_cache(maxsize=None)  # one entry per n <= MAX_GROUND
def size_layers(n: int) -> tuple[int, ...]:
    """Layer k is the 2^n-bit set of the masks over range(n) with k bits.
    Adding bit i puts a copy of every layer 2^i positions up, one size
    higher: n shift-ORs over the layers."""
    layers = [1]
    for i in range(n):
        layers = [lo | hi << (1 << i) for lo, hi in zip(layers + [0], [0] + layers)]
    return tuple(layers)


def in_order(bits: int, layers: Iterable[int]) -> Iterator[int]:
    """The masks in a 2^n-bit set that lie in the given layers, layer by
    layer, each layer by decreasing mask (lex order, see FrontIndex)."""
    for layer in layers:
        x = bits & layer
        while x:
            m = x.bit_length() - 1
            yield m
            x ^= 1 << m


class FrontIndex:
    """The front inside a ground set with one color per member.

    Keeps the base ``g`` of the ground set, the ``members`` in lex order,
    each member's bitmask over ``g`` (``masks``) and its color (``colors``).
    A subset H of ``g`` is named by its mask, with ``g[i]`` at bit
    ``n-1-i``, so that the subsets of one size go in lex order exactly as
    their masks go down.  Sets of subsets are 2^n-bit integers whose bit H
    stands for the subset H.  The members and masks depend on the normal
    form and the base only and are shared through the front cache
    (:func:`barriers.barrier.capped_front`); the members, which the library
    produced itself, are colored without revalidation, all in one
    ``f.colors_of`` call.
    """

    def __init__(self, f: Coloring, ground: Iterable[int]):
        self.g, self.members, self.masks = capped_front(f.barrier, ground)
        n = len(self.g)
        self.pos = {x: n - 1 - i for i, x in enumerate(self.g)}
        self.colors = f.colors_of(self.members)
        self.all = (1 << (1 << n)) - 1
        self.layers = size_layers(n)

    def subset(self, m: int) -> tuple[int, ...]:
        """The subset of ``g`` with mask m, sorted."""
        return tuple(x for x in self.g if m >> self.pos[x] & 1)

    def violations(self, prop: str, universe: Iterable[int] = ()) -> int:
        """The masks H whose front violates the property; for thin, whose
        image covers the universe.  Each color class is one 2^n-bit set of
        points (:func:`point_set` of its member masks), closed upward once
        (:func:`up_closure`), so only a few 2^n-bit integers are alive at
        once: mono marks the masks in the up-sets of two classes, thin those
        in the up-set of every universe color's class (none once a color has
        no member or the intersection is empty), rainbow those that contain
        two members of one class, and free closes the points m | bit(c) of
        the members m whose color c is a ground element outside m.  A name
        outside PROPERTIES raises ValueError."""
        n = len(self.g)
        if prop == "free":
            pos = self.pos
            hits = (m | 1 << pos[c] for m, c in zip(self.masks, self.colors) if c in pos and not m >> pos[c] & 1)
            return up_closure(point_set(hits, n), n)
        classes: dict[int, list[int]] = {}
        for m, c in zip(self.masks, self.colors):
            classes.setdefault(c, []).append(m)
        if prop == "thin":
            bad = self.all
            for c in universe:
                if not bad or c not in classes:
                    return 0
                bad &= up_closure(point_set(classes[c], n), n)
            return bad
        if prop == "mono":
            bad = seen = 0
            for ms in classes.values():
                x = up_closure(point_set(ms, n), n)
                bad |= seen & x
                seen |= x
            return bad
        if prop != "rainbow":
            raise ValueError(f"unknown property {prop!r}")
        # a rainbow class of m members is violated above the union of two of
        # them; up to m = n the C(m, 2) unions join one closure, a larger
        # class counts its members below each mask
        pairs, bad = [], 0
        for ms in classes.values():
            if len(ms) == 2:  # the common case of k-bounded instances, inline
                pairs.append(ms[0] | ms[1])
            elif len(ms) > n:
                bad |= up_closure2(point_set(ms, n), n)
            elif len(ms) > 2:
                pairs.extend(starmap(or_, combinations(ms, 2)))
        return bad | up_closure(point_set(pairs, n), n)

    def colors_inside(self, m: int) -> list[int]:
        """Colors of the members inside the subset with mask m, in lex order."""
        return [c for sm, c in zip(self.masks, self.colors) if sm & ~m == 0]


def find(
    property: str,
    f: Coloring,
    ground: Iterable[int],
    min_size: int,
    universe: Iterable[int] | None = None,
) -> Witness | None:
    """Smallest (by size, then lex) subset of the ground set of at least
    min_size that verifies the property; None when the search exhausts.
    Every property is handed ``universe``, by default the colors used on
    the ground front; only thin reads it.

    Colors every member of the ground front, so a partial table raises
    even where a witness avoids its gaps; grounds with more than
    MAX_GROUND base elements raise ValueError."""
    if min_size < 0:
        raise ValueError(f"min_size must be >= 0, got {_clip(min_size)}")
    index = FrontIndex(f, ground)
    universe = set(index.colors if universe is None else universe)
    clean = index.all & ~index.violations(property, universe)
    m = next(in_order(clean, index.layers[min_size:]), None)
    if m is None:
        return None
    h, image = index.subset(m), index.colors_inside(m)
    if property == "mono":
        return Witness(h, "mono", image[0] if image else None)
    if property == "thin":
        return Witness(h, "thin", min(c for c in universe if c not in image))
    return Witness(h, property)
