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
2^n-bit integer (a superset-closure, or zeta, pass).  The index walks the
front of the ground set once and calls the coloring once per member; ``find``
and ``check_reduction`` then test one bit per candidate.  Because the bitset
has 2^n bits, both refuse a ground whose base has more than
:data:`MAX_GROUND` elements.

The ``verify_*`` functions restate each property by its definition, one
subset at a time; they are the slow reference the index is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .barrier import MAX_GROUND, capped_base, front, in_base
from .coloring import Coloring

__all__ = [
    "PROPERTIES",
    "Witness",
    "verify_mono",
    "verify_free",
    "verify_thin",
    "verify_rainbow",
    "default_universe",
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
    bad = [x for x in hs if not in_base(f.barrier, x)]
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


def _universe(f: Coloring, used: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(used) | set(f.colors or ())))


def default_universe(f: Coloring, ground: Iterable[int]) -> tuple[int, ...]:
    """Colors used on the ground front plus the coloring's declared palette."""
    return _universe(f, (f(s) for s in front(f.barrier, ground)))


# --- the subset lattice ---------------------------------------------------

def _has(n: int, i: int) -> int:
    """The 2^n-bit set of the masks over range(n) that contain bit i: runs
    of 2^i zeros and 2^i ones, doubled up to 2^n bits."""
    run = 1 << i
    bits = ((1 << run) - 1) << run
    width = 2 * run
    while width < 1 << n:
        bits |= bits << width
        width *= 2
    return bits


class FrontIndex:
    """The front inside a ground set, walked once, with one color per member.

    Keeps the base ``g`` of the ground set, the ``members`` in lex order,
    each member's bitmask over the indices of ``g`` (``masks``) and its
    color (``colors``).  A subset H of ``g`` is named by its mask.  Sets of
    subsets are 2^n-bit integers whose bit H stands for the subset H.
    """

    def __init__(self, f: Coloring, ground: Iterable[int]):
        self.g = capped_base(f.barrier, ground)
        n = len(self.g)
        self.pos = {x: i for i, x in enumerate(self.g)}
        self.members = front(f.barrier, self.g)
        self.masks = [self.mask(s) for s in self.members]
        self.colors = [f(s) for s in self.members]
        self._has = [_has(n, i) for i in range(n)]
        self._all = (1 << (1 << n)) - 1

    def mask(self, xs: Iterable[int]) -> int:
        return sum(1 << self.pos[x] for x in xs)

    def up(self, m: int) -> int:
        """The masks that contain m."""
        out = self._all
        for i, has in enumerate(self._has):
            if m >> i & 1:
                out &= has
        return out

    def _any_up(self, ms: Iterable[int]) -> int:
        out = 0
        for m in ms:
            out |= self.up(m)
        return out

    def violations(self, prop: str, universe: Iterable[int] = ()) -> int:
        """The masks H whose front violates the property; for thin, whose
        image covers the universe.  One color class at a time, so only a few
        2^n-bit integers are alive at once."""
        bad = 0
        if prop == "free":
            for m, c in zip(self.masks, self.colors):
                i = self.pos.get(c)
                if i is not None and not m >> i & 1:
                    bad |= self.up(m | 1 << i)
            return bad
        classes: dict[int, list[int]] = {}
        for m, c in zip(self.masks, self.colors):
            classes.setdefault(c, []).append(m)
        if prop == "thin":
            bad = self._all
            for c in universe:
                bad &= self._any_up(classes.get(c, ()))
            return bad
        seen = 0
        for ms in classes.values():
            if prop == "mono":
                x = self._any_up(ms)
                bad |= seen & x
                seen |= x
            else:  # rainbow
                seen = 0
                for m in ms:
                    x = self.up(m)
                    bad |= seen & x
                    seen |= x
        return bad

    def satisfied(self, prop: str, universe: Iterable[int] = ()) -> Callable[[int], bool]:
        """Test whether the subset with a given mask has the property."""
        table = self.violations(prop, universe).to_bytes(((1 << len(self.g)) + 7) // 8, "little")
        return lambda m: not table[m >> 3] >> (m & 7) & 1

    def solutions(
        self, prop: str, min_size: int, universe: Iterable[int] = ()
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(mask, H) for every subset H of ``g`` with at least min_size
        elements that has the property, by size then lex."""
        ok = self.satisfied(prop, universe)
        bits = [1 << i for i in range(len(self.g))]
        for size in range(min_size, len(bits) + 1):
            for bs, h in zip(combinations(bits, size), combinations(self.g, size)):
                m = sum(bs)
                if ok(m):
                    yield m, h

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

    Colors every member of the ground front, so a partial table raises
    even where a witness avoids its gaps; grounds with more than
    MAX_GROUND base elements raise ValueError."""
    if property not in PROPERTIES:
        raise ValueError(f"unknown property {property!r}")
    index = FrontIndex(f, ground)
    if property != "thin":
        universe = ()
    elif universe is None:
        universe = _universe(f, index.colors)
    else:
        universe = tuple(sorted(set(universe)))
    for m, h in index.solutions(property, min_size, universe):
        image = index.colors_inside(m)
        if property == "mono":
            return Witness(h, "mono", image[0] if image else None)
        if property == "thin":
            return Witness(h, "thin", min(c for c in universe if c not in image))
        return Witness(h, property)
    return None
