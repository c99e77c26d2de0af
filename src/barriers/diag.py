"""Stage-based diagonalizing colorings against mock limit oracles.

An :class:`OracleFamily` stands in for a family of approximated sets: entry e
declares a decidable set X_e and a delay d_e, and the approximation
``g(e, x, stage)`` answers membership of x in X_e correctly whenever
min(stage) > d_e, and 0 otherwise.  This delay model realizes exactly the two
properties the defeating constructions consume: the approximation is total
and {0,1}-valued, and along the barrier there are stages with arbitrarily
large minimum on which it is correct below any threshold.

The defeating colorings live on the product of the singleton barrier with a
canonical barrier: a member is (m) + stage with m < min(stage), and the color
of (m, stage) is computed by replaying a deterministic substage loop at that
stage.  The thin defeater plants every color i on each declared-infinite set;
the rainbow defeater plants color collisions inside each declared set while
staying 2-bounded overall.

Stage replays depend only on min(stage) and the family, so they take the
minimum and are cached by it.  The defeat search replays each admissible
minimum from which the declared set holds a stage, and builds the canonical
(lex-least) stage of at most :data:`MAX_STAGE_COORDS` coordinates only at
its hit.  A finite set's minima with a stage come first, so a gallop and a
bisection find where they end.

A replay yields small labels: thin colors, or rainbow owners.  The rainbow
color <o, stage> of owner o is pair(o, code_seq(stage)), where the stage
code has max(stage) + 1 bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, takewhile
from typing import Callable, Iterable, Sequence

from .barrier import Canonical, ExactSize, InternalInvariantError, Product, step
from .coloring import Coloring
from .ordinals import Ordinal
from .seqs import GroundSet, Seq, _clip, as_seq

__all__ = [
    "pair",
    "unpair",
    "code_seq",
    "OracleEntry",
    "OracleFamily",
    "f_approx",
    "StagedColoring",
    "DefeatResult",
    "MAX_STAGE_COORDS",
    "MAX_DEFEAT_BOUND",
    "verify_defeat_thin",
    "verify_defeat_rainbow",
]


# --- pairing and sequence codes -------------------------------------------


def pair(a: int, b: int) -> int:
    """Cantor-style pairing, enumerating the diagonal a + b = w as
    (0,w), (1,w-1), ..., (w,0); so pair(0,0)=0, pair(0,1)=1, pair(1,0)=2."""
    if a < 0 or b < 0:
        raise ValueError("pair needs naturals")
    w = a + b
    return w * (w + 1) // 2 + a


def unpair(z: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    if z < 0:
        raise ValueError("unpair needs a natural")
    w = (math.isqrt(8 * z + 1) - 1) // 2  # the largest w with w(w+1)/2 <= z
    a = z - w * (w + 1) // 2
    return a, w - a


def code_seq(s: Seq) -> int:
    """Injective code of a strictly increasing sequence: the canonical index
    of its set, sum(1 << x), of max(s) + 1 bits.  PAPER.md holds only the
    abstract, so the paper's <m, stage> may code stages otherwise; any
    injective stage code gives the same defeats and the same 2-boundedness."""
    return sum(1 << x for x in s)


# --- oracle families --------------------------------------------------------


@dataclass(frozen=True)
class OracleEntry:
    e: int
    members: GroundSet  # declared infinite at the meaning level
    delay: int = 0

    def __post_init__(self) -> None:
        for field, value in (("e", self.e), ("delay", self.delay)):
            if value < 0:
                raise ValueError(f"entry {field} must be a natural number, got {_clip(value)}")


@dataclass(frozen=True)
class OracleFamily:
    entries: tuple[OracleEntry, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for entry in self.entries:
            if entry.e in seen:
                raise ValueError(f"duplicate oracle index {_clip(entry.e)}")
            seen.add(entry.e)

    def get(self, e: int) -> OracleEntry | None:
        for entry in self.entries:
            if entry.e == e:
                return entry
        return None

    def g(self, e: int, x: int, stage: Seq) -> int:
        """Total {0,1} approximation: correct once min(stage) passes the
        entry's delay, 0 in every other situation."""
        entry = self.get(e)
        return int(bool(stage) and entry is not None and stage[0] > entry.delay and x in entry.members)


def _positives(fam: OracleFamily, e: int, m0: int) -> tuple[int, ...]:
    """The numbers x < m0 with g(e, x, stage) = 1 at a stage of minimum m0,
    in order, read off the entry once."""
    entry = fam.get(e)
    return () if entry is None or m0 <= entry.delay else entry.members.elements_below(m0)


def f_approx(fam: OracleFamily, e: int, i: int, stage: Seq) -> tuple[int, ...] | None:
    """Stage approximation of the finite set attacked at substage (e, i):
    the first pair(e,i)+1 numbers x < min(stage) with g(e,x,stage) = 1, or
    None when fewer exist."""
    if not stage:
        return None
    need = pair(e, i) + 1
    xs = _positives(fam, e, stage[0])
    return tuple(xs[:need]) if len(xs) >= need else None


# --- staged colorings --------------------------------------------------------


def _thin_stage(fam: OracleFamily, m0: int) -> dict[int, int]:
    """Replay the thin-defeating substage loop at a stage of minimum m0.

    Substages 0..m0-1 are read as pair codes (e, i); a substage with
    a defined approximation claims its least still-uncolored member and
    colors it i.  The closing substage colors everything left with 1.  The
    approximation at substage u = pair(e, i) is the first u + 1 numbers of
    entry e's positives below m0 (:func:`f_approx`), which are read once
    per entry.
    """
    positives: dict[int, tuple[int, ...]] = {}
    colors: dict[int, int] = {}
    for u in range(m0):
        e, i = unpair(u)
        if e not in positives:
            positives[e] = _positives(fam, e, m0)
        approx = positives[e][: u + 1]
        if len(approx) <= u:
            continue
        free = [m for m in approx if m not in colors]
        if free:
            colors[free[0]] = i
    for m in range(m0):
        colors.setdefault(m, 1)
    return colors


def _rainbow_stage(fam: OracleFamily, m0: int) -> dict[int, int]:
    """Replay the rainbow-defeating substage loop at a stage of minimum m0,
    as owners.

    Substage e claims the two least unclaimed numbers below m0 that
    the e-th approximation puts in X_e; the smaller one m owns both, and
    both get the color <m, stage>.  The closing substage lets every
    remaining l own itself.  Each stage's codes are fresh, so the whole
    coloring is 2-bounded.
    """
    owner: dict[int, int] = {}
    for e in range(m0):
        cands = [x for x in _positives(fam, e, m0) if x not in owner]
        if len(cands) >= 2:
            owner[cands[0]] = owner[cands[1]] = cands[0]
    return {l: owner.get(l, l) for l in range(m0)}


class StagedColoring(Coloring):
    """Coloring of Product(ExactSize(1), Canonical(alpha)) evaluated by a
    per-stage replay; members are (m) + stage with m < min(stage).  The
    "thin" kind plants every color on every declared-infinite set; the
    "rainbow" kind is 2-bounded, with a planted collision inside every
    declared set."""

    def __init__(self, kind: str, alpha: Ordinal, family: OracleFamily):
        if kind not in ("thin", "rainbow"):
            raise ValueError(f"unknown defeater kind {kind!r}")
        if not alpha.terms:
            raise ValueError("alpha must be at least 1")
        self.kind = kind
        self.alpha = alpha
        self.family = family
        self._cache: dict[int, dict[int, int]] = {}  # min(stage) -> labels
        barrier = Product(ExactSize(1), Canonical(alpha))
        super().__init__(
            barrier,
            self._batch,
            name=f"{kind}-defeater",
            declared_bound=2 if kind == "rainbow" else None,
        )

    def _replay(self, m0: int) -> dict[int, int]:
        """m -> thin color or rainbow owner for m < m0 at a stage of minimum
        m0; a replay is a pure function of (m0, family)."""
        if m0 not in self._cache:
            replay = _thin_stage if self.kind == "thin" else _rainbow_stage
            self._cache[m0] = replay(self.family, m0)
        return self._cache[m0]

    def _colors(self, stage: Seq, ms: Iterable[int]) -> dict[int, int]:
        """m -> f(m, stage) for the asked m < min(stage) of a nonempty stage,
        in a fresh dict: the one place a color is formed.  A rainbow color
        is <owner, stage> = pair(owner, code_seq(stage)).
        """
        labels = self._replay(stage[0])
        asked = {m: labels[m] for m in ms}
        if self.kind == "thin":
            return asked
        code = code_seq(stage)
        return {m: pair(o, code) for m, o in asked.items()}

    def stage_colors(self, stage: Iterable[int]) -> dict[int, int]:
        """All colors assigned at one stage: m -> f(m, stage) for m < min."""
        key = as_seq(stage)
        if not key:
            raise ValueError("stage must be nonempty")
        return self._colors(key, range(key[0]))

    def _batch(self, members: Sequence[Seq]) -> list[int]:
        """The members' colors, from one `_colors` call per distinct stage."""
        asked: dict[Seq, list[int]] = {}
        for s in members:
            asked.setdefault(s[1:], []).append(s[0])
        colors = {stage: self._colors(stage, ms) for stage, ms in asked.items()}
        return [colors[s[1:]][s[0]] for s in members]


# --- defeat verification ------------------------------------------------------


@dataclass(frozen=True)
class DefeatResult:
    found: tuple | None
    reason: str  # "ok" | "bound-too-small" | "no-oracle-entry"; a broken guarantee raises

    @property
    def ok(self) -> bool:
        return self.found is not None

    def to_json(self) -> dict:
        if self.found is None:
            return {"found": None, "reason": self.reason}
        *nums, stage = self.found
        return {"found": {"numbers": list(nums), "stage": list(stage)}, "reason": self.reason}


MAX_STAGE_COORDS = 1 << 16  # coordinates of the declared set read per stage
MAX_DEFEAT_BOUND = 1 << 10  # cap on a defeat search's bound: one replay per minimum below it, each quadratic in the minimum


def _stage(alpha: Ordinal, entry: OracleEntry, m0: int) -> Seq | None:
    """The canonical stage from m0 inside the entry's set: the lex-least
    member of the canonical barrier starting at m0 and drawn from the set,
    or None when a finite set runs out first.  A stage still undecided
    after MAX_STAGE_COORDS coordinates raises ValueError."""
    coords = entry.members.stream_from(m0)
    stage = step(Canonical(alpha), islice(coords, MAX_STAGE_COORDS))
    if stage is None and next(coords, None) is not None:
        raise ValueError(
            f"the stage from {m0} has more than {MAX_STAGE_COORDS} coordinates; "
            "stages are limited to that many"
        )
    return stage


def _with_stages(alpha: Ordinal, entry: OracleEntry, minima: list[int]) -> int:
    """How many of the increasing minima have a stage in the entry's set.

    A set with a tail has one from every minimum.  A finite set with a stage
    t from m0 has one from every smaller minimum m: else its run from m,
    continued past the set, would start a barrier member holding t as a
    proper subset.  So the minima with a stage come first, and a gallop
    from the front (indices 0, 1, 3, 7, ...) and a bisection find their end
    in O(log n) stages, the short early ones first.  A stage past the cap
    counts as one: the set was not seen to run out there."""
    if not entry.members.is_finite:
        return len(minima)

    def runs_out(m0: int) -> bool:
        try:
            return _stage(alpha, entry, m0) is None
        except ValueError:
            return False

    hi = 1
    while hi <= len(minima) and not runs_out(minima[hi - 1]):
        hi *= 2
    return bisect_left(minima, True, hi // 2, min(hi - 1, len(minima)), key=runs_out)


def _defeat_search(
    col: StagedColoring,
    kind: str,
    e: int,
    bound: int,
    hit: Callable[[tuple[int, ...], dict[int, int]], tuple | None],
    need: Callable[[], int],
) -> DefeatResult:
    """The search of both defeat checks.  At each admissible stage minimum
    m0 (delay < m0 < bound, in X_e), ``hit`` reads the replay's labels at
    xs, the numbers of X_e below m0 (the entry's positives, since m0 passes
    the delay), and returns the defeating numbers or None.  The replay of a
    minimum with at least ``need()`` of them plants a defeat, so coming up
    empty there is a bug.  ``need`` is called only at a minimum that comes
    up empty, so a count it cannot form (a negative i) raises only there.
    A replay reads the minimum alone, so the one stage built is the hit's
    (:func:`_stage`), and the minima stop where the set's stages end
    (:func:`_with_stages`)."""
    if col.kind != kind:
        raise ValueError(f"{kind} defeat check needs a {kind} defeater")
    if bound > MAX_DEFEAT_BOUND:
        raise ValueError(f"the bound of a defeat search is at most {MAX_DEFEAT_BOUND}, got {_clip(bound)}")
    entry = col.family.get(e)
    if entry is None:
        return DefeatResult(None, "no-oracle-entry")
    minima = [m0 for m0 in takewhile(bound.__gt__, entry.members.elements()) if m0 > entry.delay]
    for m0 in minima[: _with_stages(col.alpha, entry, minima)]:
        xs = entry.members.elements_below(m0)
        found = hit(xs, col._replay(m0))
        if found is not None:
            return DefeatResult((*found, _stage(col.alpha, entry, m0)), "ok")
        if len(xs) >= need():
            raise InternalInvariantError(f"BUG: no {kind} defeat of X_{e} at the covered stage from {m0}")
    return DefeatResult(None, "bound-too-small")


def verify_defeat_thin(col: StagedColoring, e: int, i: int, bound: int) -> DefeatResult:
    """Search for m in X_e and a stage inside X_e with f(m, stage) = i.

    The stage minimum is capped by ``bound``; coordinates beyond the minimum
    follow the declared set as far as needed.  A stage with pair(e,i)+1
    numbers of X_e below its minimum defines the approximation of substage
    (e, i) (:func:`f_approx`), whose claim has pair(e,i)+1 candidates and at
    most pair(e,i) earlier claims, so it colors one of them i.
    """

    def hit(xs: tuple[int, ...], colors: dict[int, int]) -> tuple[int] | None:
        return next(((m,) for m in xs if colors[m] == i), None)

    return _defeat_search(col, "thin", e, bound, hit, lambda: pair(e, i) + 1)


def _collision(xs: tuple[int, ...], owner: dict[int, int]) -> tuple[int, int] | None:
    """The least (owner[l], l) with both in xs and owner[l] != l: within a
    stage pair(., code) is injective and an owner claims one l, so this is
    the first colliding pair."""
    inside = set(xs)
    return min(((owner[l], l) for l in xs if owner[l] != l and owner[l] in inside), default=None)


def verify_defeat_rainbow(col: StagedColoring, e: int, bound: int) -> DefeatResult:
    """Search for m < l in X_e and a stage inside X_e with equal colors.

    A stage with 2e+2 numbers of X_e below its minimum plants a collision:
    the first e substages claim at most 2e of them, so substage e finds an
    unclaimed pair.
    """
    return _defeat_search(col, "rainbow", e, bound, _collision, lambda: 2 * e + 2)
