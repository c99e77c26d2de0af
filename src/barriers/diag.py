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

Stage replays depend only on min(stage) and the family, so they are cached by
the minimum, and the defeat search inspects one canonical (lex-least) stage of
at most :data:`MAX_STAGE_COORDS` coordinates per admissible minimum.

A replay yields small labels: thin colors, or rainbow owners.  The rainbow
color <o, stage> = pair(o, code_seq(stage)) of owner o has about twice the
bits of the stage code, which doubles with every coordinate (0.9 Mbit at 17
coordinates), so it is built only when a color is asked for as a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .barrier import (
    BarrierSpec,
    Canonical,
    ExactSize,
    InternalInvariantError,
    Product,
    step,
)
from .coloring import Coloring
from .ordinals import Ordinal
from .seqs import GroundSet, Seq, as_seq

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
    """Injective code of a finite sequence: a length tag paired with the
    right fold of the coordinates."""
    payload = 0
    for x in reversed(s):
        payload = pair(x, payload)
    return pair(len(s), payload)


# --- oracle families --------------------------------------------------------


@dataclass(frozen=True)
class OracleEntry:
    e: int
    members: GroundSet  # declared infinite at the meaning level
    delay: int = 0

    def __post_init__(self) -> None:
        if self.e < 0 or self.delay < 0:
            raise ValueError("index and delay must be naturals")


@dataclass(frozen=True)
class OracleFamily:
    entries: tuple[OracleEntry, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for entry in self.entries:
            if entry.e in seen:
                raise ValueError(f"duplicate oracle index {entry.e}")
            seen.add(entry.e)

    def get(self, e: int) -> OracleEntry | None:
        for entry in self.entries:
            if entry.e == e:
                return entry
        return None

    def _correct_entry(self, e: int, stage: Seq) -> OracleEntry | None:
        """Entry e if the approximation at this stage is correct for it:
        min(stage) passes the entry's delay."""
        entry = self.get(e)
        return entry if entry is not None and stage and stage[0] > entry.delay else None

    def g(self, e: int, x: int, stage: Seq) -> int:
        """Total {0,1} approximation: correct once min(stage) passes the
        entry's delay, 0 in every other situation."""
        entry = self._correct_entry(e, stage)
        return int(entry is not None and x in entry.members)


def _positives(fam: OracleFamily, e: int, stage: Seq) -> tuple[int, ...]:
    """The numbers x < min(stage) with g(e, x, stage) = 1, in order, read
    off the entry once."""
    entry = fam._correct_entry(e, stage)
    return () if entry is None else entry.members.elements_below(stage[0])


def f_approx(fam: OracleFamily, e: int, i: int, stage: Seq) -> tuple[int, ...] | None:
    """Stage approximation of the finite set attacked at substage (e, i):
    the first pair(e,i)+1 numbers x < min(stage) with g(e,x,stage) = 1, or
    None when fewer exist."""
    if not stage:
        return None
    need = pair(e, i) + 1
    xs = _positives(fam, e, stage)
    return tuple(xs[:need]) if len(xs) >= need else None


# --- staged colorings --------------------------------------------------------


def _thin_stage(fam: OracleFamily, stage: Seq) -> dict[int, int]:
    """Replay the thin-defeating substage loop at one stage.

    Substages 0..min(stage)-1 are read as pair codes (e, i); a substage with
    a defined approximation claims its least still-uncolored member and
    colors it i.  The closing substage colors everything left with 1.  The
    approximation at substage u = pair(e, i) is the first u + 1 numbers of
    entry e's positives below min(stage) (:func:`f_approx`), which are read
    once per entry.
    """
    s1 = stage[0]
    positives: dict[int, tuple[int, ...]] = {}
    colors: dict[int, int] = {}
    for u in range(s1):
        e, i = unpair(u)
        if e not in positives:
            positives[e] = _positives(fam, e, stage)
        approx = positives[e][: u + 1]
        if len(approx) <= u:
            continue
        free = [m for m in approx if m not in colors]
        if free:
            colors[free[0]] = i
    for m in range(s1):
        colors.setdefault(m, 1)
    return colors


def _rainbow_stage(fam: OracleFamily, stage: Seq) -> dict[int, int]:
    """Replay the rainbow-defeating substage loop at one stage, as owners.

    Substage e claims the two least unclaimed numbers below min(stage) that
    the e-th approximation puts in X_e; the smaller one m owns both, and
    both get the color <m, stage>.  The closing substage lets every
    remaining l own itself.  Each stage's codes are fresh, so the whole
    coloring is 2-bounded.
    """
    s1 = stage[0]
    owner: dict[int, int] = {}
    for e in range(s1):
        cands = [x for x in _positives(fam, e, stage) if x not in owner]
        if len(cands) >= 2:
            owner[cands[0]] = owner[cands[1]] = cands[0]
    return {l: owner.get(l, l) for l in range(s1)}


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
        self._codes: dict[Seq, int] = {}  # stage -> code_seq(stage), rainbow only
        barrier = Product(ExactSize(1), Canonical(alpha))
        super().__init__(
            barrier,
            lambda ms: list(map(self._eval, ms)),
            name=f"{kind}-defeater",
            declared_bound=2 if kind == "rainbow" else None,
        )

    def _replay(self, stage: Seq) -> dict[int, int]:
        """m -> thin color or rainbow owner for m < min(stage); a replay is a
        pure function of (min(stage), family)."""
        if stage[0] not in self._cache:
            replay = _thin_stage if self.kind == "thin" else _rainbow_stage
            self._cache[stage[0]] = replay(self.family, stage)
        return self._cache[stage[0]]

    def _code(self, stage: Seq) -> int:
        """code_seq(stage), built once per stage for every color asked of it."""
        if stage not in self._codes:
            self._codes[stage] = code_seq(stage)
        return self._codes[stage]

    def stage_colors(self, stage: Iterable[int]) -> dict[int, int]:
        """All colors assigned at one stage: m -> f(m, stage) for m < min.

        A rainbow color is <owner, stage> = pair(owner, C) for the stage
        code C, which equals pair(0, C) + owner*C + owner(owner+1)/2 + owner:
        C is squared once, and each color costs one small multiply.
        """
        key = as_seq(stage)
        if not key:
            raise ValueError("stage must be nonempty")
        labels = self._replay(key)
        if self.kind == "thin":
            return labels
        code = self._code(key)
        base = pair(0, code)
        return {m: base + o * code + o * (o + 1) // 2 + o for m, o in labels.items()}

    def _eval(self, s: Seq) -> int:
        label = self._replay(s[1:])[s[0]]
        return label if self.kind == "thin" else pair(label, self._code(s[1:]))


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


def _stages(alpha: Ordinal, entry: OracleEntry, bound: int) -> Iterator[Seq]:
    """Canonical stages inside the entry's set: for each admissible minimum
    m0 with delay < m0 < bound, the lex-least member of the canonical barrier
    starting at m0 and drawn from the set.  Replays depend on the minimum
    only, so one stage per minimum is exhaustive for defeat search.  A stage
    still undecided after MAX_STAGE_COORDS coordinates raises ValueError."""
    spec: BarrierSpec = Canonical(alpha)
    for m0 in entry.members.elements():
        if m0 >= bound:
            break
        if m0 <= entry.delay:
            continue
        coords = entry.members.stream_from(m0)
        stage = step(spec, islice(coords, MAX_STAGE_COORDS))
        if stage is None:
            if next(coords, None) is not None:
                raise ValueError(
                    f"the stage from {m0} has more than {MAX_STAGE_COORDS} coordinates; "
                    "stages are limited to that many"
                )
            return  # finite declared set ran out
        yield stage


def _defeat_search(
    col: StagedColoring,
    kind: str,
    e: int,
    bound: int,
    hit: Callable[[tuple[int, ...], dict[int, int]], tuple | None],
    need: Callable[[], int],
) -> DefeatResult:
    """The search of both defeat checks.  At each stage of :func:`_stages`,
    ``hit`` reads the replay's labels at xs, the numbers of X_e below
    min(stage) (every stage passes the delay, so these are the entry's
    positives), and returns the defeating numbers or None.  The replay of a
    stage with at least ``need()`` of them plants a defeat, so coming up
    empty there is a bug.  ``need`` is called only at a stage that comes up
    empty, so a count it cannot form (a negative i) raises only there."""
    if col.kind != kind:
        raise ValueError(f"{kind} defeat check needs a {kind} defeater")
    entry = col.family.get(e)
    if entry is None:
        return DefeatResult(None, "no-oracle-entry")
    for stage in _stages(col.alpha, entry, bound):
        xs = entry.members.elements_below(stage[0])
        found = hit(xs, col._replay(stage))
        if found is not None:
            return DefeatResult((*found, stage), "ok")
        if len(xs) >= need():
            raise InternalInvariantError(f"BUG: no {kind} defeat of X_{e} at the covered stage from {stage[0]}")
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
