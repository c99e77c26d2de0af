"""Finite increasing sequences of naturals and decidable ground sets.

Sequences are plain tuples of ints, strictly increasing; the empty tuple is
allowed.  A :class:`GroundSet` is an explicit finite prefix plus an optional
infinite arithmetic-progression tail, so membership stays decidable while the
set can stand in for an infinite subset of the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, dropwhile, takewhile
from typing import Any, Iterable, Iterator

Seq = tuple[int, ...]

__all__ = [
    "Seq",
    "as_int",
    "as_seq",
    "seq_minus",
    "insert_sorted",
    "Tail",
    "GroundSet",
]


def _clip(value: Any) -> str:
    """repr(value) for an error line, cut to 60 characters: the value may be
    a whole document, and a line may echo it twice."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def as_int(value: Any, what: str, least: int | None = None) -> int:
    """``value`` if its type is ``int`` (so a ``bool`` is refused) and it is
    at least ``least`` when that is given; otherwise ValueError naming it
    as ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {_clip(value)}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {_clip(value)}")
    return value


def as_seq(values: Iterable[int]) -> Seq:
    """Validate and normalize to a strictly increasing tuple of naturals.
    The first bad entry is named; entries are integers as in :func:`as_int`."""
    s = tuple(values)
    for i, x in enumerate(s):
        if type(x) is not int:
            raise ValueError(f"a sequence element must be an integer, got {_clip(x)}")
        if x < 0:
            raise ValueError(f"sequence entries must be naturals, got {_clip(x)}")
        if i > 0 and s[i - 1] >= x:
            raise ValueError(f"sequence must be strictly increasing, got {_clip(s)}")
    return s


def seq_minus(s: Seq) -> Seq:
    """Drop the last coordinate, then shift the rest down by one.

    Requires a nonempty sequence with min >= 1.
    """
    if not s:
        raise ValueError("seq_minus of the empty sequence")
    if s[0] < 1:
        raise ValueError(f"seq_minus needs min >= 1, got {s}")
    return tuple(x - 1 for x in s[:-1])


def insert_sorted(s: Seq, k: int) -> Seq:
    """Insert k into an increasing sequence; k must not be present."""
    if k in s:
        raise ValueError(f"{_clip(k)} already occurs in {_clip(s)}")
    return tuple(sorted(s + (k,)))


@dataclass(frozen=True)
class Tail:
    """Arithmetic progression start, start+step, start+2*step, ..."""

    start: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.step < 1:
            raise ValueError(f"bad tail {_clip(self.start)}/{_clip(self.step)}")

    def __contains__(self, x: int) -> bool:
        return x >= self.start and (x - self.start) % self.step == 0


@dataclass(frozen=True)
class GroundSet:
    """Finite prefix plus optional infinite arithmetic tail."""

    prefix: tuple[int, ...] = ()
    tail: Tail | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", as_seq(self.prefix))
        if self.tail is not None and self.prefix and self.tail.start <= self.prefix[-1]:
            raise ValueError("tail must start strictly above the prefix")

    @classmethod
    def of(cls, values: Iterable[int]) -> "GroundSet":
        return cls(prefix=tuple(sorted(set(values))))

    @property
    def is_finite(self) -> bool:
        return self.tail is None

    def __contains__(self, x: int) -> bool:
        return x in self.prefix or (self.tail is not None and x in self.tail)

    def elements(self) -> Iterator[int]:
        """All members in increasing order; infinite when there is a tail."""
        if self.tail is None:
            return iter(self.prefix)
        return chain(self.prefix, count(self.tail.start, self.tail.step))

    def elements_below(self, stop: int) -> tuple[int, ...]:
        return tuple(takewhile(stop.__gt__, self.elements()))

    def stream_from(self, lo: int) -> Iterator[int]:
        """Members >= lo in increasing order."""
        return dropwhile(lo.__gt__, self.elements())
