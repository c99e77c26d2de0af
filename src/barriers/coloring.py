"""Colorings of barrier members.

A coloring assigns a natural number to every member of a barrier that tests
will ever query.  Colorings come from finite tables (raising on anything
outside the table) or from named builtin rules, and may declare a bound k
meaning no color value is taken more than k times; the bound is checked
where it matters, never assumed.

A coloring is one batch function from a sequence of members to their
colors.  A single query is a batch of one, and :meth:`Coloring.colors_of`
colors a whole front in one batch, so a coloring that keeps a table, a rank
order or a memo does the work its members share once.  A call is checked to
be a member of the barrier, whatever the kind of coloring, and raises
ValueError otherwise; a batch trusts its input, since the library hands it
only members.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .barrier import BarrierSpec, _member, front, rank_of
from .seqs import Seq, as_seq

__all__ = [
    "Coloring",
    "PartialColoringError",
    "BoundViolationError",
    "table_coloring",
    "builtin_coloring",
    "BUILTIN_COLORINGS",
    "check_bounded",
]


class PartialColoringError(KeyError):
    """The coloring was queried outside its table."""

    __str__ = Exception.__str__  # the message, not the repr KeyError prints


class BoundViolationError(ValueError):
    """A declared k-bound was violated on a queried front."""


class Coloring:
    def __init__(
        self,
        barrier: BarrierSpec,
        batch: Callable[[Sequence[Seq]], list[int]],
        name: str = "custom",
        declared_bound: int | None = None,
    ):
        self.barrier = barrier
        self.batch = batch  # members -> their colors, in order
        self.name = name
        self.declared_bound = declared_bound

    def __call__(self, s: Iterable[int]) -> int:
        return self.batch((_member(self.barrier, s),))[0]

    def colors_of(self, members: Sequence[Seq]) -> list[int]:
        """The colors of members the library produced, from one ``batch``
        call.  If it raises anything, the members run again as batches of
        one, so the first failing member's error and message win.  Rerunning
        is safe: a coloring's state is a pure function of the instance."""
        try:
            return self.batch(members)
        except Exception:
            return [self.batch((s,))[0] for s in members]

    def __repr__(self) -> str:
        return f"Coloring({self.name!r})"


def table_coloring(
    barrier: BarrierSpec,
    table: Mapping[Seq, int],
    name: str = "table",
    declared_bound: int | None = None,
) -> Coloring:
    fixed = {as_seq(k): v for k, v in table.items()}
    for v in table.values():
        if type(v) is not int:  # bool included, as in the JSON path
            raise ValueError(f"a color must be an integer, got {v!r}")
    return _table_coloring(barrier, fixed, name, declared_bound)


def _table_coloring(
    barrier: BarrierSpec, fixed: dict[Seq, int], name: str, declared_bound: int | None = None
) -> Coloring:
    """The coloring that looks members up in ``fixed``, whose keys are
    sequences and whose values are integers already."""

    def batch(members: Sequence[Seq]) -> list[int]:
        try:
            return list(map(fixed.__getitem__, members))
        except KeyError as exc:
            raise PartialColoringError(f"coloring {name!r} has no value for {exc.args[0]}") from None

    return Coloring(barrier, batch, name=name, declared_bound=declared_bound)


def _rank_coloring(barrier: BarrierSpec, name: str, op: Callable[[int], int], bound: int | None = None) -> Coloring:
    return Coloring(barrier, lambda ms: list(map(op, rank_of(barrier, ms)[1])), name=name, declared_bound=bound)


def _no_end(name: str) -> NoReturn:
    """The rules that read an end of the member are undefined on ()."""
    raise ValueError(f"builtin coloring {name!r} is undefined on the empty member ()")


BUILTIN_COLORINGS = ("const", "min", "max-plus-one", "min-parity", "size", "rank", "rank-div", "rank-mod")


def _int_param(params: Mapping, key: str, default: int | None = None) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"builtin param {key!r} must be an integer, got {value!r}")
    return value


def builtin_coloring(barrier: BarrierSpec, name: str, params: Mapping | None = None) -> Coloring:
    """Named rules: const {value}, min, max-plus-one, min-parity, size,
    rank (injective), rank-div {k} (k-bounded), rank-mod {m}.  Params must
    be integers; anything else raises ValueError."""
    params = dict(params or {})
    if name == "const":
        value = _int_param(params, "value", 0)
        return Coloring(barrier, lambda ms: [value] * len(ms), name=f"const:{value}")
    if name == "min":
        return Coloring(barrier, lambda ms: [s[0] if s else _no_end(name) for s in ms], name="min")
    if name == "max-plus-one":
        return Coloring(barrier, lambda ms: [s[-1] + 1 if s else _no_end(name) for s in ms], name="max-plus-one")
    if name == "min-parity":
        return Coloring(barrier, lambda ms: [s[0] % 2 if s else _no_end(name) for s in ms], name="min-parity")
    if name == "size":
        return Coloring(barrier, lambda ms: list(map(len, ms)), name="size")
    if name == "rank":
        return _rank_coloring(barrier, "rank", int, bound=1)
    if name == "rank-div":
        k = _int_param(params, "k")
        if k < 1:
            raise ValueError("k must be >= 1")
        return _rank_coloring(barrier, f"rank-div:{k}", lambda r: r // k, bound=k)
    if name == "rank-mod":
        m = _int_param(params, "m")
        if m < 1:
            raise ValueError("m must be >= 1")
        return _rank_coloring(barrier, f"rank-mod:{m}", lambda r: r % m)
    raise ValueError(f"unknown builtin coloring {name!r}")


def check_bounded(f: Coloring, ground: Iterable[int]) -> tuple[bool, int]:
    """Check the declared bound on the front inside the ground set.

    Returns (ok, max multiplicity of a color over the front).  A coloring
    with no declared bound is vacuously ok.
    """
    worst = max(Counter(f.colors_of(front(f.barrier, ground))).values(), default=0)
    if f.declared_bound is None:
        return True, worst
    return worst <= f.declared_bound, worst
