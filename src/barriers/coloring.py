"""Colorings of barrier members.

A coloring assigns a natural number to every member of a barrier that tests
will ever query.  Colorings come from finite tables (raising on anything
outside the table) or from named builtin rules, and may declare a bound k
meaning no color value is taken more than k times; the bound is checked
where it matters, never assumed.

A coloring answers one member at a time through its ``rule``, and a whole
front at once through :meth:`Coloring.colors_of`, which a coloring that keeps
a table, a rank order or a memo answers with its shared work done once.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .barrier import BarrierSpec, enum_rank, front, rank_of
from .seqs import Seq, as_seq

__all__ = [
    "Coloring",
    "PartialColoringError",
    "BoundViolationError",
    "table_coloring",
    "builtin_coloring",
    "BUILTIN_COLORINGS",
    "color_usage",
    "check_bounded",
]


class PartialColoringError(KeyError):
    """The coloring was queried outside its table."""


class BoundViolationError(ValueError):
    """A declared k-bound was violated on a queried front."""


class Coloring:
    def __init__(
        self,
        barrier: BarrierSpec,
        rule: Callable[[Seq], int],
        name: str = "custom",
        declared_bound: int | None = None,
        colors: tuple[int, ...] | None = None,
        bulk: Callable[[Sequence[Seq]], list[int]] | None = None,
    ):
        self.barrier = barrier
        self.rule = rule
        self.name = name
        self.declared_bound = declared_bound
        self.colors = colors  # optional declared color universe
        self.bulk = bulk

    def __call__(self, s: Iterable[int]) -> int:
        return self.rule(as_seq(s))

    def colors_of(self, members: Sequence[Seq]) -> list[int]:
        """``[self.rule(s) for s in members]``, for members the library
        produced.  A ``bulk`` rule may compute the list with the work the
        members share done once; if it raises anything, the per-member loop
        runs instead, so the first error and its message are the rule's.
        Rerunning is safe: a coloring's state is a pure function of the
        instance."""
        if self.bulk is not None:
            try:
                return self.bulk(members)
            except Exception:
                pass
        return list(map(self.rule, members))

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

    def rule(s: Seq) -> int:
        try:
            return fixed[s]
        except KeyError:
            raise PartialColoringError(f"coloring {name!r} has no value for {s}")

    return Coloring(
        barrier, rule, name=name, declared_bound=declared_bound, bulk=lambda ms: list(map(fixed.__getitem__, ms))
    )


def _rank_coloring(barrier: BarrierSpec, name: str, op: Callable[[int], int], bound: int | None = None) -> Coloring:
    return Coloring(
        barrier,
        lambda s: op(enum_rank(barrier, s)),
        name=name,
        declared_bound=bound,
        bulk=lambda ms: list(map(op, rank_of(barrier, ms)[1])),
    )


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
        return Coloring(barrier, lambda s: value, name=f"const:{value}")
    if name == "min":
        return Coloring(barrier, lambda s: s[0] if s else _no_end(name), name="min")
    if name == "max-plus-one":
        return Coloring(barrier, lambda s: s[-1] + 1 if s else _no_end(name), name="max-plus-one")
    if name == "min-parity":
        return Coloring(barrier, lambda s: s[0] % 2 if s else _no_end(name), name="min-parity")
    if name == "size":
        return Coloring(barrier, lambda s: len(s), name="size")
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


def color_usage(f: Coloring, ground: Iterable[int]) -> Counter:
    """Multiplicity of each color over the front inside the ground set."""
    return Counter(f(s) for s in front(f.barrier, ground))


def check_bounded(f: Coloring, ground: Iterable[int]) -> tuple[bool, int]:
    """Check the declared bound on the front inside the ground set.

    Returns (ok, max multiplicity).  A coloring with no declared bound is
    vacuously ok.
    """
    usage = color_usage(f, ground)
    worst = max(usage.values(), default=0)
    if f.declared_bound is None:
        return True, worst
    return worst <= f.declared_bound, worst
