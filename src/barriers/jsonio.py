"""JSON forms of barrier specs, ground sets, colorings and oracle families.

Barrier specs are tagged constructor trees with ordinals as text; shorthand
strings (``schreier``, ``exact:N``, ``canonical:ORD``) are accepted anywhere
a spec is expected, including inside trees, e.g. ``{"plus": "schreier"}``.
Matching JSON Schemas ship under docs/schemas/.  Decoders raise ValueError
on any malformed shape.
"""

from __future__ import annotations

from typing import Any

from .barrier import (
    BarrierSpec,
    Canonical,
    Derived,
    ExactSize,
    Plus,
    Product,
    Restrict,
    Schreier,
    make_derived,
    make_product,
    make_restrict,
)
from .coloring import Coloring, _table_coloring, builtin_coloring
from .diag import OracleEntry, OracleFamily
from .ordinals import parse_ordinal
from .seqs import GroundSet, Tail, as_int, as_seq

__all__ = [
    "spec_to_json",
    "spec_from_shorthand",
    "spec_from_json",
    "ground_to_json",
    "ground_from_json",
    "coloring_from_json",
    "family_to_json",
    "family_from_json",
]


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _shape(value: Any, kind: type, what: str) -> Any:
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _field(obj: dict, key: str, what: str) -> Any:
    if key not in obj:
        raise ValueError(f"{what} needs the key {key!r}, got {obj!r}")
    return obj[key]


def spec_to_json(spec: BarrierSpec) -> Any:
    match spec:
        case ExactSize(n):
            return {"exact": n}
        case Schreier():
            return "schreier"
        case Canonical(index):
            return {"canonical": str(index)}
        case Product(left, right):
            return {"product": [spec_to_json(left), spec_to_json(right)]}
        case Plus(inner):
            return {"plus": spec_to_json(inner)}
        case Derived(inner, n):
            return {"derived": {"inner": spec_to_json(inner), "n": n}}
        case Restrict(inner, base):
            return {"restrict": {"inner": spec_to_json(inner), "base": ground_to_json(base)}}
    raise TypeError(f"not a barrier spec: {spec!r}")


def spec_from_shorthand(text: str) -> BarrierSpec | None:
    """The barrier a shorthand names, or None when text has none of the
    shorthand forms ``schreier``, ``exact:N`` and ``canonical:ORD``."""
    if text == "schreier":
        return Schreier()
    if text.startswith("exact:"):
        return ExactSize(int(text.split(":", 1)[1]))
    if text.startswith("canonical:"):
        return Canonical(parse_ordinal(text.split(":", 1)[1]))
    return None


def spec_from_json(obj: Any) -> BarrierSpec:
    if isinstance(obj, str):
        spec = spec_from_shorthand(obj)
        if spec is None:
            raise ValueError(f"unknown barrier shorthand {obj!r}")
        return spec
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"a barrier spec is a shorthand string or a one-key object, got {obj!r}")
    (tag, value), = obj.items()
    if tag == "exact":
        return ExactSize(as_int(value, "exact size"))
    if tag == "schreier":
        return Schreier()
    if tag == "canonical":
        return Canonical(parse_ordinal(_shape(value, str, "a canonical index")))
    if tag == "product":
        left, right = _shape(value, list, "product factors")
        return make_product(spec_from_json(left), spec_from_json(right))
    if tag == "plus":
        return Plus(spec_from_json(value))
    if tag == "derived":
        _shape(value, dict, "a derived spec")
        return make_derived(
            spec_from_json(_field(value, "inner", "a derived spec")),
            as_int(_field(value, "n", "a derived spec"), "derived n"),
        )
    if tag == "restrict":
        _shape(value, dict, "a restrict spec")
        return make_restrict(
            spec_from_json(_field(value, "inner", "a restrict spec")),
            ground_from_json(_field(value, "base", "a restrict spec")),
        )
    raise ValueError(f"unknown barrier constructor {tag!r}")


def ground_to_json(g: GroundSet) -> dict:
    out: dict = {"prefix": list(g.prefix)}
    if g.tail is not None:
        out["tail"] = {"start": g.tail.start, "step": g.tail.step}
    return out


def ground_from_json(obj: Any) -> GroundSet:
    if isinstance(obj, list):
        return GroundSet.of(as_int(x, "a ground element") for x in obj)
    _shape(obj, dict, "a ground set")
    tail = None
    if obj.get("tail") is not None:
        raw = _shape(obj["tail"], dict, "a ground set tail")
        start = as_int(_field(raw, "start", "a ground set tail"), "tail start")
        tail = Tail(start, as_int(raw.get("step", 1), "tail step"))
    prefix = _shape(obj.get("prefix", []), list, "a ground set prefix")
    return GroundSet(prefix=tuple(as_int(x, "a ground element") for x in prefix), tail=tail)


def _table(rows: list) -> dict:
    """The rows [seq, color] of a coloring table as a dict from sequences to
    colors, each row checked in turn as :func:`table_coloring` checks an
    entry: the first bad row is named, its sequence before its color."""
    table = {}
    for row in rows:
        _shape(row, list, "a table row")
        try:
            seq, color = row
        except ValueError:  # a row of another length
            raise ValueError(f"a table row must be a [sequence, color] pair, got {row!r}") from None
        seq = as_seq(_shape(seq, list, "a table sequence"))
        table[seq] = as_int(color, "a color")
    return table


def coloring_from_json(barrier: BarrierSpec, obj: Any) -> Coloring:
    """{"table": [[seq, color], ...]} or {"builtin": name, "params": {...}},
    optionally with "bound": k declared on either form."""
    if not isinstance(obj, dict):
        raise ValueError(f"a coloring is an object, got {obj!r}")
    bound = obj.get("bound")
    bound = as_int(bound, "bound") if bound is not None else None
    if "table" in obj:
        return _table_coloring(barrier, _table(_shape(obj["table"], list, "a coloring table")), "table", bound)
    if "builtin" in obj:
        params = _shape(obj.get("params") or {}, dict, "builtin params")
        f = builtin_coloring(barrier, obj["builtin"], params)
        if bound is not None:
            f.declared_bound = bound
        return f
    raise ValueError("a coloring needs a 'table' or a 'builtin' key")


def family_to_json(fam: OracleFamily) -> list:
    return [
        {"e": entry.e, "set": ground_to_json(entry.members), "delay": entry.delay}
        for entry in fam.entries
    ]


def family_from_json(obj: Any) -> OracleFamily:
    entries = []
    for row in _shape(obj, list, "an oracle family"):
        _shape(row, dict, "an oracle family entry")
        e = as_int(_field(row, "e", "an oracle family entry"), "entry e")
        delay = as_int(row.get("delay", 0), "entry delay")
        members = ground_from_json(_field(row, "set", "an oracle family entry"))
        entries.append(OracleEntry(e=e, members=members, delay=delay))
    return OracleFamily(tuple(entries))
