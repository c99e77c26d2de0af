"""JSON forms of barrier specs, ground sets, colorings and oracle families.

Barrier specs are tagged constructor trees with ordinals as text; shorthand
strings (``schreier``, ``exact:N``, ``canonical:ORD``) are accepted anywhere
a spec is expected, including inside trees, e.g. ``{"plus": "schreier"}``.
Matching JSON Schemas ship under docs/schemas/.  Decoders raise ValueError
on any malformed shape.
"""

from __future__ import annotations

from typing import Any, Iterator

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
from .coloring import Coloring, builtin_coloring, table_coloring
from .diag import OracleEntry, OracleFamily
from .ordinals import parse_ordinal
from .seqs import GroundSet, Tail, _clip, as_int

__all__ = [
    "spec_to_json",
    "spec_from_shorthand",
    "spec_from_json",
    "ground_to_json",
    "ground_from_json",
    "coloring_from_json",
    "family_from_json",
]


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer", float: "a number",
               bool: "a boolean", type(None): "null"}


def _shape(value: Any, kind: type, what: str) -> Any:
    """value, if it is of the JSON type kind; else ValueError naming the type
    it is, not the value, which may be a whole document."""
    if not isinstance(value, kind):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {got}")
    return value


def _object(value: Any, what: str, required: tuple[str, ...], optional: dict[str, Any] = {}) -> list:
    """The values of an object's required keys, then of its optional keys,
    each missing optional key read as its default.  Any other key, like a
    missing required one, raises ValueError naming it, not the object."""
    for key in _shape(value, dict, what):
        if key not in required and key not in optional:
            raise ValueError(f"{what} takes no key {_clip(key)}, only {', '.join(required + tuple(optional))}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} needs the key {key!r}")
    return [value[key] for key in required] + [value.get(key, d) for key, d in optional.items()]


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
        size = text.split(":", 1)[1]
        if not (size.isascii() and size.isdigit()):
            raise ValueError(f"an exact size is written in the digits 0-9, got {_clip(text)}")
        return ExactSize(int(size))
    if text.startswith("canonical:"):
        return Canonical(parse_ordinal(text.split(":", 1)[1]))
    return None


def spec_from_json(obj: Any) -> BarrierSpec:
    if isinstance(obj, str):
        spec = spec_from_shorthand(obj)
        if spec is None:
            raise ValueError(f"unknown barrier shorthand {_clip(obj)}")
        return spec
    if not isinstance(obj, dict) or len(obj) != 1:
        got = f"{len(obj)} keys" if isinstance(obj, dict) else _JSON_TYPES.get(type(obj), type(obj).__name__)
        raise ValueError(f"a barrier spec is a shorthand string or a one-key object, got {got}")
    (tag, value), = obj.items()
    if tag == "exact":
        return ExactSize(as_int(value, "exact size"))
    if tag == "canonical":
        return Canonical(parse_ordinal(_shape(value, str, "a canonical index")))
    if tag == "product":
        if len(_shape(value, list, "product factors")) != 2:
            raise ValueError(f"a product has two factors, got {len(value)}")
        return make_product(*map(spec_from_json, value))
    if tag == "plus":
        return Plus(spec_from_json(value))
    if tag == "derived":
        inner, n = _object(value, "a derived spec", ("inner", "n"))
        return make_derived(spec_from_json(inner), as_int(n, "derived n"))
    if tag == "restrict":
        inner, base = _object(value, "a restrict spec", ("inner", "base"))
        return make_restrict(spec_from_json(inner), ground_from_json(base))
    raise ValueError(f"unknown barrier constructor {_clip(tag)}")


def ground_to_json(g: GroundSet) -> dict:
    out: dict = {"prefix": list(g.prefix)}
    if g.tail is not None:
        out["tail"] = {"start": g.tail.start, "step": g.tail.step}
    return out


def ground_from_json(obj: Any) -> GroundSet:
    if isinstance(obj, list):
        return GroundSet.of(as_int(x, "a ground element") for x in obj)
    prefix, tail = _object(obj, "a ground set", (), {"prefix": [], "tail": None})
    if tail is not None:
        start, step = _object(tail, "a ground set tail", ("start",), {"step": 1})
        tail = Tail(as_int(start, "tail start"), as_int(step, "tail step"))
    _shape(prefix, list, "a ground set prefix")
    return GroundSet(prefix=tuple(as_int(x, "a ground element") for x in prefix), tail=tail)


def _rows(rows: list) -> Iterator[list]:
    """The rows [seq, color] of a table, each shape checked when reached, so
    :func:`table_coloring`, which checks the pairs, names the first bad row."""
    for row in rows:
        if len(_shape(row, list, "a table row")) != 2:
            raise ValueError(f"a table row must be a [sequence, color] pair, got {_clip(row)}")
        _shape(row[0], list, "a table sequence")
        yield row


def coloring_from_json(barrier: BarrierSpec, obj: Any) -> Coloring:
    """{"table": [[seq, color], ...]} or {"builtin": name, "params": {...}},
    optionally with "bound": k >= 1 declared on either form."""
    if "table" in _shape(obj, dict, "a coloring"):
        rows, bound = _object(obj, "a table coloring", ("table",), {"bound": None})
        f = table_coloring(barrier, _rows(_shape(rows, list, "a coloring table")))
    elif "builtin" in obj:
        name, params, bound = _object(obj, "a builtin coloring", ("builtin",), {"params": {}, "bound": None})
        f = builtin_coloring(barrier, _shape(name, str, "a builtin name"), _shape(params, dict, "builtin params"))
    else:
        raise ValueError(f"a coloring needs a 'table' or a 'builtin' key, got the keys {_clip(list(obj))}")
    if bound is not None:
        f.declared_bound = as_int(bound, "bound", 1)
    return f


def family_from_json(obj: Any) -> OracleFamily:
    entries = []
    for row in _shape(obj, list, "an oracle family"):
        e, members, delay = _object(row, "an oracle family entry", ("e", "set"), {"delay": 0})
        e, delay = as_int(e, "entry e"), as_int(delay, "entry delay")
        entries.append(OracleEntry(e=e, members=ground_from_json(members), delay=delay))
    return OracleFamily(tuple(entries))
