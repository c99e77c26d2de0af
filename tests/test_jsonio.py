from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from barriers.barrier import Canonical, ExactSize, Plus, Product, Schreier, front
from barriers.coloring import PartialColoringError, table_coloring
from barriers.jsonio import (
    coloring_from_json,
    family_from_json,
    family_to_json,
    ground_from_json,
    ground_to_json,
    spec_from_json,
    spec_to_json,
)
from barriers.ordinals import OMEGA
from barriers.seqs import GroundSet, Tail

from conftest import EXTRA_POOL, SPEC_POOL

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name: str):
    return json.loads((SCHEMA_DIR / name).read_text())


def validator(name: str) -> Draft202012Validator:
    resources = [
        (f"barriers/{p.name}", Resource.from_contents(json.loads(p.read_text())))
        for p in SCHEMA_DIR.glob("*.json")
    ]
    registry = Registry().with_resources(resources)
    return Draft202012Validator(load_schema(name), registry=registry)


@pytest.mark.parametrize("name", sorted({**SPEC_POOL, **EXTRA_POOL}))
def test_spec_roundtrip_and_schema(name):
    spec = {**SPEC_POOL, **EXTRA_POOL}[name]
    data = spec_to_json(spec)
    assert spec_from_json(data) == spec
    validator("barrier_spec.schema.json").validate(data)


def test_shorthand_specs():
    assert spec_from_json("schreier") == Schreier()
    assert spec_from_json("exact:3") == ExactSize(3)
    assert spec_from_json("canonical:w") == Canonical(OMEGA)
    assert spec_from_json({"plus": "schreier"}) == Plus(Schreier())
    assert spec_from_json({"product": ["exact:1", "schreier"]}) == Product(ExactSize(1), Schreier())


def test_spec_from_json_rejects_garbage():
    for bad in ("nope", {"exact": 1, "plus": "schreier"}, {"weird": 1}, 42):
        with pytest.raises((ValueError, TypeError)):
            spec_from_json(bad)


def test_ground_roundtrip():
    for g in (GroundSet.of([1, 4, 9]), GroundSet(tail=Tail(0, 2)), GroundSet((1, 3), Tail(10, 5))):
        data = ground_to_json(g)
        assert ground_from_json(data) == g
        validator("ground_set.schema.json").validate(data)
    assert ground_from_json([3, 1]) == GroundSet.of([1, 3])


def test_coloring_from_json():
    spec = ExactSize(1)
    f = coloring_from_json(spec, {"table": [[[0], 4], [[1], 4]], "bound": 2})
    assert f((0,)) == 4 and f.declared_bound == 2
    g = coloring_from_json(spec, {"builtin": "const", "params": {"value": 7}})
    assert g((5,)) == 7
    validator("coloring.schema.json").validate({"table": [[[0], 4]], "bound": 2})
    validator("coloring.schema.json").validate({"builtin": "rank-div", "params": {"k": 2}})
    with pytest.raises(ValueError):
        coloring_from_json(spec, {"nope": 1})


@pytest.mark.parametrize(
    "row, message",
    [
        ([[1], 2.9], "a color must be an integer, got 2.9"),
        ([[1], True], "a color must be an integer, got True"),
        ([[True], 0], "a sequence element must be an integer, got True"),
        ([["2"], 0], "a sequence element must be an integer, got '2'"),
        ([[1]], "not enough values to unpack (expected 2, got 1)"),
        ([[1], 0, 0], "too many values to unpack (expected 2)"),
        ([5, 0], "a table sequence must be an array, got 5"),
        (5, "a table row must be an array, got 5"),
    ],
    ids=["float", "bool", "bool-element", "string", "short-row", "long-row", "non-list-sequence",
         "non-list-row"],
)
def test_malformed_table_messages(row, message):
    # The first bad value is named, after good rows and before other bad ones.
    table = [[[0], 4], row, [[2], 0.5]]
    with pytest.raises(ValueError) as exc:
        coloring_from_json(ExactSize(1), {"table": table})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "key, message",
    [
        ((2, 1), "sequence must be strictly increasing, got (2, 1)"),
        ((1, 1), "sequence must be strictly increasing, got (1, 1)"),
        ((1, -2), "sequence entries must be naturals, got -2"),
        ((-1, 3), "sequence entries must be naturals, got -1"),
        ((1, 2.5), "sequence entries must be naturals, got 2.5"),
        ((1, "2"), "sequence entries must be naturals, got '2'"),
    ],
    ids=["decreasing", "repeated", "negative", "negative-first", "float", "string"],
)
def test_table_key_messages(key, message):
    # The bad key is named alone, and first after good keys and before
    # other bad ones.
    for table in ({(0, 1): 4, key: 0}, {(0, 1): 4, key: 0, (3, 2): 5}):
        with pytest.raises(ValueError) as exc:
            table_coloring(ExactSize(2), table)
        assert str(exc.value) == message


@pytest.mark.parametrize("color", [2.9, True, "3"], ids=["float", "bool", "string"])
def test_table_colors_must_be_integers(color):
    # No color is coerced: int() would make 2.9 a 2, True a 1 and "3" a 3.
    # The message is the JSON path's, and a bad key is still named first.
    message = f"a color must be an integer, got {color!r}"
    with pytest.raises(ValueError) as exc:
        table_coloring(ExactSize(1), {(0,): 0, (1,): color, (2,): 0.5})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        coloring_from_json(ExactSize(1), {"table": [[[0], 0], [[1], color], [[2], 0.5]]})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        table_coloring(ExactSize(1), {(0,): color, (1, 0): 0})
    assert str(exc.value) == "sequence must be strictly increasing, got (1, 0)"


def test_table_keeps_the_last_row_of_a_sequence():
    f = coloring_from_json(ExactSize(2), {"table": [[[0, 1], 4], [[0, 2], 5], [[0, 1], 6]]})
    assert (f((0, 1)), f((0, 2))) == (6, 5)
    with pytest.raises(PartialColoringError):
        coloring_from_json(ExactSize(2), {"table": []})((0, 1))


def test_family_roundtrip():
    fam = family_from_json(
        [{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}, "delay": 0}]
    )
    assert fam.get(0) is not None and 4 in fam.get(0).members
    data = family_to_json(fam)
    assert family_from_json(data) == fam
    validator("oracle_family.schema.json").validate(data)


def test_restrict_spec_with_ground_base_roundtrips():
    data = {
        "restrict": {
            "inner": "schreier",
            "base": {"prefix": [], "tail": {"start": 0, "step": 2}},
        }
    }
    spec = spec_from_json(data)
    assert front(spec, range(7)) == front(Schreier(), (0, 2, 4, 6))
    assert spec_to_json(spec) == data


# --- decoders on arbitrary JSON ---------------------------------------------------

_KEYS = ["exact", "schreier", "canonical", "product", "plus", "derived", "restrict", "inner", "n",
         "base", "prefix", "tail", "start", "step", "table", "builtin", "params", "bound", "value",
         "k", "m", "e", "set", "delay"]
_TEXTS = ["schreier", "exact:2", "exact:x", "canonical:w", "canonical:w^", "const", "rank-div", "min"]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.floats()  # json.loads accepts NaN and Infinity
    | st.sampled_from(_TEXTS)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS + ["", "x"]), inner, max_size=3),
    max_leaves=12,
)

DECODERS = {
    "spec": spec_from_json,
    "ground": ground_from_json,
    "coloring": lambda obj: coloring_from_json(ExactSize(1), obj),
    "family": family_from_json,
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=200)
@given(obj=JSON_VALUES)
# missing required keys, which random dictionaries seldom produce
@example(obj={"derived": {"n": 2}})
@example(obj={"restrict": {"inner": "schreier"}})
@example(obj={"tail": {"step": 2}})
@example(obj=[{"e": 0}])
def test_decoders_return_or_raise_value_error(name, obj):
    try:
        DECODERS[name](obj)
    except ValueError:
        pass
