from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from barriers.barrier import Canonical, ExactSize, Plus, Product, Schreier, classify, front
from barriers.cli import main
from barriers.coloring import BUILTIN_COLORINGS, PartialColoringError, table_coloring
from barriers.diag import KINDS
from barriers.jsonio import (
    coloring_from_json,
    family_from_json,
    ground_from_json,
    ground_to_json,
    spec_from_json,
    spec_to_json,
)
from barriers.ordinals import OMEGA
from barriers.seqs import GroundSet, Tail, as_seq
from barriers.solver import PROPERTIES

from conftest import EXTRA_POOL, SPEC_POOL

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name: str):
    return json.loads((SCHEMA_DIR / name).read_text())


@functools.cache
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


@pytest.mark.parametrize("name", sorted(p.name for p in SCHEMA_DIR.glob("*.json")))
def test_every_schema_is_a_valid_schema(name):
    # an invalid schema would make the agreement with the decoders vacuous
    Draft202012Validator.check_schema(load_schema(name))


def test_the_schema_enums_are_the_library_name_tables():
    # a name added to a table and not to its enum, or the reverse, fails here
    report = {b["properties"]["command"]["const"]: b["properties"] for b in load_schema("report.schema.json")["oneOf"]}
    assert report["solve"]["property"]["enum"] == list(PROPERTIES)
    assert report["diag"]["kind"]["enum"] == list(KINDS)
    assert load_schema("coloring.schema.json")["properties"]["builtin"]["enum"] == list(BUILTIN_COLORINGS)


def test_shorthand_specs():
    assert spec_from_json("schreier") == Schreier()
    assert spec_from_json("exact:3") == ExactSize(3)
    assert spec_from_json("canonical:w") == Canonical(OMEGA)
    assert spec_from_json({"plus": "schreier"}) == Plus(Schreier())
    assert spec_from_json({"product": ["exact:1", "schreier"]}) == Product(ExactSize(1), Schreier())
    assert spec_from_json("exact:012") == ExactSize(12)


def test_spec_from_json_rejects_garbage():
    for bad in ("nope", {"exact": 1, "plus": "schreier"}, {"weird": 1}, 42):
        with pytest.raises(ValueError):
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
        ([[1]], "a table row must be a [sequence, color] pair, got [[1]]"),
        ([[1], 0, 0], "a table row must be a [sequence, color] pair, got [[1], 0, 0]"),
        ([[1], -5], "a color must be >= 0, got -5"),
        ([5, 0], "a table sequence must be an array, got an integer"),
        (5, "a table row must be an array, got an integer"),
    ],
    ids=["float", "bool", "bool-element", "string", "short-row", "long-row", "negative-color",
         "non-list-sequence", "non-list-row"],
)
def test_malformed_table_messages(capsys, row, message):
    # The first bad value is named, after good rows and before other bad ones,
    # by the decoder and by the CLI's --coloring alike.
    table = [[[0], 4], row, [[2], 0.5]]
    with pytest.raises(ValueError) as exc:
        coloring_from_json(ExactSize(1), {"table": table})
    assert str(exc.value) == message
    assert _cli_message(capsys, ExactSize(1), table) == message
    if isinstance(row, list) and len(row) == 2 and isinstance(row[0], list):
        # the same entry in a mapping is named by the same message
        with pytest.raises(ValueError) as exc:
            table_coloring(ExactSize(1), {(0,): 4, tuple(row[0]): row[1], (2,): 0.5})
        assert str(exc.value) == message


def _json_table(barrier, table):
    return coloring_from_json(barrier, {"table": [[list(seq), color] for seq, color in table.items()]})


def _cli_message(capsys, barrier, rows) -> str:
    """The one error line of ``solve --coloring`` given the table rows."""
    argv = ["solve", "--property", "mono", "--barrier", json.dumps(spec_to_json(barrier)), "--ground", "0..4",
            "--coloring", json.dumps({"table": rows})]
    code, out = main(argv), capsys.readouterr()
    assert code == 2 and out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1, out
    return out.err.removeprefix("error: ").removesuffix("\n")


def _cli_table(capsys):
    """A decoder like :func:`_json_table` that passes the table to the CLI
    and raises its error line as a ValueError."""

    def decode(barrier, table):
        raise ValueError(_cli_message(capsys, barrier, [[list(seq), color] for seq, color in table.items()]))

    return decode


@pytest.mark.parametrize(
    "key, message",
    [
        ((2, 1), "sequence must be strictly increasing, got (2, 1)"),
        ((1, 1), "sequence must be strictly increasing, got (1, 1)"),
        ((1, -2), "sequence entries must be naturals, got -2"),
        ((-1, 3), "sequence entries must be naturals, got -1"),
        ((1, 2.5), "a sequence element must be an integer, got 2.5"),
        ((1, "2"), "a sequence element must be an integer, got '2'"),
    ],
    ids=["decreasing", "repeated", "negative", "negative-first", "float", "string"],
)
def test_table_key_messages(capsys, key, message):
    # The bad key is named alone, and first after good keys and before
    # other bad ones, by one message in a mapping, in JSON rows and through
    # the CLI's --coloring.
    for table in ({(0, 1): 4, key: 0}, {(0, 1): 4, key: 0, (3, 2): 5}):
        for decode in (table_coloring, _json_table, _cli_table(capsys)):
            with pytest.raises(ValueError) as exc:
                decode(ExactSize(2), table)
            assert str(exc.value) == message
    # the first bad row wins, whatever is wrong with a later one
    for decode in (table_coloring, _json_table, _cli_table(capsys)):
        with pytest.raises(ValueError) as exc:
            decode(ExactSize(2), {(3, 2): 5, key: 0})
        assert str(exc.value) == "sequence must be strictly increasing, got (3, 2)"


@pytest.mark.parametrize("color", [2.9, True, "3"], ids=["float", "bool", "string"])
def test_table_colors_must_be_integers(capsys, color):
    # No color is coerced: int() would make 2.9 a 2, True a 1 and "3" a 3.
    # Every path names the entries in order, each key before its color.
    message = f"a color must be an integer, got {color!r}"
    for decode in (table_coloring, _json_table, _cli_table(capsys)):
        for table in ({(0,): 0, (1,): color, (2,): 0.5}, {(0,): color, (1, 0): 0}):
            with pytest.raises(ValueError) as exc:
                decode(ExactSize(1), table)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            decode(ExactSize(1), {(1, 0): color})
        assert str(exc.value) == "sequence must be strictly increasing, got (1, 0)"


@pytest.mark.parametrize(
    "check",
    [
        lambda: as_seq([0, True]),
        lambda: GroundSet(prefix=(True,)),
        lambda: classify(ExactSize(1), [True]),
        lambda: table_coloring(ExactSize(1), {(True,): 0}),
    ],
    ids=["as_seq", "ground-set", "classify", "table_coloring"],
)
def test_a_bool_is_no_sequence_element(check):
    # True == 1, yet no sequence of the library takes it for one
    with pytest.raises(ValueError, match=r"^a sequence element must be an integer, got True$"):
        check()


def test_table_keeps_the_last_row_of_a_sequence():
    rows = [[[0, 1], 4], [[0, 2], 5], [[0, 1], 6]]
    for f in (coloring_from_json(ExactSize(2), {"table": rows}), table_coloring(ExactSize(2), rows)):
        assert (f((0, 1)), f((0, 2))) == (6, 5)
    with pytest.raises(PartialColoringError):
        coloring_from_json(ExactSize(2), {"table": []})((0, 1))


def test_family_roundtrip():
    data = [{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}, "delay": 0}]
    validator("oracle_family.schema.json").validate(data)
    fam = family_from_json(data)
    assert fam.get(0) is not None and 4 in fam.get(0).members


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
# shorthand text over the characters its grammars read and a few they refuse:
# a tab, a newline, '_' and the Arabic-Indic 2
_SHORTHANDS = st.builds(
    str.__add__, st.sampled_from(["canonical:", "exact:"]), st.text("w0123456789^*+() \t\n\u0662_", max_size=8)
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.floats()  # json.loads accepts NaN and Infinity
    | st.sampled_from(_TEXTS)
    | _SHORTHANDS
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


SCHEMAS = {
    "spec": "barrier_spec.schema.json",
    "ground": "ground_set.schema.json",
    "coloring": "coloring.schema.json",
    "family": "oracle_family.schema.json",
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=200)
@given(obj=JSON_VALUES)
# missing required keys, which random dictionaries seldom produce
@example(obj={"derived": {"n": 2}})
@example(obj={"restrict": {"inner": "schreier"}})
@example(obj={"tail": {"step": 2}})
@example(obj=[{"e": 0}])
# keys and values that the schemas refuse, each once read without a word
@example(obj=[{"e": 0, "set": [1, 2], "dealy": 3}])
@example(obj={"restrict": {"inner": "schreier", "base": {"prefx": [0], "tail": {"start": 2}}}})
@example(obj={"prefix": [0], "tail": {"start": 2, "q": 2}})
@example(obj={"derived": {"inner": "schreier", "n": 1, "x": 1}})
@example(obj={"builtin": "min", "colour": 3})
@example(obj={"table": [[[0], 0]], "builtin": "min"})
@example(obj={"builtin": "min", "bound": 0})
@example(obj={"table": [[[0], -5], [[1], -5]]})
@example(obj={"builtin": "min", "params": 0})
@example(obj="exact:2_0")
@example(obj="canonical:\nw")
def test_decoders_return_or_raise_value_error(name, obj):
    # and a document a decoder takes is one its schema accepts
    try:
        DECODERS[name](obj)
    except ValueError:
        return
    validator(SCHEMAS[name]).validate(obj)


_EXACT = "an exact size is written in the digits 0-9, got "


@pytest.mark.parametrize(
    "name, obj, message",
    [
        # a key the object does not take, named with the keys it takes (more
        # in test_cli.py::test_input_the_schemas_refuse_exits_2)
        ("spec", {"restrict": {"inner": "schreier", "base": {"tail": {"start": 0}}, "n": 1}},
         "a restrict spec takes no key 'n', only inner, base"),
        ("coloring", {"table": [], "params": {}}, "a table coloring takes no key 'params', only table, bound"),
        ("coloring", {"colour": 3}, "a coloring needs a 'table' or a 'builtin' key, got the keys ['colour']"),
        # a missing key, named without the object
        ("ground", {"tail": {"step": 2}}, "a ground set tail needs the key 'start'"),
        ("spec", {"restrict": {"base": [0]}}, "a restrict spec needs the key 'inner'"),
        # values outside the schema's ranges
        ("coloring", {"table": [[[0], 1]], "bound": -1}, "bound must be >= 1, got -1"),
        ("coloring", {"builtin": "rank-div", "params": {"k": 0}}, "builtin param 'k' must be >= 1, got 0"),
        ("coloring", {"builtin": "rank-mod", "params": {"m": -1}}, "builtin param 'm' must be >= 1, got -1"),
        # params are an object (`or {}` once read 0, [], false and null as
        # none) of the keys the builtin reads
        ("coloring", {"builtin": "min", "params": []}, "builtin params must be an object, got an array"),
        ("coloring", {"builtin": "min", "params": False}, "builtin params must be an object, got a boolean"),
        ("coloring", {"builtin": "min", "params": None}, "builtin params must be an object, got null"),
        ("coloring", {"builtin": "rank", "params": {"k": 2}}, "builtin coloring 'rank' reads no param 'k'"),
        ("coloring", {"builtin": 5}, "a builtin name must be a string, got an integer"),
        # int() would read 2_0 as 20, and +2, " 2" and the Arabic-Indic 2 as 2
        ("spec", "exact:+2", _EXACT + "'exact:+2'"),
        ("spec", "exact:\u0662", _EXACT + "'exact:\u0662'"),
        ("spec", "exact:", _EXACT + "'exact:'"),
        # "schreier" is a shorthand only, not a constructor taking a value
        ("spec", {"schreier": {"typo": 1}}, "unknown barrier constructor 'schreier'"),
    ],
    ids=["restrict", "table-params", "no-form", "tail-start",
         "restrict-inner", "bound-negative", "k-0", "m-negative", "params-array", "params-false", "params-null",
         "rank-k", "name-not-a-string", "exact-plus", "exact-arabic-indic", "exact-empty",
         "schreier-object"],
)
def test_a_decoder_names_what_it_refuses(name, obj, message):
    with pytest.raises(ValueError) as exc:
        DECODERS[name](obj)
    assert str(exc.value) == message
