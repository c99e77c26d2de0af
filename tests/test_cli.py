from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from barriers import cli, diag
from barriers.cli import main, parse_ground_arg
from barriers.coloring import BUILTIN_COLORINGS
from barriers.jsonio import spec_to_json
from barriers.reduction import REDUCTIONS
from barriers.solver import PROPERTIES

from conftest import SPEC_POOL

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def report_validator() -> Draft202012Validator:
    resources = [
        (f"barriers/{p.name}", Resource.from_contents(json.loads(p.read_text())))
        for p in SCHEMA_DIR.glob("*.json")
    ]
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
    return Draft202012Validator(schema, registry=registry)


VALIDATOR = report_validator()


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    VALIDATOR.validate(report)
    return code, report


def _usage_error(capsys, argv) -> str:
    """Run argv, which must exit 2 with one stderr line and nothing on stdout."""
    assert main(argv) == 2, argv
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1, (argv, out)
    return out.err


def test_ground_ranges_are_half_open():
    assert parse_ground_arg("0..6") == (0, 1, 2, 3, 4, 5)
    assert parse_ground_arg("4,1,9") == (1, 4, 9)


def test_front_command(capsys):
    code, report = run_json(capsys, "front", "--barrier", "schreier", "--ground", "0..6")
    assert code == 0 and report["count"] == 8


def test_ordertype_command(capsys):
    code, out = run(capsys, "ordertype", "--barrier", '{"plus":"schreier"}')
    assert code == 0 and out.strip() == "w^w"
    code, report = run_json(capsys, "ordertype", "--barrier", "canonical:w^2")
    assert report["order_type"] == "w^(w^2)"


def test_check_command(capsys):
    code, report = run_json(capsys, "check", "--barrier", "canonical:w", "--ground", "0..11")
    assert code == 0
    assert report["sperner_ok"] is True
    assert report["density"]["violations"] == []


def test_variant_command(capsys):
    code, report = run_json(
        capsys, "variant", "--barrier", "schreier", "--seq", "2,4,5", "--k", "3"
    )
    assert code == 0 and report["variant"] == [2, 3, 4]


def test_solve_command(capsys):
    coloring = json.dumps({"table": [[[x], x % 2] for x in range(6)]})
    code, report = run_json(
        capsys,
        "solve", "--property", "mono", "--barrier", "exact:1",
        "--coloring", coloring, "--ground", "0..6", "--min-size", "3",
    )
    assert code == 0 and report["witness"]["h"] == [0, 2, 4]


def test_reduce_forward_table(capsys):
    coloring = json.dumps({"table": [[[0], 5], [[1], 1]]})
    code, report = run_json(
        capsys,
        "reduce", "--name", "fs-to-rt", "--barrier", "exact:1",
        "--coloring", coloring, "--ground", "0..2",
    )
    assert code == 0
    assert report["target_barrier"] == "plus(exact:1)"
    assert report["forward_table"] == [[[1, 2], 1]]  # f((0)) = 5 >= 2: "otherwise"


def test_reduce_check_random(capsys):
    code, report = run_json(
        capsys,
        "reduce", "--name", "rrt2-to-fs", "--barrier", "schreier",
        "--ground", "0..8", "--check", "--random", "3", "--seed", "7",
        "--adversarial", "--min-size", "3",
    )
    assert code == 0
    assert report["counterexamples"] == []
    assert report["instances"] == 6  # 3 random + 3 stress instances


def test_reduce_check_deterministic(capsys):
    argv = (
        "reduce", "--name", "fs-to-rt", "--barrier", "exact:2",
        "--ground", "0..8", "--check", "--random", "2", "--seed", "13", "--json",
    )
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_diag_command(capsys):
    family = json.dumps([{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}, "delay": 0}])
    code, report = run_json(
        capsys,
        "diag", "--kind", "thin", "--alpha", "w", "--family", family,
        "--verify", "e=0,i=1", "--bound", "16",
    )
    assert code == 0
    assert report["result"]["reason"] == "ok"
    assert report["result"]["found"]["numbers"] == [2]

    code, report = run_json(
        capsys,
        "diag", "--kind", "rainbow", "--alpha", "1", "--family", family,
        "--verify", "e=0", "--bound", "12",
    )
    assert code == 0 and report["result"]["found"]["numbers"] == [0, 2]


@pytest.mark.parametrize("kind, verify", [("thin", "e=0,i=1"), ("rainbow", "e=0")])
def test_diag_broken_guarantee_exits_3_with_one_bug_line(capsys, monkeypatch, kind, verify):
    # a replay that plants nothing breaks the guarantee at the first covered stage
    monkeypatch.setattr(diag, f"_{kind}_stage", lambda fam, stage: {m: m for m in range(stage[0])})
    family = json.dumps([{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}, "delay": 0}])
    assert main(["diag", "--kind", kind, "--alpha", "1", "--family", family, "--verify", verify, "--json"]) == 3
    out = capsys.readouterr()
    assert out.err == "" and len(out.out.splitlines()) == 1
    assert list(json.loads(out.out)) == ["BUG"]


@pytest.mark.parametrize(
    "kind, verify",
    [("rainbow", "e=0,i=5,x=3"), ("rainbow", "e=0,i=1"), ("rainbow", "e=0,e=1"), ("thin", "e=0,i=1,x=2"),
     ("thin", "e=0,i=1,i=2"), ("thin", "e=0,e=0,i=1")],
)
def test_diag_verify_takes_only_the_keys_its_kind_reads(capsys, kind, verify):
    # thin reads e and i, rainbow reads e; the report must not echo a key
    # that was never read
    family = json.dumps([{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}, "delay": 0}])
    _usage_error(capsys, ["diag", "--kind", kind, "--alpha", "1", "--family", family, "--verify", verify, "--json"])


@pytest.mark.parametrize("kind, verify, key", [("rainbow", "e=zero", "e"), ("thin", "e=0,i=one", "i"), ("thin", "e=,i=0", "e")])
def test_diag_verify_names_a_value_that_is_not_an_integer(capsys, kind, verify, key):
    family = json.dumps([{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}, "delay": 0}])
    err = _usage_error(capsys, ["diag", "--kind", kind, "--alpha", "1", "--family", family, "--verify", verify])
    assert f"--verify {key} must be an integer" in err, err


def test_diag_bound_too_small_still_exits_clean(capsys):
    family = json.dumps([{"e": 0, "set": {"prefix": [], "tail": {"start": 0, "step": 2}}}])
    code, report = run_json(
        capsys,
        "diag", "--kind", "thin", "--alpha", "1", "--family", family,
        "--verify", "e=0,i=0", "--bound", "1",
    )
    assert code == 0 and report["result"]["reason"] == "bound-too-small"


def test_usage_errors_exit_2(capsys):
    assert main(["ordertype", "--barrier", "derived-nonsense"]) == 2
    assert main(["reduce", "--name", "nope", "--barrier", "schreier", "--ground", "0..4"]) == 2
    assert main(["reduce", "--name", "fs-to-rt", "--barrier", "schreier", "--ground", "0..4"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["front", "--barrier", "schreier"])  # argparse: missing --ground
    assert exc.value.code == 2


@pytest.mark.parametrize("random", ["-1", "-2"])
def test_reduce_refuses_a_negative_random(capsys, random):
    base = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5", "--random", random]
    for extra in ([], ["--check"], ["--adversarial", "--check"]):
        assert main(base + extra) == 2, extra
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: --random must be at least 0, got {random}\n", extra


def test_reduce_without_check_refuses_more_than_one_instance(capsys):
    # without --check reduce prints the forward table of one instance, so
    # it builds no others; a negative --random keeps its own message
    base = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5"]
    for extra in (["--random", "2"], ["--random", "1", "--adversarial"], ["--adversarial"]):
        assert main(base + extra) == 2, extra
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and "--check" in out.err, extra
    assert main(base + ["--random", "-1", "--adversarial"]) == 2
    assert capsys.readouterr().err == "error: --random must be at least 0, got -1\n"
    code, report = run_json(capsys, *base, "--random", "1")
    assert code == 0 and report["forward_table"]
    assert main(base + ["--random", "2", "--adversarial", "--check"]) == 0


def test_reduce_refuses_adversarial_without_random(capsys):
    base = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5", "--adversarial", "--check"]
    for extra in (["--coloring", '{"builtin":"min"}'], ["--random", "0"], []):
        assert main(base + extra) == 2, extra
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and "--adversarial" in out.err, extra


def test_reduce_refuses_min_size_without_check(capsys):
    # --min-size bounds the witnesses of --check; the forward table ignores it
    base = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..3"]
    for instance in (["--random", "1"], ["--coloring", '{"builtin":"min"}']):
        for size in ("-5", "3"):
            assert "--min-size" in _usage_error(capsys, base + instance + ["--min-size", size])
    default = run(capsys, *base, "--random", "2", "--check", "--json")
    assert default == run(capsys, *base, "--random", "2", "--check", "--json", "--min-size", "3")
    assert json.loads(default[1])["min_size"] == 3


def test_reduce_refuses_a_coloring_with_random(capsys):
    # both name the instances; with --random N >= 1 the coloring went unchecked
    base = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5", "--check"]
    for coloring in ('{"table": []}', '{"builtin":"min"}'):
        for random in ("1", "3"):
            assert "--coloring" in _usage_error(capsys, base + ["--random", random, "--coloring", coloring])
    code, report = run_json(capsys, *base, "--random", "0", "--coloring", '{"builtin":"min"}')
    assert code == 0 and report["instances"] == 1 and report["seed"] is None


def test_reduce_refuses_a_seed_without_random(capsys):
    base = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5"]
    for extra in (["--coloring", '{"builtin":"min"}'], ["--coloring", '{"builtin":"min"}', "--check"],
                  ["--random", "0", "--coloring", '{"builtin":"min"}']):
        for seed in ("0", "7"):
            assert "--seed" in _usage_error(capsys, base + extra + ["--seed", seed])
    default = run(capsys, *base, "--random", "2", "--check", "--json")
    assert default == run(capsys, *base, "--random", "2", "--check", "--json", "--seed", "0")
    assert json.loads(default[1])["seed"] == 0


def test_a_negative_min_size_is_refused_by_solve_and_reduce(capsys):
    solve = ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", '{"builtin":"min"}',
             "--ground", "0..4"]
    reduce = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5", "--random", "1", "--check"]
    for argv in (solve, reduce, reduce + ["--json"]):
        for size in ("-1", "-5"):
            assert main(argv + ["--min-size", size]) == 2, argv
            out = capsys.readouterr()
            assert out.out == "" and out.err == f"error: min_size must be >= 0, got {size}\n", argv


def test_a_table_gap_is_one_error_line_without_quotes(capsys):
    argv = ["solve", "--property", "mono", "--barrier", "exact:2", "--coloring", '{"table": []}', "--ground", "0..4"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: coloring 'table' has no value for (0, 1)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["diag", "--family", '[{"e":0,"set":5}]', "--kind", "thin", "--alpha", "1", "--verify", "0,0"],
        ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", '{"table":[5]}', "--ground", "0..4"],
        ["diag", "--family", '{"e":0}', "--kind", "thin", "--alpha", "1", "--verify", "e=0,i=0"],
        ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", '{"builtin":"min","params":5}',
         "--ground", "0..4"],
        ["ordertype", "--barrier", '{"canonical":5}'],
    ],
    ids=["family-set-not-a-ground-set", "table-row-not-a-pair", "family-not-an-array",
         "params-not-an-object", "canonical-index-not-a-string"],
)
def test_malformed_json_shapes_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_ordertype_derived_is_a_usage_error(capsys):
    code = main(["ordertype", "--barrier", json.dumps({"derived": {"inner": "schreier", "n": 2}})])
    assert code == 2


def test_lying_bound_is_a_clean_error(capsys):
    coloring = json.dumps({"table": [[[x], 0] for x in range(6)], "bound": 2})
    code = main([
        "reduce", "--name", "rrt-to-rt", "--barrier", "exact:1",
        "--coloring", coloring, "--ground", "0..6", "--check",
    ])
    assert code == 2
    assert "occurs" in capsys.readouterr().err


def test_check_reports_nonzero_on_sperner_failure(capsys, monkeypatch):
    # No constructor violates the axioms, so a stubbed Sperner check fails.
    monkeypatch.setattr(cli, "sperner_of_masks", lambda masks, n: False)
    code, report = run_json(capsys, "check", "--barrier", "exact:2", "--ground", "0..5")
    assert code == 1 and report["sperner_ok"] is False


def test_coloring_file_argument(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"builtin": "min"}))
    code, report = run_json(
        capsys,
        "solve", "--property", "free", "--barrier", "schreier",
        "--coloring", str(path), "--ground", "0..7", "--min-size", "3",
    )
    assert code == 0 and report["witness"] is not None


def test_a_path_argument_that_cannot_be_read_exits_2(tmp_path, capsys):
    # a directory exists but cannot be read as JSON: a usage error naming
    # the path, not a BUG line
    d = str(tmp_path)
    for argv in (
        ["check", "--barrier", d, "--ground", "0..5"],
        ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", d, "--ground", "0..5"],
        ["diag", "--kind", "thin", "--alpha", "w", "--family", d, "--verify", "e=0,i=0"],
    ):
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1 and repr(d) in out.err, argv


@pytest.mark.parametrize(
    "params",
    [{"k": None}, {"k": "2"}, {"k": 2.5}, {"k": True}, {}],
    ids=["null", "string", "float", "bool", "missing"],
)
def test_builtin_params_must_be_integers(capsys, params):
    coloring = json.dumps({"builtin": "rank-div", "params": params})
    argv = ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", coloring, "--ground", "0..4"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    for name, key in (("rank-mod", "m"), ("const", "value")):
        coloring = json.dumps({"builtin": name, "params": {key: None}})
        argv = ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", coloring, "--ground", "0..4"]
        assert main(argv) == 2


@pytest.mark.parametrize(
    "barrier, coloring",
    [
        ('{"exact": 1.7}', {"table": [[[0], 0], [[1], 0], [[2], 0]]}),
        ("exact:1", {"table": [[[0], 2.9], [[1], 0], [[2], 0]]}),
        ("exact:1", {"table": [[[0], 0], [[1], True], [[2], 0]]}),
        ("exact:1", {"table": [[[0], 0], [[1], 0], [["2"], 0]]}),
        ('{"exact": true}', {"builtin": "min"}),
        ('{"exact": "1"}', {"builtin": "min"}),
    ],
    ids=["float-size", "float-color", "bool-color", "string-element", "bool-size", "string-size"],
)
def test_json_numbers_must_be_integers(capsys, barrier, coloring):
    argv = ["solve", "--property", "mono", "--barrier", barrier, "--coloring", json.dumps(coloring),
            "--ground", "0..3", "--min-size", "1", "--json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be an integer" in captured.err
    assert captured.out == ""


def test_subset_searches_past_the_ground_cap_exit_2(capsys):
    for argv in (
        ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", '{"builtin":"min"}', "--ground", "0..21"],
        ["reduce", "--name", "ts-to-rt", "--barrier", "exact:1", "--coloring", '{"builtin":"min"}',
         "--ground", "0..21", "--check"],
        ["check", "--barrier", "schreier", "--ground", "0..40"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "20" in err


def test_front_walks_past_the_member_cap_exit_2(capsys):
    assert main(["front", "--barrier", "schreier", "--ground", "0..40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1048576" in err and err.count("\n") == 1


def test_diag_stages_past_the_coordinate_cap_exit_2(capsys):
    # the stage of canonical:w*2 from 2 along the evens has 26,114,764 coordinates
    family = '[{"e":0,"set":{"prefix":[],"tail":{"start":0,"step":2}},"delay":0}]'
    assert main(["diag", "--kind", "thin", "--alpha", "w*2", "--family", family, "--verify", "e=0,i=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "65536" in err and err.count("\n") == 1


def test_flat_grounds_with_large_coordinates_exit_0(capsys):
    # canonical:w^2 after 990 is a product chain of 990 factors; the walk's
    # length bound loops along it and stops once it passes what is left
    code, report = run_json(capsys, "check", "--barrier", "canonical:w^2", "--ground", "990..1000")
    assert code == 0 and report["front_size"] == 0 and report["sperner_ok"] is True
    code, report = run_json(capsys, "front", "--barrier", "canonical:w^2", "--ground", "990..3000")
    assert code == 0 and report["count"] == 0
    # a long ground keeps no wide masks (the walk's masks are only read over
    # capped bases), so a one-member front of a million elements and the
    # 200000 singletons of 0..200000 come back at once; these reports are
    # read without the schema, which takes seconds to walk them
    code, out = run(capsys, "front", "--barrier", "exact:0", "--ground", "0..1000000", "--json")
    assert code == 0 and json.loads(out)["count"] == 1
    code, out = run(capsys, "front", "--barrier", "exact:1", "--ground", "0..200000", "--json")
    assert code == 0 and json.loads(out)["count"] == 200000


def test_a_ground_range_past_the_member_cap_is_refused_before_it_is_built(capsys):
    # one element past MAX_MEMBERS = 2^20; a range is refused by its length,
    # so a far longer one costs no more
    err = _usage_error(capsys, ["front", "--barrier", "exact:0", "--ground", "0..1048577"])
    assert "'0..1048577'" in err and "1048576" in err


def _nested(key: str, leaf: str, depth: int) -> str:
    for _ in range(depth):
        leaf = f'{{"{key}": {leaf}}}'
    return leaf


def _nested_ordinal(depth: int) -> str:
    out = "w"
    for _ in range(depth):
        out = f"w^({out})"
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--barrier", _nested("plus", '"schreier"', 500), "--ground", "0..6"],
        ["check", "--barrier", _nested("plus", '"schreier"', 3000), "--ground", "0..6"],
        ["solve", "--property", "mono", "--barrier", "schreier", "--coloring",
         '{"table": ' + "[" * 3000 + "]" * 3000 + "}", "--ground", "0..6"],
        ["ordertype", "--barrier", "canonical:" + _nested_ordinal(400)],
    ],
    ids=["plus-500", "barrier-json-3000", "coloring-json-3000", "ordinal-400"],
)
def test_deeply_nested_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input nested too deeply\n" and captured.out == ""


def test_diag_rainbow_collision_on_a_long_stage(capsys):
    # the stage from 6 has 22 coordinates; its colors would have about 2^22 bits
    family = '[{"e":2,"set":{"prefix":[1],"tail":{"start":3,"step":3}},"delay":5}]'
    code, report = run_json(
        capsys, "diag", "--kind", "rainbow", "--alpha", "w", "--family", family, "--verify", "e=2", "--bound", "30"
    )
    assert code == 0 and report["result"]["reason"] == "ok"
    found = report["result"]["found"]
    assert found["numbers"] == [1, 3] and found["stage"] == list(range(6, 70, 3))


def test_back_to_back_calls_match_separate_processes(capsys):
    argvs = [
        ["solve", "--property", "free", "--barrier", "schreier", "--coloring", '{"builtin":"min"}',
         "--ground", "0..7", "--min-size", "3", "--json"],
        ["front", "--barrier", "exact:2", "--ground", "0..5", "--json"],
        ["reduce", "--name", "ts-to-rt", "--barrier", "exact:1", "--ground", "0..6", "--check",
         "--random", "2", "--seed", "3", "--json"],
        ["ordertype", "--barrier", "canonical:w^2", "--json"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in argvs:
        separate = subprocess.run([sys.executable, "-m", "barriers", *argv], capture_output=True, text=True, env=env)
        assert separate.returncode == 0, separate.stderr
        code, out = run(capsys, *argv)
        assert (code, out) == (0, separate.stdout)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--property", "nope", "--barrier", "exact:1", "--coloring", "{}", "--ground", "0..3"])
    assert exc.value.code == 2
    code, out = run(capsys, *argvs[1])
    assert code == 0 and json.loads(out)["count"] == 10


_TABLE = json.dumps({"table": [[[x], x % 2] for x in range(6)]})
PARSE_CORPUS = {
    "front": ["front", "--barrier", "schreier", "--ground", "0..5", "--json"],
    "check": ["check", "--barrier", "exact:2", "--ground", "0..6"],
    "solve": ["solve", "--property", "mono", "--barrier", "exact:1", "--coloring", _TABLE, "--ground", "0..6"],
    "reduce": ["reduce", "--name", "fs-to-rt", "--barrier", "schreier", "--ground", "0..7", "--random", "2",
               "--adversarial", "--check", "--json"],
    "stray-positional": ["check", "--barrier", "schreier", "--ground", "0..5", "stray"],
    "top-level-option-after-command": ["check", "--barrier", "schreier", "--ground", "0..5", "--version"],
    "missing-required": ["front", "--barrier", "schreier"],
    "bad-choice": ["solve", "--property", "blue", "--barrier", "exact:1", "--coloring", _TABLE, "--ground", "0..6"],
    "abbreviation": ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..6", "--random", "1",
                     "--check", "--min", "3", "--json"],
    "command-help": ["check", "-h"],
    "version": ["--version"],
    "unknown-command": ["frobnicate", "--json"],
    "no-arguments": [],
}


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", list(PARSE_CORPUS.values()), ids=list(PARSE_CORPUS))
def test_command_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._parser().parse_args(argv))
    assert got == _outcome(capsys, argv)


EMPTY_FRONT_BARRIERS = ("exact:0", "canonical:0", '{"product": ["exact:0", "exact:0"]}')


@pytest.mark.parametrize("barrier", EMPTY_FRONT_BARRIERS)
def test_the_empty_member_never_crashes_the_cli(capsys, barrier):
    # The front of these barriers is {()}.  The builtins that read an end
    # of a member are undefined there (exit 2, one line on stderr), the
    # rest solve, and the stress instances leave out the tables that read
    # an end.
    params = {"rank-div": {"k": 2}, "rank-mod": {"m": 3}}
    for name in BUILTIN_COLORINGS:
        coloring = json.dumps({"builtin": name, "params": params.get(name, {})})
        for prop in PROPERTIES:
            code = main(["solve", "--property", prop, "--barrier", barrier, "--coloring", coloring, "--ground", "0..5"])
            err = capsys.readouterr().err
            assert code == (2 if name in ("min", "max-plus-one", "min-parity") else 0), (name, prop, err)
            assert len(err.splitlines()) == (code == 2), (name, prop, err)
    for name in REDUCTIONS:
        code, report = run_json(
            capsys, "reduce", "--name", name, "--barrier", barrier, "--ground", "0..5",
            "--random", "1", "--adversarial", "--check",
        )
        assert code == 0 and report["counterexamples"] == [], name


def test_a_closed_stdout_exits_with_the_commands_code_and_no_traceback():
    # the report (about 164 KB) is far past a pipe buffer, so the write
    # meets the closed pipe
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-m", "barriers", "front", "--barrier", "schreier", "--ground", "0..20", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert b"Traceback" not in err and err == b"", err


def test_unexpected_exceptions_exit_3_tagged_bug(capsys, monkeypatch):
    # A library bug must never read as "counterexamples found" (exit 1).
    def broken(spec, ground):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr(cli, "front", broken)
    assert main(["front", "--barrier", "schreier", "--ground", "0..4"]) == 3
    assert json.loads(capsys.readouterr().out) == {"BUG": "IndexError: tuple index out of range"}


# --- the CLI contract over drawn commands -------------------------------------

_POOL_BARRIERS = [json.dumps(spec_to_json(spec)) for spec in SPEC_POOL.values()] + list(EMPTY_FRONT_BARRIERS)
_PARAMS = {"rank-div": {"k": 2}, "rank-mod": {"m": 3}}
_GROUNDS = st.one_of(
    st.just("0..0"),  # empty
    st.integers(0, 30).map(lambda a: f"{a}..{a + 1}"),  # singleton
    st.integers(2, 8).map(lambda n: f"0..{n}"),  # dense
    st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True).map(lambda xs: ",".join(map(str, xs))),  # sparse
    st.tuples(st.integers(1, 40), st.integers(2, 8)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),  # offset
)
_SOLVE = st.builds(
    lambda prop, name: ["solve", "--property", prop, "--coloring",
                        json.dumps({"builtin": name, "params": _PARAMS.get(name, {})})],
    st.sampled_from(PROPERTIES), st.sampled_from(BUILTIN_COLORINGS),
)
_REDUCE = st.builds(
    lambda name, random, adversarial, check: ["reduce", "--name", name, "--random", str(random)]
    + ["--adversarial"] * adversarial + ["--check"] * check,
    st.sampled_from(sorted(REDUCTIONS)), st.sampled_from([-1, 0, 1, 2]), st.booleans(), st.booleans(),
)


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_SOLVE, _REDUCE), st.sampled_from(_POOL_BARRIERS), _GROUNDS, st.booleans())
def test_drawn_commands_keep_the_cli_contract(command, barrier, ground, as_json):
    # Exit 0, 1 or 2, never a BUG (3); a usage error is one stderr line; a
    # JSON report validates; and a second identical call prints the same bytes.
    argv = command + ["--barrier", barrier, "--ground", ground] + ["--json"] * as_json
    first = _captured(argv)
    code, out, err = first
    assert code in (0, 1, 2), (argv, out, err)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
    elif as_json:
        VALIDATOR.validate(json.loads(out))
    assert _captured(argv) == first, argv
