from __future__ import annotations

import functools
import io
import json
import os
import shlex
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
README = Path(__file__).resolve().parent.parent / "README.md"


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
    return main(list(argv)), capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    VALIDATOR.validate(report)
    return code, report


_EVENS = {"prefix": [], "tail": {"start": 0, "step": 2}}
_FAMILY = json.dumps([{"e": 0, "set": _EVENS, "delay": 0}])
_FS_TO_RT = ["reduce", "--name", "fs-to-rt", "--barrier", "exact:1", "--ground", "0..5"]
_SOLVE_MIN = ["solve", "--property", "mono", "--barrier", "exact:1", "--ground", "0..4", "--coloring"]
_DIAG_THIN = ["diag", "--kind", "thin", "--family", _FAMILY]
_MIN = '{"builtin":"min"}'
_TABLE = json.dumps({"table": [[[x], x % 2] for x in range(6)]})
_PARAMS = {"rank-div": {"k": 2}, "rank-mod": {"m": 3}}  # a valid param for each builtin that reads one


def _diag(kind: str, verify: str, *extra: str) -> list[str]:
    return ["diag", "--kind", kind, "--alpha", "1", "--family", _FAMILY, "--verify", verify, *extra]


def _solve(coloring: str, barrier: str = "exact:1", ground: str = "0..4") -> list[str]:
    return ["solve", "--property", "mono", "--barrier", barrier, "--coloring", coloring, "--ground", ground]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _usage_error(capsys, argv, width: int | None = 200) -> str:
    """Run argv, which must exit 2 with nothing on stdout and one stderr line,
    no traceback, of at most width bytes."""
    code, out, err = _outcome(capsys, argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "Traceback" not in err, (argv, out, err)
    assert width is None or len(err.rstrip("\n").encode()) <= width, (argv, err)
    return err


def test_the_readme_cli_examples_exit_0(capsys):
    # the sh block under "## CLI", one command per line once a trailing
    # backslash joins a line to the next
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert commands and all(argv[0] == "barriers" for argv in commands)
    for _, *argv in commands:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if "--json" in argv:
            VALIDATOR.validate(json.loads(out))


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
    assert code == 0 and report["sperner_ok"] is True and report["density"]["violations"] == []
    code, report = run_json(capsys, "check", "--barrier", '{"product":["canonical:3","canonical:w+1"]}',
                            "--ground", "0..16")
    assert code == 0 and report["front_size"] == 11 and report["density"]["violations"] == []
    # the one walk at the ground cap, MAX_GROUND = 20
    code, report = run_json(capsys, "check", "--barrier", "canonical:w^2", "--ground", "0..20")
    assert code == 0 and report["front_size"] == 11692 and report["density"]["violations"] == []


def test_variant_command(capsys):
    code, report = run_json(capsys, "variant", "--barrier", "schreier", "--seq", "2,4,5", "--k", "3")
    assert code == 0 and report["variant"] == [2, 3, 4]


def test_solve_command(capsys):
    code, report = run_json(capsys, *_solve(_TABLE, ground="0..6"), "--min-size", "3")
    assert code == 0 and report["witness"]["h"] == [0, 2, 4]


def test_reduce_forward_table(capsys):
    coloring = json.dumps({"table": [[[0], 5], [[1], 1]]})
    code, report = run_json(capsys, *_FS_TO_RT[:-1], "0..2", "--coloring", coloring)
    assert code == 0 and report["target_barrier"] == "plus(exact:1)"
    assert report["forward_table"] == [[[1, 2], 1]]  # f((0)) = 5 >= 2: "otherwise"


def test_reduce_check_random(capsys):
    code, report = run_json(capsys, "reduce", "--name", "rrt2-to-fs", "--barrier", "schreier", "--ground", "0..8",
                            "--check", "--random", "3", "--seed", "7", "--adversarial", "--min-size", "3")
    assert code == 0 and report["counterexamples"] == []
    assert report["instances"] == 6  # 3 random + 3 stress instances
    # at the default seed, on a dense and a sparse ground
    for name, ground, instances in (("fs-to-rt", "0..8", 8), ("fs-to-rt", "0,2,3,5,7,8", 8),
                                    ("rrt2-to-fs", "0,2,3,5,7,8", 5)):
        code, report = run_json(capsys, "reduce", "--name", name, "--barrier", "schreier", "--ground", ground,
                                "--random", "2", "--adversarial", "--check")
        assert code == 0 and report["counterexamples"] == [] and report["instances"] == instances, (name, ground)


def test_reduce_check_deterministic(capsys):
    argv = ("reduce", "--name", "fs-to-rt", "--barrier", "exact:2", "--ground", "0..8", "--check", "--random", "2",
            "--seed", "13", "--json")
    first = run(capsys, *argv)
    assert first[0] == 0 and run(capsys, *argv) == first


def test_diag_command(capsys):
    code, report = run_json(capsys, *_DIAG_THIN, "--alpha", "w", "--verify", "e=0,i=1", "--bound", "16")
    assert code == 0 and report["result"]["reason"] == "ok" and report["result"]["found"]["numbers"] == [2]
    code, report = run_json(capsys, *_diag("rainbow", "e=0", "--bound", "12"))
    assert code == 0 and report["result"]["found"]["numbers"] == [0, 2]
    code, report = run_json(capsys, "diag", "--kind", "rainbow", "--alpha", "w", "--family", _FAMILY, "--verify", "e=0")
    assert code == 0 and report["bound"] == 16 and report["result"]["found"]["numbers"] == [0, 2]


@pytest.mark.parametrize("kind, verify", [("thin", "e=0,i=1"), ("rainbow", "e=0")])
def test_diag_broken_guarantee_exits_3_with_one_bug_line(capsys, monkeypatch, kind, verify):
    # a replay that plants nothing breaks the guarantee at the first covered stage
    monkeypatch.setattr(diag, f"_{kind}_stage", lambda fam, m0: {m: m for m in range(m0)})
    assert main(_diag(kind, verify, "--json")) == 3
    out = capsys.readouterr()
    assert out.err == "" and len(out.out.splitlines()) == 1 and list(json.loads(out.out)) == ["BUG"]
    assert json.loads(out.out)["BUG"].startswith(f"BUG: no {kind} defeat of X_0 at the covered stage from ")


def test_diag_bound_too_small_still_exits_clean(capsys):
    family = json.dumps([{"e": 0, "set": _EVENS}])
    argv = ["diag", "--kind", "thin", "--alpha", "1", "--family", family, "--verify", "e=0,i=0", "--bound"]
    for bound in ("0", "1"):
        code, report = run_json(capsys, *argv, bound)
        assert code == 0 and report["result"]["reason"] == "bound-too-small", bound


def test_a_delay_past_the_bound_ends_a_search_at_once(capsys):
    # the bound stops the minima before the delay is read: no member of the
    # tail below 10^24 is stepped through, and no minimum is admissible
    family = json.dumps([{"e": 0, "set": _EVENS, "delay": 10**24}])
    code, report = run_json(capsys, "diag", "--kind", "thin", "--alpha", "1", "--family", family, "--verify", "e=0,i=0")
    assert code == 0 and report["bound"] == 16 and report["result"] == {"found": None, "reason": "bound-too-small"}


def test_reduce_takes_what_its_refusals_leave(capsys):
    # one instance without --check, stress instances with it, a coloring with --random 0
    code, report = run_json(capsys, *_FS_TO_RT, "--random", "1")
    assert code == 0 and report["forward_table"]
    assert run(capsys, *_FS_TO_RT, "--random", "2", "--adversarial", "--check")[0] == 0
    code, report = run_json(capsys, *_FS_TO_RT, "--check", "--random", "0", "--coloring", _MIN)
    assert code == 0 and report["instances"] == 1 and report["seed"] is None


@pytest.mark.parametrize("option, default, ground", [("--min-size", "3", "0..3"), ("--seed", "0", "0..5")])
def test_reduce_check_defaults(capsys, option, default, ground):
    # the refusal table has --min-size without --check and --seed without --random N
    argv = _FS_TO_RT[:-1] + [ground, "--random", "2", "--check", "--json"]
    got = run(capsys, *argv)
    assert got == run(capsys, *argv, option, default)
    assert json.loads(got[1])[option[2:].replace("-", "_")] == int(default)


def test_check_reports_nonzero_on_sperner_failure(capsys, monkeypatch):
    # No constructor violates the axioms, so a stubbed Sperner check fails.
    monkeypatch.setattr(cli, "sperner_of_masks", lambda masks, n: False)
    code, report = run_json(capsys, "check", "--barrier", "exact:2", "--ground", "0..5")
    assert code == 1 and report["sperner_ok"] is False


def test_coloring_file_argument(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"builtin": "min"}))
    code, report = run_json(capsys, "solve", "--property", "free", "--barrier", "schreier", "--coloring", str(path),
                            "--ground", "0..7", "--min-size", "3")
    assert code == 0 and report["witness"] is not None


def test_a_file_never_shadows_a_barrier_shorthand(tmp_path, monkeypatch, capsys):
    # shorthands are read before the filesystem; other text is a path (the
    # refusal table has the misspelt shorthand)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schreier").write_text('"exact:1"')
    (tmp_path / "exact:2").write_text("not JSON")
    (tmp_path / "spec.json").write_text('{"plus": "schreier"}')
    for barrier, label in (("schreier", "schreier"), ("exact:2", "exact:2"), ("spec.json", "plus(schreier)")):
        code, report = run_json(capsys, "check", "--barrier", barrier, "--ground", "0..5")
        assert code == 0 and report["barrier"] == label, barrier


def test_flat_grounds_with_large_coordinates_exit_0(capsys):
    # canonical:w^2 after 990 is a product chain of 990 factors, one node;
    # the walk's length bound unrolls it and stops once it passes what is left
    code, report = run_json(capsys, "check", "--barrier", "canonical:w^2", "--ground", "990..1000")
    assert code == 0 and report["front_size"] == 0 and report["sperner_ok"] is True
    code, report = run_json(capsys, "front", "--barrier", "canonical:w^2", "--ground", "990..3000")
    assert code == 0 and report["count"] == 0
    # a limit canonical residual after x is one node whatever x, and so is
    # a derived limit barrier, whose base lies above n (the last two fronts
    # are empty, and their inputs are two levels deep)
    for argv, count in (
        (("front", "--barrier", "canonical:w^w", "--ground", "5,1000000"), 0),
        (("front", "--barrier", "canonical:w^w", "--ground", "0,100000"), 1),
        (("check", "--barrier", "canonical:w^2", "--ground", "0,3,100000"), 1),
        (("front", "--barrier", "canonical:w+1", "--ground", "0,1000000"), 0),
        (("check", "--barrier", '{"derived":{"inner":"canonical:w^2","n":1000}}', "--ground", "0..5"), 0),
        (("check", "--barrier", '{"derived":{"inner":"canonical:w^w","n":100000}}', "--ground", "0..12"), 0),
    ):
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["count" if argv[0] == "front" else "front_size"] == count, argv
    # a long ground keeps no wide masks (the walk's masks are only read over
    # capped bases), so a one-member front of a million elements and the
    # 200000 singletons of 0..200000 come back at once; these reports are
    # read without the schema, which takes seconds to walk them
    code, out = run(capsys, "front", "--barrier", "exact:0", "--ground", "0..1000000", "--json")
    assert code == 0 and json.loads(out)["count"] == 1
    code, out = run(capsys, "front", "--barrier", "exact:1", "--ground", "0..200000", "--json")
    assert code == 0 and json.loads(out)["count"] == 200000


def test_diag_rainbow_collision_on_a_long_stage(capsys):
    # the stage from 6 has 22 coordinates; the search compares owners and forms no color
    family = '[{"e":2,"set":{"prefix":[1],"tail":{"start":3,"step":3}},"delay":5}]'
    code, report = run_json(capsys, "diag", "--kind", "rainbow", "--alpha", "w", "--family", family, "--verify", "e=2",
                            "--bound", "30")
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


PARSE_CORPUS = {
    "front": ["front", "--barrier", "schreier", "--ground", "0..5", "--json"],
    "check": ["check", "--barrier", "exact:2", "--ground", "0..6"],
    "solve": _solve(_TABLE, ground="0..6"),
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
    # the edges of the exact form: argparse reads the first four and the
    # last; the reader takes a repeat (the last value wins) and an empty value
    "option-equals-value": _solve(_TABLE, ground="0..6") + ["--min-size=3"],
    "bare-double-dash": ["check", "--barrier", "schreier", "--ground", "0..5", "--"],
    "flag-with-a-value": _FS_TO_RT + ["--random", "1", "--check", "yes"],
    "value-of-the-wrong-type": ["variant", "--barrier", "schreier", "--seq", "2,4,5", "--k", "x"],
    "repeated-option": ["check", "--barrier", "exact:1", "--ground", "0..5", "--barrier", "schreier", "--json"],
    "empty-value": ["variant", "--barrier", "exact:0", "--seq", "", "--k", "0"],
    "negative-value": _FS_TO_RT + ["--random", "1", "--seed", "-1"],
}


@pytest.mark.parametrize("argv", list(PARSE_CORPUS.values()), ids=list(PARSE_CORPUS))
def test_command_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser()[0].parse_args(argv))
    assert got == _outcome(capsys, argv)


def test_well_formed_commands_are_read_in_exact_form():
    # the shape of every benchmark item; argparse reads only the other shapes
    for name in ("front", "check", "solve", "reduce", "repeated-option", "empty-value"):
        argv = PARSE_CORPUS[name]
        assert cli._exact_form(*cli.build_parser()[1][argv[0]], argv[1:]) is not None, name
    for name in ("abbreviation", "option-equals-value", "bare-double-dash", "flag-with-a-value",
                 "value-of-the-wrong-type", "negative-value", "missing-required", "bad-choice", "command-help"):
        argv = PARSE_CORPUS[name]
        assert cli._exact_form(*cli.build_parser()[1][argv[0]], argv[1:]) is None, name


@st.composite
def _option_words(draw):
    """A subcommand and words drawn from its own option strings: its required
    options and a few more in any order, each with a value drawn for its type
    or choices when it takes one, maybe less one option or plus a word the
    exact form refuses.  Returns the command, the words and whether they are
    in exact form up to types, choices and required options."""
    name = draw(st.sampled_from(sorted(cli.build_parser()[1])))
    options = cli.build_parser()[1][name][1]
    required = [o for o, action in options.items() if action.required]
    picked = draw(st.permutations(required + draw(st.lists(st.sampled_from(sorted(options)), max_size=4))))
    if picked and draw(st.integers(0, 3)) == 0:
        del picked[draw(st.integers(0, len(picked) - 1))]
    words, exact = [], True
    for option in picked:
        action = options[option]
        words.append(option)
        if action.nargs != 0:
            pool = [*action.choices, "blue"] if action.choices else (
                ["3", "0", " 7 ", "x", "-1"] if action.type else ["schreier", "0..5", "e=0", "", "a b", "-1", "--"])
            words.append(draw(st.sampled_from(pool)))
            exact = exact and not words[-1].startswith("-")
    if draw(st.integers(0, 3)) == 0:
        stray = draw(st.sampled_from(["--", "-h", "--bar", "--json=1", "--ground=0..5", "yes"]))
        words.insert(draw(st.integers(0, len(words))), stray)
        exact = False
    return name, words, exact


@settings(max_examples=400, deadline=None)
@given(_option_words())
def test_the_exact_form_reads_what_the_full_parser_reads(drawn):
    name, words, exact = drawn
    parser, commands = cli.build_parser()
    read = cli._exact_form(*commands[name], words)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            full = vars(parser.parse_args([name, *words]))
        del full["command"]
    except SystemExit:
        full = None
    if read is not None:
        assert vars(read) == full, (name, words)
    # every argv argparse takes in exact form is read without it
    assert read is not None or full is None or not exact, (name, words)


EMPTY_FRONT_BARRIERS = ("exact:0", "canonical:0", '{"product": ["exact:0", "exact:0"]}')


@pytest.mark.parametrize("barrier", EMPTY_FRONT_BARRIERS)
def test_the_empty_member_never_crashes_the_cli(capsys, barrier):
    # The front of these barriers is {()}.  The builtins that read an end
    # of a member are undefined there (exit 2, one line on stderr), the
    # rest solve, and the stress instances leave out the tables that read
    # an end.
    for name in BUILTIN_COLORINGS:
        coloring = json.dumps({"builtin": name, "params": _PARAMS.get(name, {})})
        for prop in PROPERTIES:
            code = main(["solve", "--property", prop, "--barrier", barrier, "--coloring", coloring, "--ground", "0..5"])
            err = capsys.readouterr().err
            assert code == (2 if name in ("min", "max-plus-one", "min-parity") else 0), (name, prop, err)
            assert len(err.splitlines()) == (code == 2), (name, prop, err)
    for name in REDUCTIONS:
        code, report = run_json(capsys, "reduce", "--name", name, "--barrier", barrier, "--ground", "0..5",
                                "--random", "1", "--adversarial", "--check")
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


_HUGE = 10**24  # past sys.maxsize, which combinations() and len() cannot take


@pytest.mark.parametrize("argv, key, value", [
    (["check", "--barrier", f"exact:{_HUGE}", "--ground", "0..5"], "front_size", 0),
    (["check", "--barrier", f"canonical:{_HUGE}", "--ground", "0..5"], "front_size", 0),
    (["check", "--barrier", json.dumps({"derived": {"inner": "schreier", "n": _HUGE}}), "--ground", "0..5"],
     "front_size", 0),
    (["front", "--barrier", f"exact:{_HUGE}", "--ground", "0..5"], "count", 0),
    # no member inside the witness, so it has no color
    (_solve(_MIN, f"exact:{_HUGE}", "0..5"), "witness", {"h": [0], "property": "mono", "detail": None}),
], ids=["check-exact", "check-canonical", "check-derived", "front", "solve"])
def test_a_size_past_the_ground_has_an_empty_front(capsys, argv, key, value):
    # these exited 3 with an OverflowError BUG line
    code, report = run_json(capsys, *argv)
    assert code == 0 and report[key] == value, report


def test_a_table_top_at_the_member_cap_is_built(capsys):
    # the rank table reads 0..top; a restriction keeps its front to two members
    barrier = json.dumps({"restrict": {"inner": "exact:1", "base": {"prefix": [0], "tail": {"start": 1048575}}}})
    code, report = run_json(capsys, *_solve('{"builtin":"rank"}', barrier, "0,1048575"), "--min-size", "2")
    assert code == 0 and report["witness"] is None
    assert _usage_error(capsys, _solve('{"builtin":"rank"}', barrier, "0,1048576")) == (
        "error: a table up to 1048576 reads more than 1048576 ground elements; tables are limited to that many\n"
    )


def test_unexpected_exceptions_exit_3_tagged_bug(capsys, monkeypatch):
    # A library bug must never read as "counterexamples found" (exit 1).
    def broken(spec, ground):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr(cli, "front", broken)
    assert main(["front", "--barrier", "schreier", "--ground", "0..4"]) == 3
    assert json.loads(capsys.readouterr().out) == {"BUG": "IndexError: tuple index out of range"}


@pytest.mark.parametrize("name, exc", [("front", KeyError("x")), ("spec_from_json", TypeError("not a spec"))])
def test_a_library_key_or_type_error_is_a_bug_not_a_usage_error(capsys, monkeypatch, name, exc):
    # every refusal is a ValueError, so any other exception is a bug
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, name, broken)
    assert main(["front", "--barrier", '{"exact": 1}', "--ground", "0..4"]) == 3
    out = capsys.readouterr()
    assert out.err == "" and out.out.splitlines() == [json.dumps({"BUG": f"{type(exc).__name__}: {exc}"})]


# --- the refusal table --------------------------------------------------------
# A row (id, argv, line) of REFUSALS exits 2 with nothing on stdout and one
# stderr line, no traceback, of at most 200 bytes: line itself if line starts
# with "error: ", else a line containing it.  {tmp} stands for the test's
# tmp_path and lifts the byte cap.  argparse refuses the rows of
# ARGPARSE_REFUSALS, with line in its error line.  A row runs in the test
# test_<id>, so the ids are those of the tests the table replaced.

_CHECK_EVENS = ["check", "--ground", "0..6", "--barrier"]
_ROWS_300 = json.dumps([[[x], 0] for x in range(300)])
_X3000, _D3000 = "x" * 3000, "1" + "0" * 2999
_EXACT_TEXT, _ORDINAL_TEXT = json.dumps({"exact": _D3000}), f"canonical:w {_D3000}"
_NEG = -int(_D3000)
_TAIL_TEXT = json.dumps({"restrict": {"inner": "schreier", "base": {"tail": {"start": 0, "step": _NEG}}}})
_DERIVED_TEXT = json.dumps({"derived": {"inner": "schreier", "n": _NEG}})
_COEFFICIENT_TEXT = "canonical:w*" + "0" * 3000
_UP_800, _DOWN_800 = tuple(range(800)), tuple(range(1000, 200, -1))
_TEXT_UP_800, _TEXT_DOWN_800 = ",".join(map(str, _UP_800)), ",".join(map(str, _DOWN_800))


def _cut(value) -> str:
    """How a refusal echoes a value: its repr, cut to 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


_NOT_A_SPEC = ": a barrier spec is a shorthand string or a one-key object, got an array\n"
REFUSALS = [
    *[(f"variant_of_the_empty_member_is_a_usage_error[{spec}]", ["variant", "--barrier", spec, "--seq", "", "--k", k,
       "--json"], "error: variant of the empty member\n")
      for spec in ("exact:0", "canonical:0", '{"product": ["exact:0", "canonical:0"]}') for k in ("0", "3")],
    # --verify takes each key its kind reads (thin e and i, rainbow e) once, as
    # a natural number, before the search; a negative --bound is refused first
    *[(f"diag_verify_takes_only_the_keys_its_kind_reads[{kind}-{verify}]", _diag(kind, verify, "--json"), line)
      for kind, verify, line in (
          ("rainbow", "e=0,i=5,x=3", "reads only e, not 'i'"), ("rainbow", "e=0,i=1", "reads only e, not 'i'"),
          ("rainbow", "e=0,e=1", "--verify gives e twice"), ("thin", "e=0,i=1,x=2", "reads only e and i, not 'x'"),
          ("thin", "e=0,i=1,i=2", "--verify gives i twice"), ("thin", "e=0,e=0,i=1", "--verify gives e twice"))],
    *[(f"diag_verify_needs_each_key_its_kind_reads[thin-{verify}]", _diag("thin", verify),
       f"error: thin verification needs e and i, missing {key}\n") for verify, key in (("e=0", "i"), ("i=1", "e"))],
    *[(f"diag_verify_names_a_value_that_is_not_an_integer[{kind}-{verify}-{key}]", _diag(kind, verify),
       f"--verify {key} must be an integer")
      for kind, verify, key in (("rainbow", "e=zero", "e"), ("thin", "e=0,i=one", "i"), ("thin", "e=,i=0", "e"))],
    *[(f"diag_verify_refuses_a_negative_value_at_any_bound[{kind}-{verify}-{key}-{bound}]",
       _diag(kind, verify, "--bound", bound),
       f"{'--bound' if bound == '-5' else '--verify ' + key} must be a natural number")
      for bound in ("1", "16", "-5")
      for kind, verify, key in (("thin", "e=0,i=-1", "i"), ("thin", "e=-1,i=0", "e"), ("rainbow", "e=-1", "e"))],
    *[("usage_errors_exit_2", argv, line) for argv, line in (
        (["ordertype", "--barrier", "derived-nonsense"], "unknown barrier shorthand 'derived-nonsense'"),
        (["reduce", "--name", "nope", "--barrier", "schreier", "--ground", "0..4"], "unknown reduction 'nope'"),
        (["reduce", "--name", "fs-to-rt", "--barrier", "schreier", "--ground", "0..4"], "reduce needs --coloring or"),
        # a negative bound is not too small but malformed
        (["diag", "--kind", "thin", "--alpha", "1", "--family", json.dumps([{"e": 0, "set": _EVENS}]),
          "--verify", "e=0,i=0", "--bound", "-5"], "error: --bound must be a natural number, got -5\n"),
        # text that is no shorthand and names no file is a misspelt shorthand
        (["check", "--barrier", "schriber", "--ground", "0..5"],
         "error: bad barrier 'schriber': unknown barrier shorthand 'schriber'\n"),
        (["ordertype", "--barrier", "canonical:w^(w"], "error: bad barrier 'canonical:w^(w': expected ')'\n"))],
    # a negative exact size is refused, and a negative oracle index or delay is named with its value
    ("negative_numbers_in_a_spec_or_family_are_refused[exact]", ["check", "--barrier", '{"exact": -1}', "--ground",
     "0..4"], "error: bad barrier '{\"exact\": -1}': size must be >= 0\n"),
    *[(f"negative_numbers_in_a_spec_or_family_are_refused[{key}]",
       ["diag", "--kind", "thin", "--alpha", "1", "--verify", "e=0,i=0", "--family",
        json.dumps([{"e": 0, "set": _EVENS, key: value}])],
       f"error: entry {key} must be a natural number, got {value}\n") for key, value in (("e", -1), ("delay", -2))],
    # without --check reduce prints one instance; a coloring and --random N >= 1
    # both name the instances; --adversarial, --min-size and --seed need another option
    *[(f"reduce_refuses_a_negative_random[{random}]", _FS_TO_RT + ["--random", random] + extra,
       f"error: --random must be at least 0, got {random}\n")
      for random in ("-1", "-2") for extra in ([], ["--check"], ["--adversarial", "--check"])],
    *[("reduce_without_check_refuses_more_than_one_instance", _FS_TO_RT + extra,
       "without --check reduce prints one instance; --random N > 1 and --adversarial need --check")
      for extra in (["--random", "2"], ["--random", "1", "--adversarial"], ["--adversarial"])],
    ("reduce_without_check_refuses_more_than_one_instance", _FS_TO_RT + ["--random", "-1", "--adversarial"],
     "error: --random must be at least 0, got -1\n"),
    *[("reduce_refuses_adversarial_without_random", _FS_TO_RT + ["--adversarial", "--check"] + extra,
       "--adversarial adds to the --random N instances") for extra in (["--coloring", _MIN], ["--random", "0"], [])],
    *[("reduce_refuses_min_size_without_check", _FS_TO_RT[:-1] + ["0..3"] + instance + ["--min-size", size],
       "--min-size bounds the witnesses of --check")
      for instance in (["--random", "1"], ["--coloring", _MIN]) for size in ("-5", "3")],
    *[("reduce_refuses_a_coloring_with_random", _FS_TO_RT + ["--check", "--random", random, "--coloring", coloring],
       "--coloring and --random N each give the") for coloring in ('{"table": []}', _MIN) for random in ("1", "3")],
    *[("reduce_refuses_a_seed_without_random", _FS_TO_RT + extra + ["--seed", seed], "--seed seeds the --random")
      for extra in (["--coloring", _MIN], ["--coloring", _MIN, "--check"], ["--random", "0", "--coloring", _MIN])
      for seed in ("0", "7")],
    *[("reduce_refuses_a_negative_seed", _FS_TO_RT + ["--seed", "-1", "--random", "1"] + extra,
       "error: --seed must be at least 0, got -1\n") for extra in ([], ["--check"])],
    # a ground set is of naturals, as a JSON ground set is (these exited 0 on the negatives)
    *[(f"a_negative_ground_element_is_refused[{case}]", argv, f"error: bad ground set {line}\n")
      for case, argv, line in (
          ("element", ["check", "--barrier", "exact:1", "--ground", "0,-1,2", "--json"],
           "'0,-1,2': a ground element must be a natural number, got '-1'"),
          ("range-start", ["front", "--barrier", "schreier", "--ground=-2..2"],
           "'-2..2': a range end must be a natural number, got '-2'"),
          ("range-end", ["front", "--barrier", "schreier", "--ground", "0..-2"],
           "'0..-2': a range end must be a natural number, got '-2'"))],
    *[("a_negative_min_size_is_refused_by_solve_and_reduce", argv + ["--min-size", size],
       f"error: min_size must be >= 0, got {size}\n") for argv in (
          _solve(_MIN), _FS_TO_RT + ["--random", "1", "--check"], _FS_TO_RT + ["--random", "1", "--check", "--json"])
      for size in ("-1", "-5")],
    ("a_table_gap_is_one_error_line_without_quotes", _solve('{"table": []}', barrier="exact:2"),
     "error: coloring 'table' has no value for (0, 1)\n"),
    # a document of the wrong shape is named by its type, not echoed
    *[(f"malformed_json_shapes_exit_2[{case}]", argv, line) for case, argv, line in (
        ("family-set-not-a-ground-set",
         ["diag", "--family", '[{"e":0,"set":5}]', "--kind", "thin", "--alpha", "1", "--verify", "0,0"],
         "a ground set must be an object, got an integer"),
        ("table-row-not-a-pair", _solve('{"table":[5]}'), "a table row must be an array, got an integer"),
        ("family-not-an-array",
         ["diag", "--family", '{"e":0}', "--kind", "thin", "--alpha", "1", "--verify", "e=0,i=0"],
         "an oracle family must be an array, got an object"),
        ("params-not-an-object", _solve('{"builtin":"min","params":5}'), "builtin params must be an object, got an"),
        ("canonical-index-not-a-string", ["ordertype", "--barrier", '{"canonical":5}'],
         "a canonical index must be a string, got an integer"))],
    # each of these exited 0: a misspelt key was dropped, so the command
    # answered another question, or a value out of range was taken
    *[(f"input_the_schemas_refuse_exits_2[{case}]", argv, f"{message}\n") for case, argv, message in (
        ("family-delay", ["diag", "--kind", "thin", "--alpha", "w", "--verify", "e=0,i=0",
                          "--family", '[{"e":0,"set":{"tail":{"start":0}},"dealy":3}]'],
         "an oracle family entry takes no key 'dealy', only e, set, delay"),
        ("ground-prefix",
         _CHECK_EVENS + ['{"restrict":{"inner":"schreier","base":{"prefx":[0],"tail":{"start":2,"step":2}}}}'],
         "a ground set takes no key 'prefx', only prefix, tail"),
        ("tail-step", _CHECK_EVENS + ['{"restrict":{"inner":"schreier","base":{"tail":{"start":0,"q":2}}}}'],
         "a ground set tail takes no key 'q', only start, step"),
        ("derived", _CHECK_EVENS + ['{"derived":{"inner":"schreier","n":1,"x":1}}'],
         "a derived spec takes no key 'x', only inner, n"),
        ("coloring", _SOLVE_MIN + ['{"builtin":"const","params":{"value":3},"colour":3}'],
         "a builtin coloring takes no key 'colour', only builtin, params, bound"),
        ("table-and-builtin", _SOLVE_MIN + ['{"table":[[[0],0]],"builtin":"min"}'],
         "a table coloring takes no key 'builtin', only table, bound"),
        ("min-param", _SOLVE_MIN + ['{"builtin":"min","params":{"zzz":1}}'],
         "builtin coloring 'min' reads no param 'zzz'"),
        ("rank-div-param", _SOLVE_MIN + ['{"builtin":"rank-div","params":{"k":2,"m":5}}'],
         "builtin coloring 'rank-div' reads no param 'm'"),
        ("negative-color", _SOLVE_MIN + ['{"table":[[[0],-5],[[1],-5]]}'], "a color must be >= 0, got -5"),
        ("bound-0", _SOLVE_MIN + ['{"builtin":"min","bound":0}'], "bound must be >= 1, got 0"),
        ("const-negative", _SOLVE_MIN + ['{"builtin":"const","params":{"value":-3}}'],
         "builtin param 'value' must be >= 0, got -3"),
        ("params-0", _SOLVE_MIN + ['{"builtin":"min","params":0}'], "builtin params must be an object, got an integer"),
        # "schreier" is a shorthand only, not a constructor taking a value
        *[(f"schreier-object-{case}", ["front", "--ground", "0..4", "--json", "--barrier", json.dumps({"schreier": v})],
           "unknown barrier constructor 'schreier'")
          for case, v in (("typo", {"typo": 1}), ("array", [1, 2, 3]), ("null", None))],
        *[(f"exact-{case}", ["front", "--ground", "0..4", "--barrier", f"exact:{size}"],
           f"an exact size is written in the digits 0-9, got 'exact:{size}'")
          for case, size in (("underscore", "2_0"), ("space", " 2"), ("minus-0", "-0"))])],
    ("ordertype_derived_is_a_usage_error", ["ordertype", "--barrier", '{"derived": {"inner": "schreier", "n": 2}}'],
     "order type of a derived barrier is not tracked"),
    ("lying_bound_is_a_clean_error", ["reduce", "--name", "rrt-to-rt", "--barrier", "exact:1", "--coloring",
                                      json.dumps({"table": [[[x], 0] for x in range(6)], "bound": 2}),
                                      "--ground", "0..6", "--check"], "color 0 occurs 3 times"),
    # both rainbow forwards refuse a broken bound by one check and one line
    ("lying_bound_is_a_clean_error", ["reduce", "--name", "rrt2-to-fs", "--barrier", "exact:1", "--coloring",
                                      json.dumps({"table": [[[x], 0] for x in range(6)], "bound": 2}),
                                      "--ground", "0..6", "--check"],
     "error: color 0 occurs 3 times up to (2,); declared bound 2\n"),
    # a defeat search steps through every stage minimum below its bound, so
    # a bound past the budget is refused before the search, at once
    *[("diag_refuses_a_bound_past_its_budget", argv,
       f"error: the bound of a defeat search is at most 1024, got {bound}\n") for bound, argv in (
          (1025, _diag("thin", "e=0,i=1", "--bound", "1025")),
          (10**24, ["diag", "--kind", "thin", "--alpha", "1", "--verify", "e=0,i=0", "--bound", str(10**24), "--family",
                    json.dumps([{"e": 0, "set": {"tail": {"start": 0, "step": 2}}, "delay": 10**24}])]))],
    # a directory, or a coloring or family file that is not there: a usage
    # error naming the path, not a BUG line or a shape error
    *[("a_path_argument_that_cannot_be_read_exits_2", argv, f"error: cannot read '{path}': {reason}\n")
      for path, reason in (("{tmp}", "Is a directory"), ("{tmp}/missing.json", "No such file or directory"))
      for argv in (_solve(path, ground="0..5"), _FS_TO_RT[:-2] + ["--coloring", path, "--ground", "0..5"],
                   ["diag", "--kind", "thin", "--alpha", "w", "--family", path, "--verify", "e=0,i=0"])],
    ("a_path_argument_that_cannot_be_read_exits_2", ["check", "--barrier", "{tmp}", "--ground", "0..5"],
     "error: cannot read '{tmp}': Is a directory\n"),
    *[(f"builtin_params_must_be_integers[{case}]", _solve(json.dumps({"builtin": "rank-div", "params": params})),
       "builtin param 'k' must be an integer") for case, params in (
          ("null", {"k": None}), ("string", {"k": "2"}), ("float", {"k": 2.5}), ("bool", {"k": True}),
          ("missing", {}))],
    *[("builtin_params_must_be_integers[null]", _solve(json.dumps({"builtin": name, "params": {key: None}})),
       f"builtin param '{key}' must be an integer") for name, key in (("rank-mod", "m"), ("const", "value"))],
    *[(f"json_numbers_must_be_integers[{case}]",
       _solve(json.dumps(coloring), barrier, "0..3") + ["--min-size", "1", "--json"], "must be an integer")
      for case, barrier, coloring in (
          ("float-size", '{"exact": 1.7}', {"table": [[[0], 0], [[1], 0], [[2], 0]]}),
          ("float-color", "exact:1", {"table": [[[0], 2.9], [[1], 0], [[2], 0]]}),
          ("bool-color", "exact:1", {"table": [[[0], 0], [[1], True], [[2], 0]]}),
          ("string-element", "exact:1", {"table": [[[0], 0], [[1], 0], [["2"], 0]]}),
          ("bool-element", "exact:1", {"table": [[[0], 0], [[True], 0]]}),
          ("bool-size", '{"exact": true}', {"builtin": "min"}),
          ("string-size", '{"exact": "1"}', {"builtin": "min"}))],
    # the work budgets: MAX_GROUND = 20, MAX_MEMBERS = 2^20 (a range is refused by its
    # length, so a far longer one costs no more) and 2^16 coordinates for a stage
    # (canonical:w*2 from 2 along the evens has 26,114,764)
    *[("subset_searches_past_the_ground_cap_exit_2", argv, "scans over all its subsets are limited to 20") for argv in (
        _solve(_MIN, ground="0..21"), ["check", "--barrier", "schreier", "--ground", "0..40"],
        ["reduce", "--name", "ts-to-rt", "--barrier", "exact:1", "--coloring", _MIN, "--ground", "0..21", "--check"])],
    ("front_walks_past_the_member_cap_exit_2", ["front", "--barrier", "schreier", "--ground", "0..40"], "1048576"),
    *[("a_ground_range_past_the_member_cap_is_refused_before_it_is_built", ["front", "--barrier", barrier, "--ground",
       ground], f"bad ground set '{ground}': a range has more than 1048576")
      for barrier, ground in (("exact:0", "0..1048577"), ("canonical:w", "0..99999999"))],
    ("a_ground_range_past_the_member_cap_is_refused_before_it_is_built",
     ["check", "--barrier", "schreier", "--ground", f"0..{_HUGE}"],
     f"error: bad ground set '0..{_HUGE}': a range has more than 1048576 elements; ranges are limited to that many\n"),
    # a rank table and an instance table read 0..top, refused as a ground range is
    *[(f"a_table_top_past_the_member_cap_is_refused_before_it_is_built[{case}]", argv,
       f"error: a table up to {top} reads more than 1048576 ground elements; tables are limited to that many\n")
      for case, argv, top in (
          ("rank", _solve('{"builtin":"rank"}', ground=f"0,{_HUGE}") + ["--min-size", "1"], _HUGE),
          ("instance", ["reduce", "--name", "ts-to-rt", "--barrier", "exact:1", "--ground", f"{_HUGE}..{_HUGE + 3}",
                        "--random", "1"], _HUGE + 2))],
    ("diag_stages_past_the_coordinate_cap_exit_2",
     ["diag", "--kind", "thin", "--alpha", "w*2", "--family",
      '[{"e":0,"set":{"prefix":[],"tail":{"start":0,"step":2}},"delay":0}]', "--verify", "e=0,i=0"],
     "the stage from 2 has more than 65536"),
    *[(f"deeply_nested_input_exits_2[{case}]", argv, "error: input nested too deeply\n") for case, argv in (
        *[(case, ["check", "--barrier", '{"plus": ' * depth + '"schreier"' + "}" * depth, "--ground", "0..6"])
          for case, depth in (("plus-500", 500), ("barrier-json-3000", 3000))],
        ("coloring-json-3000", _solve('{"table": ' + "[" * 3000 + "]" * 3000 + "}", "schreier", "0..6")),
        ("ordinal-3000", ["ordertype", "--barrier", "canonical:" + "w^(" * 3000 + "w" + ")" * 3000]))],
    # int() reads '_', '+', tabs and every Unicode digit; the CLI reads none
    *[(f"numbers_in_text_are_ascii_digits[{case}]", argv, line) for case, argv, line in (
        ("canonical-arabic-indic", ["ordertype", "--barrier", "canonical:w^\u0662"], "bad character '\u0662'"),
        ("alpha-arabic-indic", _DIAG_THIN + ["--alpha", "\u0662", "--verify", "e=0,i=1"], "bad character '\u0662'"),
        ("ground-underscore", ["front", "--barrier", "schreier", "--ground", "0..1_0"], "0-9, got '1_0'"),
        ("ground-arabic-indic-and-plus", ["front", "--barrier", "schreier", "--ground", "\u0660,\u0663,+7"],
         "a ground element must be an integer in the digits 0-9, got '\u0660'"),
        ("canonical-tab", ["ordertype", "--barrier", "canonical:w +\t1"], "bad character '\\t'"),
        ("canonical-newline", ["ordertype", "--barrier", "canonical:\nw"], "bad character '\\n'"),
        ("seq-arabic-indic", ["variant", "--barrier", "schreier", "--seq", "2,\u0664,5", "--k", "3"],
         "a sequence element must be an integer in the digits 0-9, got '\u0664'"),
        ("verify-arabic-indic", _DIAG_THIN + ["--alpha", "w", "--verify", "e=\u0660,i=1"],
         "--verify e must be an integer in the digits 0-9, got '\u0660'"))],
    # a value of the wrong type is named by its type, and a refusal echoes at
    # most 60 characters of an argument (the 300 rows took 7 KB)
    ("a_document_of_the_wrong_type_is_named_by_its_type", _SOLVE_MIN + [_ROWS_300],
     "error: a coloring must be an object, got an array\n"),
    *[(f"a_refusal_echoes_at_most_80_characters_of_an_argument[{case}]", argv, line) for case, argv, line in (
        ("barrier-300-row-array", ["check", "--barrier", _ROWS_300, "--ground", "0..4"],
         f"error: bad barrier '{_ROWS_300[:56]}...{_NOT_A_SPEC}"),
        ("plus-300-row-array", ["check", "--barrier", f'{{"plus": {_ROWS_300}}}', "--ground", "0..4"], _NOT_A_SPEC),
        ("table-row-500-elements", _SOLVE_MIN + [json.dumps({"table": [[[0], 0], [[1]] + [0] * 500]})],
         "a table row must be a [sequence, color] pair, got [[1], 0, 0, "),
        ("ground-2000-elements", ["front", "--barrier", "schreier", "--ground", ",".join(map(str, range(2000))) + ",x"],
         "...: a ground element must be an integer in the digits 0-9, got 'x'\n"),
        ("product-three-factors", ["ordertype", "--barrier", '{"product": ["schreier", "schreier", "schreier"]}'],
         "a product has two factors, got 3\n"),
        # each of these printed one line of 3 to 4 KB
        ("builtin-name", _SOLVE_MIN + [json.dumps({"builtin": _X3000})],
         f"error: unknown builtin coloring {_cut(_X3000)}\n"),
        ("param-key", _SOLVE_MIN + [json.dumps({"builtin": "min", "params": {_X3000: 1}})],
         f"error: builtin coloring 'min' reads no param {_cut(_X3000)}\n"),
        ("exact-size-text", _CHECK_EVENS + [_EXACT_TEXT],
         f"error: bad barrier {_cut(_EXACT_TEXT)}: exact size must be an integer, got {_cut(_D3000)}\n"),
        ("ordinal-trailing-number", ["ordertype", "--barrier", _ORDINAL_TEXT],
         f"error: bad barrier {_cut(_ORDINAL_TEXT)}: unexpected {_cut(_D3000)} after the ordinal\n"),
        ("barrier-names-no-file", ["check", "--barrier", _X3000, "--ground", "0..4"],
         f"error: cannot read {_cut(_X3000)}: File name too long\n"),
        ("table-sequence", _SOLVE_MIN + [json.dumps({"table": [[list(_DOWN_800), 0]]})],
         f"error: sequence must be strictly increasing, got {_cut(_DOWN_800)}\n"),
        ("variant-sequence", ["variant", "--barrier", "schreier", "--seq", _TEXT_DOWN_800, "--k", "3"],
         f"error: bad sequence {_cut(_TEXT_DOWN_800)}: sequence must be strictly increasing, got {_cut(_DOWN_800)}\n"),
        ("variant-not-a-member", ["variant", "--barrier", "schreier", "--seq", _TEXT_UP_800, "--k", "3"],
         f"error: {_cut(_UP_800)} is not a member\n"),
        ("variant-k-not-below-max", ["variant", "--barrier", "exact:800", "--seq", _TEXT_UP_800, "--k", "900"],
         f"error: 900 is not below max{_cut(_UP_800)}; use append_variant\n"),
        ("variant-k-occurs", ["variant", "--barrier", "exact:800", "--seq", _TEXT_UP_800, "--k", "5"],
         f"error: 5 already occurs in {_cut(_UP_800)}\n"),
        ("variant-k-digits", ["variant", "--barrier", "schreier", "--seq", "2,4,5", "--k", _D3000],
         f"error: {_cut(int(_D3000))} is not below max(2, 4, 5); use append_variant\n"),
        ("reduction-name", ["reduce", "--name", _X3000, "--barrier", "schreier", "--ground", "0..4"],
         f"error: unknown reduction {_cut(_X3000)}; pick from {sorted(REDUCTIONS)}\n"),
        ("verify-value", _DIAG_THIN + ["--alpha", "1", "--verify", f"e={_NEG},i=0"],
         f"error: --verify e must be a natural number, got {_cut(str(_NEG))}\n"),
        ("bound", _diag("thin", "e=0,i=0", "--bound", str(_NEG)),
         f"error: --bound must be a natural number, got {_cut(_NEG)}\n"),
        ("random", _FS_TO_RT + ["--random", str(_NEG)], f"error: --random must be at least 0, got {_cut(_NEG)}\n"),
        *[(f"min-size-{argv[0]}", argv + ["--min-size", str(_NEG)], f"error: min_size must be >= 0, got {_cut(_NEG)}\n")
          for argv in (_solve(_MIN), _FS_TO_RT + ["--random", "1", "--check"])],
        ("oracle-index", ["diag", "--kind", "thin", "--alpha", "1", "--verify", "e=0,i=0", "--family",
                          json.dumps([{"e": -_NEG, "set": [1]}, {"e": -_NEG, "set": [2]}])],
         f"error: duplicate oracle index {_cut(-_NEG)}\n"),
        ("tail-step", _CHECK_EVENS + [_TAIL_TEXT], f"error: bad barrier {_cut(_TAIL_TEXT)}: bad tail 0/{_cut(_NEG)}\n"),
        ("derived-n", _CHECK_EVENS + [_DERIVED_TEXT],
         f"error: bad barrier {_cut(_DERIVED_TEXT)}: {_cut(_NEG)} is not in the base\n"),
        ("ordinal-coefficient", ["ordertype", "--barrier", _COEFFICIENT_TEXT],
         f"error: bad barrier {_cut(_COEFFICIENT_TEXT)}: coefficient must be a positive int, got {_cut('0' * 3000)}\n"),
        ("coloring-keys", _SOLVE_MIN + [json.dumps({_X3000: 1})],
         f"error: a coloring needs a 'table' or a 'builtin' key, got the keys {_cut([_X3000])}\n"),
        ("variant-k-below-the-base", ["variant", "--barrier", "schreier", "--seq", "2,4,5", "--k", str(_NEG)],
         f"error: {_cut(_NEG)} is not in the base\n"),
        ("table-gap", _solve('{"table": [[[0], 0]]}', ground=f"0,{-_NEG}"),
         f"error: coloring 'table' has no value for {_cut((-_NEG,))}\n"),
        ("bound-violation", ["reduce", "--name", "rrt-to-rt", "--barrier", "exact:1", "--ground", "0..6", "--check",
                             "--coloring", json.dumps({"table": [[[x], -_NEG] for x in range(6)], "bound": 2})],
         f"error: color {_cut(-_NEG)} occurs 3 times up to (2,); declared bound 2\n"))],
]

ARGPARSE_REFUSALS = [
    ("usage_errors_exit_2", ["front", "--barrier", "schreier"], "the following arguments are required: --ground"),
    ("usage_errors_exit_2", ["check", "--barrier", "schreier", "--ground", "0..6", "stray"], "unrecognized arguments"),
    *[(f"numbers_in_text_are_ascii_digits[{case}]", argv, f"argument {option}: invalid") for case, argv, option in (
        ("k-arabic-indic", ["variant", "--barrier", "schreier", "--seq", "2,4,5", "--k", "\u0663"], "--k"),
        ("bound-underscore", _DIAG_THIN + ["--alpha", "w", "--verify", "e=0,i=1", "--bound", "1_6"], "--bound"),
        ("min-size-plus", _SOLVE_MIN + [_MIN, "--min-size", "+1"], "--min-size"),
        ("random-arabic-indic", _FS_TO_RT + ["--check", "--random", "\u0662"], "--random"),
        ("seed-underscore", _FS_TO_RT + ["--check", "--random", "1", "--seed", "1_0"], "--seed"),
        ("min-size-tab", _FS_TO_RT + ["--check", "--random", "1", "--min-size", "\t3"], "--min-size"))],
]


def _refuses(capsys, request, argv, line):
    width = 200
    if any("{tmp}" in arg for arg in argv):
        tmp = str(request.getfixturevalue("tmp_path"))
        argv, line, width = [arg.replace("{tmp}", tmp) for arg in argv], line.replace("{tmp}", tmp), None
    err = _usage_error(capsys, argv, width)
    assert err == line if line.startswith("error: ") else line in err, (argv, err)


def _argparse_refuses(capsys, request, argv, line):
    with pytest.raises(SystemExit) as exc:  # main returns 2 for its own refusals
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "Traceback" not in out.err, (argv, out)
    assert line in out.err.splitlines()[-1], (argv, out.err)


def _refusal_tests() -> dict:
    """test_<name> for each row id <name>[<case>], parametrized over its
    cases; the rows of the one case "" make a test with no parameters."""
    cases: dict[str, dict[str, list]] = {}
    for check, rows in ((_refuses, REFUSALS), (_argparse_refuses, ARGPARSE_REFUSALS)):
        for row_id, argv, line in rows:
            name, _, case = row_id.partition("[")
            cases.setdefault(f"test_{name}", {}).setdefault(case.removesuffix("]"), []).append((check, argv, line))
    tests = {}
    for name, named in cases.items():
        def test(capsys, request, rows):
            for check, argv, line in rows:
                check(capsys, request, argv, line)

        tests[name] = (functools.partial(test, rows=named[""]) if list(named) == [""]
                       else pytest.mark.parametrize("rows", list(named.values()), ids=list(named))(test))
    return tests


globals().update(_refusal_tests())


# --- the CLI contract over drawn commands -------------------------------------

_POOL_BARRIERS = [json.dumps(spec_to_json(spec)) for spec in SPEC_POOL.values()] + list(EMPTY_FRONT_BARRIERS)
_POOL_BARRIERS.append(f"exact:{2**64}")  # no member on a finite ground, and past what combinations() takes
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
