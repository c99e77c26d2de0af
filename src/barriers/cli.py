"""Batch command-line front end.

Subcommands: front, check, variant, ordertype, solve, reduce, diag.  Every
command is deterministic given its arguments (plus --seed where random
instances are requested) and prints either a human-readable summary or, with
--json, a machine-readable report validating against docs/schemas/.

Exit codes: 0 clean, 1 violations or counterexamples found, 2 usage errors,
3 internal invariant violations and any other unexpected exception (one
line tagged BUG, so a library bug never reads as a counterexample).

A barrier argument is a shorthand (``schreier``, ``exact:3``,
``canonical:w^2``), else inline JSON, else a path to a readable JSON file; a
coloring or family argument is inline JSON, else such a path.  Ground sets
are half-open ranges ``a..b`` (so ``0..6`` means 0,1,2,3,4,5) or comma lists.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from functools import lru_cache
from typing import Any

from . import __version__
from .barrier import (
    MAX_MEMBERS,
    BarrierSpec,
    InternalInvariantError,
    capped_front,
    density_of_masks,
    front,
    order_type,
    spec_label,
    sperner_of_masks,
    variant,
)
from .diag import StagedColoring, verify_defeat_rainbow, verify_defeat_thin
from .jsonio import coloring_from_json, family_from_json, spec_from_json, spec_from_shorthand
from .ordinals import parse_ordinal
from .reduction import REDUCTIONS, adversarial_instances, check_reduction, random_instance
from .solver import PROPERTIES, find
from .seqs import _clip, as_seq

__all__ = ["main"]


def _load_json_arg(text: str) -> Any:
    """Inline JSON, or else the JSON of the file at the path text."""
    text = text.strip()
    if text.startswith(("{", "[", '"')):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def parse_barrier_arg(text: str) -> BarrierSpec:
    """A shorthand, else inline JSON, else the JSON file at that path; text
    that is none of these and names no file reads as a misspelt shorthand."""
    text = text.strip()
    try:
        spec = spec_from_shorthand(text)
        if spec is None:
            try:
                spec = spec_from_json(_load_json_arg(text))
            except FileNotFoundError:
                spec = spec_from_json(text)  # raises: unknown barrier shorthand
    except ValueError as exc:
        raise ValueError(f"bad barrier {_clip(text)}: {exc}")
    return spec


_INTEGER = re.compile(r" *-?[0-9]+ *")


def _integer(text: str, what: str = "a number") -> int:
    """text as an int: optional spaces, an optional '-', the digits 0-9 and
    optional spaces (int() would also read '+', '_' and every Unicode digit).
    The sign is read so that each caller's range check names the value."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"{what} must be an integer in the digits 0-9, got {_clip(text)}")
    return int(text)


def _natural(text: str, what: str) -> int:
    """text as a natural number, read by _integer; a negative one is refused
    by name."""
    n = _integer(text, what)
    if n < 0:
        raise ValueError(f"{what} must be a natural number, got {_clip(text)}")
    return n


def parse_ground_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = _natural(lo, "a range end"), _natural(hi, "a range end")
            if hi - lo > MAX_MEMBERS:  # before the tuple is built; len() of a range stops at sys.maxsize
                raise ValueError(f"a range has more than {MAX_MEMBERS} elements; ranges are limited to that many")
            return tuple(range(lo, hi))
        return tuple(sorted({_natural(x, "a ground element") for x in text.split(",") if x.strip()}))
    except ValueError as exc:
        raise ValueError(f"bad ground set {_clip(text)}: {exc}")


def parse_seq_arg(text: str) -> tuple[int, ...]:
    try:
        return as_seq(_integer(x, "a sequence element") for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"bad sequence {_clip(text)}: {exc}")


# --- commands ---------------------------------------------------------------


def cmd_front(args: argparse.Namespace) -> tuple[dict, int, str]:
    spec = parse_barrier_arg(args.barrier)
    ground = parse_ground_arg(args.ground)
    members = front(spec, ground)
    report = {
        "command": "front",
        "barrier": spec_label(spec),
        "ground": list(ground),
        "count": len(members),
        "elements": [list(s) for s in members],
    }
    lines = [f"front of {report['barrier']} on {list(ground)}: {len(members)} members"]
    lines += [f"  {tuple(s)}" for s in members]
    return report, 0, "\n".join(lines)


def cmd_check(args: argparse.Namespace) -> tuple[dict, int, str]:
    spec = parse_barrier_arg(args.barrier)
    ground = parse_ground_arg(args.ground)
    g, _, masks = capped_front(spec, ground)  # one mask per member of the front
    sperner_ok = sperner_of_masks(masks, len(g))
    density = density_of_masks(masks, len(g))
    ok = sperner_ok and not density.violations
    report = {
        "command": "check",
        "barrier": spec_label(spec),
        "ground": list(ground),
        "front_size": len(masks),
        "sperner_ok": sperner_ok,
        "density": density.to_json(),
    }
    text = (
        f"barrier {report['barrier']} on {list(ground)}: front={len(masks)} "
        f"sperner={'ok' if sperner_ok else 'VIOLATED'} "
        f"density: hit={density.hit} inconclusive={density.inconclusive} "
        f"violations={len(density.violations)}"
    )
    return report, 0 if ok else 1, text


def cmd_variant(args: argparse.Namespace) -> tuple[dict, int, str]:
    spec = parse_barrier_arg(args.barrier)
    seq = parse_seq_arg(args.seq)
    out = variant(spec, seq, args.k)
    report = {
        "command": "variant",
        "barrier": spec_label(spec),
        "seq": list(seq),
        "k": args.k,
        "variant": list(out),
    }
    return report, 0, f"{args.k}-variant of {seq}: {out}"


def cmd_ordertype(args: argparse.Namespace) -> tuple[dict, int, str]:
    spec = parse_barrier_arg(args.barrier)
    ot = order_type(spec)
    report = {"command": "ordertype", "barrier": spec_label(spec), "order_type": str(ot)}
    return report, 0, str(ot)


def cmd_solve(args: argparse.Namespace) -> tuple[dict, int, str]:
    spec = parse_barrier_arg(args.barrier)
    ground = parse_ground_arg(args.ground)
    f = coloring_from_json(spec, _load_json_arg(args.coloring))
    witness = find(args.property, f, ground, args.min_size)
    report = {
        "command": "solve",
        "barrier": spec_label(spec),
        "property": args.property,
        "ground": list(ground),
        "min_size": args.min_size,
        "witness": witness.to_json() if witness else None,
    }
    text = f"{args.property} witness: {witness.h if witness else 'none'}"
    return report, 0, text


def cmd_reduce(args: argparse.Namespace) -> tuple[dict, int, str]:
    if args.name not in REDUCTIONS:
        raise ValueError(f"unknown reduction {_clip(args.name)}; pick from {sorted(REDUCTIONS)}")
    red = REDUCTIONS[args.name]
    spec = parse_barrier_arg(args.barrier)
    ground = parse_ground_arg(args.ground)

    if args.random < 0:
        raise ValueError(f"--random must be at least 0, got {_clip(args.random)}")
    if args.seed is not None and args.seed < 0:  # random.Random seeds by |seed|: -1 draws seed 1's first instance
        raise ValueError(f"--seed must be at least 0, got {_clip(args.seed)}")
    if not args.check and (args.random > 1 or args.adversarial):
        raise ValueError("without --check reduce prints one instance; --random N > 1 and --adversarial need --check")
    if args.adversarial and not args.random:
        raise ValueError("--adversarial adds to the --random N instances and needs N >= 1")
    if not (args.random or args.coloring):
        raise ValueError("reduce needs --coloring or --random N")
    if args.min_size is not None and not args.check:
        raise ValueError("--min-size bounds the witnesses of --check and needs --check")
    if args.coloring and args.random:
        raise ValueError("--coloring and --random N each give the instances; give one of them")
    if args.seed is not None and not args.random:
        raise ValueError("--seed seeds the --random N instances and needs N >= 1")
    seed = args.seed or 0
    min_size = 3 if args.min_size is None else args.min_size
    if args.random:
        instances = [random_instance(red, spec, ground, seed=seed * 100003 + idx) for idx in range(args.random)]
        if args.adversarial:
            instances += adversarial_instances(red, spec, ground)
    else:
        instances = [coloring_from_json(spec, _load_json_arg(args.coloring))]

    if not args.check:
        f = instances[0]
        g = red.forward(f)
        tg = red.target_ground(ground)
        members = front(g.barrier, tg)
        table = [[list(s), c] for s, c in zip(members, g.colors_of(members))]
        report = {
            "command": "reduce",
            "name": red.name,
            "barrier": spec_label(spec),
            "target_barrier": spec_label(g.barrier),
            "ground": list(ground),
            "forward_table": table,
        }
        lines = [f"{red.name} forward instance on {spec_label(g.barrier)}:"]
        lines += [f"  {tuple(row[0])} -> {row[1]}" for row in table]
        return report, 0, "\n".join(lines)

    reports = [check_reduction(red, f, ground, min_size) for f in instances]
    total_cex = sum(len(r.counterexamples) for r in reports)
    report = {
        "command": "reduce",
        "name": red.name,
        "barrier": spec_label(spec),
        "ground": list(ground),
        "min_size": min_size,
        "seed": seed if args.random else None,
        "instances": len(reports),
        "checked_witnesses": sum(r.checked_witnesses for r in reports),
        "counterexamples": [c for r in reports for c in r.counterexamples],
        "max_recursion_chain": max((r.max_recursion_chain for r in reports), default=0),
    }
    text = (
        f"{red.name} on {spec_label(spec)}: {len(reports)} instances, "
        f"{report['checked_witnesses']} witnesses checked, "
        f"{total_cex} counterexamples, max chain {report['max_recursion_chain']}"
    )
    return report, 0 if total_cex == 0 else 1, text


def _parse_verify(text: str, kind: str) -> dict[str, int]:
    """The key=value pairs of --verify: each key the kind reads (e and i for
    thin, e for rainbow), given once, with a natural number."""
    keys = ("e", "i") if kind == "thin" else ("e",)
    out: dict[str, int] = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{kind} verification reads only {' and '.join(keys)}, not {_clip(key)}")
        if key in out:
            raise ValueError(f"--verify gives {key} twice")
        out[key] = _natural(value, f"--verify {key}")
    for key in keys:
        if key not in out:
            raise ValueError(f"{kind} verification needs {' and '.join(keys)}, missing {key}")
    return out


def cmd_diag(args: argparse.Namespace) -> tuple[dict, int, str]:
    if args.bound < 0:
        raise ValueError(f"--bound must be a natural number, got {_clip(args.bound)}")
    alpha = parse_ordinal(args.alpha)
    family = family_from_json(_load_json_arg(args.family))
    col = StagedColoring(args.kind, alpha, family)
    params = _parse_verify(args.verify, args.kind)
    if args.kind == "thin":
        result = verify_defeat_thin(col, params["e"], params["i"], args.bound)
    else:
        result = verify_defeat_rainbow(col, params["e"], args.bound)
    report = {
        "command": "diag",
        "kind": args.kind,
        "alpha": str(alpha),
        "verify": params,
        "bound": args.bound,
        "result": result.to_json(),
    }
    text = f"defeat witness: {result.found}" if result.ok else f"none ({result.reason})"
    return report, 0, text


# --- wiring -----------------------------------------------------------------


_Options = dict[str, argparse.Action]  # a subcommand's actions by option string


@lru_cache(maxsize=None)
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple[argparse.ArgumentParser, _Options]]]:
    """The top-level parser, and by subcommand name its parser and the
    actions that add_argument returned for its options.  Built on the first
    call, not at import, and reused: building them costs more than many
    commands."""
    parser = argparse.ArgumentParser(prog="barriers", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"barriers {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    options: dict[argparse.ArgumentParser, _Options] = {}

    def add(p: argparse.ArgumentParser, *names: str, **kwargs: Any) -> None:
        action = p.add_argument(*names, **kwargs)
        options.setdefault(p, {}).update(dict.fromkeys(action.option_strings, action))

    def add_common(p: argparse.ArgumentParser) -> None:
        add(p, "--json", action="store_true", help="emit a machine-readable report")

    p = sub.add_parser("front", help="list the members inside a finite ground set")
    add(p, "--barrier", required=True)
    add(p, "--ground", required=True, help="a..b (half-open) or comma list")
    add_common(p)
    p.set_defaults(fn=cmd_front)

    p = sub.add_parser("check", help="probe the Sperner and Density properties")
    add(p, "--barrier", required=True)
    add(p, "--ground", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("variant", help="the k-variant of a member")
    add(p, "--barrier", required=True)
    add(p, "--seq", required=True, help="comma list, e.g. 2,4,5")
    add(p, "--k", required=True, type=_integer)
    add_common(p)
    p.set_defaults(fn=cmd_variant)

    p = sub.add_parser("ordertype", help="symbolic order type")
    add(p, "--barrier", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_ordertype)

    p = sub.add_parser("solve", help="search for a solution set on a finite ground set")
    add(p, "--property", required=True, choices=PROPERTIES)
    add(p, "--barrier", required=True)
    add(p, "--coloring", required=True, help="JSON (inline or path)")
    add(p, "--ground", required=True)
    add(p, "--min-size", type=_integer, default=1)
    add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("reduce", help="apply or exhaustively check a reduction")
    add(p, "--name", required=True)
    add(p, "--barrier", required=True)
    add(p, "--coloring", help="JSON (inline or path)")
    add(p, "--ground", required=True)
    add(p, "--check", action="store_true", help="validate solutions exhaustively")
    add(p, "--min-size", type=_integer, help="with --check, the least witness size (default 3)")
    add(p, "--random", type=_integer, default=0, metavar="N", help="check N seeded random instances")
    add(p, "--adversarial", action="store_true", help="add the stress instances to the --random ones")
    add(p, "--seed", type=_integer, help="with --random N, the seed of the instances (default 0)")
    add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("diag", help="verify a diagonalizing coloring defeats a declared set")
    add(p, "--kind", required=True, choices=("thin", "rainbow"))
    add(p, "--alpha", required=True, help="ordinal, e.g. w")
    add(p, "--family", required=True, help="JSON (inline or path)")
    add(p, "--verify", required=True, help="e=0 or e=0,i=2")
    add(p, "--bound", type=_integer, default=16, help="cap on the stage minimum")
    add_common(p)
    p.set_defaults(fn=cmd_diag)

    return parser, {name: (p, options[p]) for name, p in sub.choices.items()}


def _exact_form(sub: argparse.ArgumentParser, options: _Options, words: list[str]) -> argparse.Namespace | None:
    """The namespace sub.parse_known_args(words) returns, read straight off
    the options when words are (--opt VALUE | --flag)* in exact option
    strings, no VALUE starts with '-', each passes its option's type and
    choices, and every required option is given; None otherwise, for
    argparse to read (abbreviations, --opt=VALUE, -h, refusals)."""
    values = {action.dest: action.default for action in options.values()}
    given: set[argparse.Action] = set()
    rest = iter(words)
    for word in rest:
        action = options.get(word)
        if action is None:
            return None
        if action.nargs == 0:
            value = action.const
        else:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except ValueError:
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        given.add(action)
    if any(action.required and action not in given for action in options.values()):
        return None
    return argparse.Namespace(**values, fn=sub.get_default("fn"))


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the top-level parser would.  A known command in exact
    form is read off its options; the top-level parser reads every other
    argv (abbreviations, --opt=VALUE, -h, --version, refusals)."""
    parser, commands = build_parser()
    if argv and argv[0] in commands:
        args = _exact_form(*commands[argv[0]], argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        report, code, text = args.fn(args)
    except InternalInvariantError as exc:
        print(json.dumps({"BUG": str(exc)}, sort_keys=True))
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Deep input nesting: json.loads and spec_from_json recurse once per
        # level of it.
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except OSError as exc:  # only a JSON argument opens a file: a missing path or a directory, say
        name = _clip(exc.filename) if exc.errno == errno.ENAMETOOLONG else repr(exc.filename)
        print(f"error: cannot read {name}: {exc.strerror}", file=sys.stderr)
        return 2
    except Exception as exc:  # a library bug must not read as a counterexample (exit 1)
        print(json.dumps({"BUG": f"{type(exc).__name__}: {exc}"}, sort_keys=True))
        return 3
    try:
        print(json.dumps(report, sort_keys=True) if args.json else text, flush=True)
    except BrokenPipeError:  # the reader is gone; the exit flush writes to devnull, quietly
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
