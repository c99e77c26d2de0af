"""Benchmark of the ``barriers`` command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every item is one in-process call of ``barriers.cli.main`` with a
generated argv and ``--json``, its report checked by the benchmark's own
oracle (see ``workloads.py`` for the workloads and why each was chosen).

Each measurement runs in a fresh single-threaded Python process with
``PYTHONHASHSEED=0`` and without ``BARRIERS_JOBS``, so module caches start
cold and then persist across the items of the run, as for a library user.

``--trace 0`` reports the end-to-end metrics.  Set-up is sampled in seven
processes and reported as the median; the other metrics come from one
process that runs every item once and then replays every tenth item,
counting an item as failed when the replay's report bytes differ.

``--trace 1`` runs the same items twice, untraced and then traced (see
``spans.py``), and reports the per-layer metrics of the traced process plus
the ratio of the two processes' item time.  It also checks that each
workload leaves idle the layers it is meant to bypass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the sample count of each metric and the sha256 of
the concatenated reports, which two versions of the program must share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170
SETUP_SAMPLES = 7
END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BARRIERS_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--spawned", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process of {args.workload} passed the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise RunError(f"{mode} process of {args.workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_items(workload: str, seed: int, seconds: int, runs: list[dict]) -> list[str]:
    """One message per failed item of each run: an exception, an exit code
    other than 0, a report the oracle rejects, or a replay that differs."""
    items = workloads.items(workload, seed, seconds)
    failures = []
    for run in runs:
        if len(run["items"]) != len(items):
            raise RunError(f"process ran {len(run['items'])} items, expected {len(items)}")
        for k, (item, got) in enumerate(zip(items, run["items"])):
            if got["code"] != 0:
                problem = f"exit {got['code']}: {got['stderr'].strip()[-300:]}"
            elif got.get("replay_same") is False:
                problem = "report changed when the item was replayed"
            else:
                try:
                    problem = workloads.check(item, json.loads(got["report"]))
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable report: {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"item {k} ({item['part']}): {problem}")
    return failures


def environment(seed: int, threads: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "seed": seed,
        "PYTHONHASHSEED": "0",
        "BARRIERS_JOBS": None,
        "threads": threads,
    }


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "measure", deadline)
    setups.append(run["setup_s"])
    failures = check_items(args.workload, args.seed, args.seconds, [run])
    times = [item["seconds"] for item in run["items"]]
    n = len(times)
    values = {
        "items_per_s": n / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_p90_ms": statistics.quantiles(times, n=10)[-1] * 1000,
        "ok_frac": (n - len(failures)) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    info = {
        "digest": run["digest"],
        "items": n,
        "samples": {**{name: n for name in END_TO_END}, "setup_s": len(setups), "peak_rss_mb": 1},
        "env": environment(args.seed, run["threads"]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, info, failures


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list[str]]:
    from spans import IDLE, METRICS

    untraced = spawn(args, "measure", deadline)
    traced = spawn(args, "trace", deadline)
    failures = check_items(args.workload, args.seed, args.seconds, [untraced, traced])
    if traced["digest"] != untraced["digest"]:
        failures.append("tracing changed the reports")
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = sum(i["seconds"] for i in traced["items"]) / sum(i["seconds"] for i in untraced["items"])
    drift = {span: layers[span + ".calls"] for span in IDLE[args.workload] if layers[span + ".calls"]}
    if drift:
        print(f"footprint: {args.workload} drifted onto layers it should leave idle: {drift}", file=sys.stderr)
    info = {
        "digest": traced["digest"],
        "items": len(traced["items"]),
        "footprint": {"idle": list(IDLE[args.workload]), "drift": drift},
        "env": environment(args.seed, traced["threads"]),
    }
    return {k: {"value": layers[k], "unit": unit} for k, unit in METRICS.items()}, info, failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="nominal length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "barriers" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        metrics, info, failures = (per_layer if args.trace else end_to_end)(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = info["items"] * (2 if args.trace else 1)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace, **info}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
