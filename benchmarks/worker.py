"""One process of a benchmark run: set up, run every item, report as JSON.

Started by ``run.py`` with a fixed environment; not meant to be run by hand.
Modes:

* ``setup``: import the program and build every item's argv, then stop;
* ``measure``: also run and time every item, then replay every tenth item
  untimed and record whether its report bytes changed;
* ``trace``: run and time every item with spans and counts around each
  layer, and no replay.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import threading
import time
from pathlib import Path

REPLAY_EVERY = 10


def run_item(main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # the item failed; the run goes on
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started us")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cli = importlib.import_module("barriers.cli")
    argvs = [item["argv"] for item in workloads.items(args.workload, args.seed, args.seconds)]
    setup_s = time.monotonic() - args.spawned
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    items = []
    digest = hashlib.sha256()
    for argv in argvs:
        t0 = time.perf_counter()
        code, out, err = run_item(cli.main, argv)
        elapsed = time.perf_counter() - t0
        items.append({"seconds": elapsed, "code": code, "report": out, "stderr": err[-500:]})
        digest.update(out.encode())
        if tracer is not None:
            tracer.end_item(len(out.encode()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["threads"] = threading.active_count()
    result["digest"] = digest.hexdigest()
    if args.mode == "measure":
        for i in range(0, len(argvs), REPLAY_EVERY):
            items[i]["replay_same"] = run_item(cli.main, argvs[i])[1] == items[i]["report"]
    if tracer is not None:
        result["layers"] = tracer.metrics()
    result["items"] = items
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
