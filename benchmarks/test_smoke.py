"""Smoke test of the benchmark itself, kept out of the tier-1 test paths.

    python3 -m pytest benchmarks/test_smoke.py

Runs each workload twice at a reduced length with tracing off and twice with
tracing on, and checks that every metric of BENCHMARK.json is reported with
its unit, that the report digests agree, that the per-layer counts repeat
exactly, and that no workload drifts onto a layer it should leave idle.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMED_UNITS = {"s", "ms", "1/s"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    info, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_repeats(workload):
    plain = [result(workload, 0) for _ in range(2)]
    for info, res in plain:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert set(info["samples"]) == set(res["metrics"])
    assert plain[0][0]["digest"] == plain[1][0]["digest"]

    traced = [result(workload, 1) for _ in range(2)]
    for info, res in traced:
        assert res["correct"] and res["failed"] == 0, res
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert not info["footprint"]["drift"], info["footprint"]
        assert info["digest"] == plain[0][0]["digest"]
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] not in TIMED_UNITS and k != "trace.overhead_ratio"}
        for _, res in traced
    ]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
