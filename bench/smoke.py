"""Tiny-size smoke run of every workload, untraced and traced.

    python3 bench/smoke.py

Asserts for each run that the last stdout line has exactly the keys
correct/attempted/failed/metrics, that it carries every metric BENCHMARK.json
lists for that mode with BENCHMARK.json's unit and a finite value, that
failed_ratio is failed/attempted over the ops actually attempted, that
every figure in the report line has a unit and a sample count, and that
the workloads that derive tail factors report the deep-horizon probes.  It
also checks that the benchmark refuses to run, without printing a result, from a
directory that holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SECONDS = "1"


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=False, cwd=root)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    attempted, failed = result["attempted"], result["failed"]
    assert isinstance(attempted, int) and attempted >= 1, attempted
    assert isinstance(failed, int) and 0 <= failed <= attempted, failed
    assert result["correct"] == (failed == 0)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], list(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    for name, entry in report.items():
        assert entry.get("unit") and isinstance(entry.get("samples"), int), (name, entry)
    ratio = report["failed_ratio"]
    assert ratio["samples"] == attempted and ratio["value"] == failed / attempted, ratio
    if workload == "validate-stream" and not trace:
        assert report["latency_p99_ms"]["unit"] == "ms"
    if workload in ("cli-oneshot", "validate-stream"):
        probe = json.loads(lines[-3])["deep_horizon_probe"]
        assert probe["probes"] == len(workloads.DEFECT_PROBES), probe
    print(f"ok {workload} trace {trace}: {attempted} ops, {failed} failed")


def check_bare_directory(spec: dict) -> None:
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, workloads.WORKLOADS[0], 0)
        assert done.returncode != 0, "the benchmark ran without the program"
        assert '"metrics"' not in done.stdout, done.stdout
        print(f"ok bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
