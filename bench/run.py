"""tailbound benchmark: one seeded workload, end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is loaded from the src/ directory next to
bench/.  Workloads (all closed loops with one client; see BENCHMARK.json
for why each exists):

    cli-oneshot      sequential ``python -m tailbound <argv>`` subprocesses
    validate-stream  tail factor -> validate_model -> Zelen/Bhattacharyya
    shape-search     search_outlier on the four base shapes
    empirical-csv    in-process ``cli.main(["empirical", FILE, ...])``

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from a traced pass and
the tracing overhead.  Every op is checked against the oracles in
oracle.py after timing; ``failed`` counts the ops that fail a check, exit
with an unexpected code or raise.  The lines before the last one give the
machine, every metric with its unit and sample count, and the failures.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import proc
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = os.path.join(ROOT, "docs", "output_schema.json")

#: fresh interpreters timed per run; setup_s is their median
SETUP_REPS = 11
#: ``-X importtime`` and bare-interpreter samples per traced run
IMPORT_REPS = 5
SHOWN_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
# reported on stdout but not in the last line: failed_ratio is 0 on a
# correct program, only validate-stream has ten samples beyond p99, and the
# _raw figures are wall times before scaling to the reference speed
REPORTED_ONLY = {"failed_ratio": "ratio", "latency_p99_ms": "ms", "setup_s_raw": "s",
                 "ops_per_s_raw": "1/s", "latency_p50_ms_raw": "ms",
                 "latency_p90_ms_raw": "ms", "latency_p99_ms_raw": "ms"}

PER_LAYER = {
    "import.tailbound_ms": "ms",
    "import.numpy_ms": "ms",
    "import.bare_python_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.build_ms": "ms",
    "output.render_us": "us",
    "output.render_bytes": "bytes",
    "distributions.student_t_quantile_us": "us",
    "distributions.normal_quantile_us": "us",
    "distributions.quantile_calls": "count/op",
    "validator.validate_model_us": "us",
    "validator.max_safe_history_self_us": "us",
    "validator.solves_per_max_safe_history": "count",
    "extreme_point.solve_calls": "count/op",
    "extreme_point.solve_self_us": "us",
    "chebyshev_bounds.bound_us": "us",
    "chebyshev_bounds.bound_calls": "count/op",
    "chebyshev_bounds.invalid_ratio": "ratio",
    "appendix_search.search_outlier_ms": "ms",
    "appendix_search.generate_base_ms": "ms",
    "appendix_search.search_calls": "count/op",
    "cli.read_return_csv_ms": "ms",
    "cli.read_return_csv_rows": "count",
    "extreme_point.oracle_moments_ms": "ms",
    "extreme_point.oracle_moments_points": "count",
    "validator.empirical_validate_self_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed worker)."""


def environment(seed: int) -> dict:
    """What a result must be compared with: machine, toolchain, code, seed."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tailbound", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "machine": platform.machine(), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def spawn(argv: list[str], env: dict, work: str, timeout: float) -> tuple[float, int, str, str]:
    """Run a helper child; returns (wall s, peak RSS KiB, stdout, stderr)."""
    out, err = os.path.join(work, "spawn.out"), os.path.join(work, "spawn.err")
    code, wall, maxrss = proc.spawn_wait(argv, env, out, err, timeout)
    with open(out, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err, encoding="utf-8") as fh:
        stderr = fh.read()
    if code != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited {code}:\n{stderr[-2000:]}")
    return wall, maxrss, stdout, stderr


def check_program(env: dict, work: str) -> None:
    """Make sure children import tailbound from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    _, _, path, _ = spawn([sys.executable, "-c",
                           "import sys, tailbound; sys.stdout.write(tailbound.__file__)"],
                          env, work, 60.0)
    if os.path.commonpath([os.path.abspath(path), src]) != src:
        raise BenchError(f"tailbound was imported from {path}, not from {src}")


def timed_spawns(argvs: list[list[str]], reps: int, env: dict, work: str) -> list[list]:
    """Run each argv `reps` times; per rep, [(scaled s, wall s, stderr)] per argv.

    A bare-interpreter sample (speed.interpreter_speed) precedes every rep
    and follows the last, so each child is bracketed by samples.
    """
    sp = speed.interpreter_speed(env)
    reps_out = []
    for _ in range(reps):
        sp.sample()
        rep = []
        for argv in argvs:
            t0 = time.perf_counter_ns()
            wall, _, _, stderr = spawn(argv, env, work, 60.0)
            rep.append((t0, time.perf_counter_ns(), wall, stderr))
        reps_out.append(rep)
    sp.sample()
    return [[(wall * sp.scale(t0, t1), wall, stderr) for t0, t1, wall, stderr in rep]
            for rep in reps_out]


def measure_setup(args, work: str, env: dict) -> list[tuple[float, float]]:
    """(scaled, raw) wall seconds of fresh interpreters that import tailbound
    and, for the in-process workloads, complete one warm-up op."""
    if args.workload == "cli-oneshot":
        argv = [sys.executable, "-c", "import tailbound"]
    else:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "setup", args.workload,
                str(args.seed), "0", "0", work]
    return [rep[0][:2] for rep in timed_spawns([argv], SETUP_REPS, env, work)]


def import_metrics(env: dict, work: str) -> dict:
    """Package import cost from ``-X importtime``, and the bare interpreter."""
    tailbound_ms, numpy_ms, bare_ms = [], [], []
    reps = timed_spawns([[sys.executable, "-X", "importtime", "-c", "import tailbound"],
                         [sys.executable, "-c", "pass"]], IMPORT_REPS, env, work)
    for (scaled, wall, stderr), (bare, _, _) in reps:
        cumulative = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        tailbound_ms.append(cumulative.get("tailbound", 0) / 1e3 * scaled / wall)
        numpy_ms.append(cumulative.get("numpy", 0) / 1e3 * scaled / wall)
        bare_ms.append(bare * 1e3)
    return {"import.tailbound_ms": statistics.median(tailbound_ms),
            "import.numpy_ms": statistics.median(numpy_ms),
            "import.bare_python_ms": statistics.median(bare_ms)}


def read_records(work: str) -> list[dict]:
    with open(os.path.join(work, "ops.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check(workload: str, gen, records: list[dict]) -> list[tuple[int, list[str]]]:
    """(op index, problems) for every record that fails its oracle."""
    schema = oracle.load_schema_validator(SCHEMA)
    ops = {}
    for rec in records:
        if rec["i"] not in ops:
            ops[rec["i"]] = gen.op(rec["i"])
    tail_ops = [i for i, op in ops.items()
                if op.get("kind") in ("normal", "student-t", "tail-factor")]
    refs = dict(zip(tail_ops, oracle.tail_references(
        [(ops[i].get("model", ops[i]["kind"]), ops[i]["horizon"], ops[i].get("dof"))
         for i in tail_ops]))) if tail_ops else {}
    stats = {}
    failures = []
    for rec in records:
        op, r = ops[rec["i"]], rec["r"]
        if workload == "validate-stream":
            problems = oracle.check_validate_stream(op, r, refs.get(rec["i"]))
        elif workload == "shape-search":
            problems = oracle.check_shape_search(op, r)
        elif workload == "empirical-csv":
            if op["path"] not in stats:
                stats[op["path"]] = oracle.series_stats(op["path"])
            problems = oracle.check_empirical(op, r, stats[op["path"]], schema)
        else:
            problems = oracle.check_cli(op, r, refs.get(rec["i"]), schema)
            if problems:
                problems.insert(0, "tailbound " + " ".join(op["argv"]))
        if problems:
            failures.append((rec["i"], problems))
    return failures


def defect_probe(env: dict, work: str) -> dict:
    """Tail factors past workloads.HORIZON_MAX against scipy, untimed.

    The timed ops stay below HORIZON_MAX, where the level 1 - 1/horizon
    keeps enough digits; this shows how far the known deep-horizon defect
    reaches on every run without counting it as failed ops.
    """
    spawn([sys.executable, os.path.join(HERE, "worker.py"), "probe", "-", "0", "0", "0", work],
          env, work, 60.0)
    with open(os.path.join(work, "probe.json"), encoding="utf-8") as fh:
        got = json.load(fh)
    refs = oracle.tail_references(list(workloads.DEFECT_PROBES))
    errs = [abs(tf - ref) / ref for tf, ref in zip(got, refs)]
    over = [h for (_, h, _), e in zip(workloads.DEFECT_PROBES, errs) if e > oracle.TAIL_REL]
    return {"probes": len(errs), "over_tolerance": len(over),
            "lowest_horizon_over": min(over, default=None), "max_rel_err": max(errs)}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latencies_ms(records: list[dict], sp: speed.Speed, pass_no: int):
    """(scaled, raw) latencies in ms of one pass's ops."""
    scaled, raw = [], []
    for rec in records:
        if rec["pass"] == pass_no:
            raw.append(rec["ns"] / 1e6)
            scaled.append(raw[-1] * sp.scale(rec["t0"], rec["t0"] + rec["ns"]))
    return scaled, raw


def end_to_end(args, records, sp, setup, worker_rss_kb) -> dict:
    """The BENCHMARK.json end-to-end metrics, plus latency_p99_ms on
    validate-stream and the raw wall-clock figures.  ops_per_s is ops over
    the summed op latencies: the closed loop's throughput without the
    harness's bookkeeping between ops."""
    if args.workload == "cli-oneshot":
        rss_kb = max((rec["r"].get("maxrss_kb", 0) for rec in records), default=0)
    else:
        rss_kb = worker_rss_kb
    metrics = {"setup_s": (statistics.median(s for s, _ in setup), len(setup)),
               "peak_rss_mb": (rss_kb / 1024, 1)}
    for suffix, lat in zip(("", "_raw"), latencies_ms(records, sp, 0)):
        lat.sort()
        n = len(lat)
        metrics["ops_per_s" + suffix] = (n / (math.fsum(lat) / 1e3), n)
        metrics["latency_p50_ms" + suffix] = (percentile(lat, 50), n)
        metrics["latency_p90_ms" + suffix] = (percentile(lat, 90), n)
        if args.workload == "validate-stream":
            metrics["latency_p99_ms" + suffix] = (percentile(lat, 99), n)
    metrics["setup_s_raw"] = (statistics.median(r for _, r in setup), len(setup))
    return metrics


def per_layer(layers: dict, records, sp, imports: dict) -> dict:
    plain = statistics.fmean(latencies_ms(records, sp, 0)[0])
    traced_lat = latencies_ms(records, sp, 1)[0]
    traced = statistics.fmean(traced_lat)
    layers = {**layers, **imports}
    layers["trace.overhead_ms"] = traced - plain
    layers["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return {name: (value, len(traced_lat)) for name, value in layers.items()}


def run(args, work: str) -> int:
    gen = workloads.make(args.workload, args.seed, work)
    if args.workload == "empirical-csv":
        gen.prepare()  # writing the CSVs is harness set-up, not timed
    env = proc.program_env(ROOT)
    check_program(env, work)
    setup = [] if args.trace else measure_setup(args, work, env)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "run", args.workload,
              str(args.seed), repr(args.seconds), str(int(args.trace)), work]
    code, _, worker_rss_kb = proc.spawn_wait(
        worker, env, os.path.join(work, "worker.out"), os.path.join(work, "worker.err"),
        timeout=3 * args.seconds + 60)
    if code != 0:
        with open(os.path.join(work, "worker.err"), encoding="utf-8") as fh:
            raise BenchError(f"worker exited {code}:\n{fh.read()[-2000:]}")
    records = read_records(work)
    with open(os.path.join(work, "speed.json"), encoding="utf-8") as fh:
        sp = speed.Speed(**json.load(fh))
    failures = check(args.workload, gen, records)
    attempted, failed = len(records), len(failures)
    defect = (defect_probe(env, work)
              if args.workload in ("cli-oneshot", "validate-stream") else None)

    if args.trace:
        with open(os.path.join(work, "layers.json"), encoding="utf-8") as fh:
            measured = per_layer(json.load(fh), records, sp, import_metrics(env, work))
        units = PER_LAYER
    else:
        measured = end_to_end(args, records, sp, setup, worker_rss_kb)
        units = END_TO_END
    measured["failed_ratio"] = (failed / attempted, attempted)

    print(json.dumps({"env": environment(args.seed)}))
    print(f"workload {args.workload}: closed loop, 1 client, {args.seconds:g} s, "
          f"trace {int(args.trace)}; {attempted} ops checked, {failed} failed")
    all_units = {**units, **REPORTED_ONLY}
    for name, (value, samples) in measured.items():
        print(f"  {name:<42} {value:>14.6g} {all_units[name]:<9} n={samples}")
    for i, problems in failures[:SHOWN_FAILURES]:
        print(f"  FAILED op {i}: {'; '.join(problems[:3])}")
    if defect:
        print(f"  known defect, not timed: {defect['over_tolerance']} of {defect['probes']} "
              f"tail factors at horizons {workloads.DEFECT_PROBES[0][1]:g}.."
              f"{workloads.DEFECT_PROBES[-1][1]:g} miss scipy isf(1/h) by more than "
              f"{oracle.TAIL_REL:g} (max rel {defect['max_rel_err']:.2e})")
        print(json.dumps({"deep_horizon_probe": defect}))
    print(json.dumps({"report": {name: {"value": value, "unit": all_units[name], "samples": n}
                                 for name, (value, n) in measured.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")
    for needed in (os.path.join(ROOT, "src", "tailbound", "__init__.py"), SCHEMA):
        if not os.path.isfile(needed):
            print(f"bench: {needed} is missing; run from a tailbound checkout",
                  file=sys.stderr)
            return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, work)
    except (BenchError, TimeoutError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
