"""Timed closed loop over one workload's ops; run by run.py, not by hand.

    python bench/worker.py MODE WORKLOAD SEED SECONDS TRACE WORKDIR

MODE ``setup`` imports tailbound, completes the warm-up op and exits: its
wall time from spawn to exit is one set-up sample.  MODE ``probe`` writes
the tail factors of workloads.DEFECT_PROBES to WORKDIR/probe.json (the
other arguments are ignored).  MODE ``run`` also times ops for SECONDS and
writes one JSON line per op to WORKDIR/ops.jsonl as it goes, so memory
does not grow with the number of ops completed.  With
TRACE 1 the loop runs untraced for half the time, then repeats the same ops
under the tracer and writes the per-layer metrics to WORKDIR/layers.json.
The speed-probe samples taken between ops go to WORKDIR/speed.json.

The in-process workloads import only tailbound and the standard library
here; the oracles (scipy, jsonschema) run later in run.py, so this
process's peak RSS is the program's.  cli-oneshot does not import tailbound
at all: each op is a fresh ``python -m tailbound`` child.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import proc
import speed
import workloads

CHILD_TIMEOUT_S = 60.0


class InProcess:
    """Runs validate-stream, shape-search and empirical-csv ops."""

    def __init__(self, workload: str):
        from tailbound import (appendix_search, chebyshev_bounds, cli, distributions,
                               errors, extreme_point, validator)
        self.workload = workload
        self.mods = (appendix_search, chebyshev_bounds, cli, distributions,
                     errors, extreme_point, validator)

    def run(self, op: dict):
        """Execute one op; the return value is summarised after timing."""
        (appendix_search, chebyshev_bounds, cli, distributions,
         errors, extreme_point, validator) = self.mods
        if self.workload == "validate-stream":
            if op["kind"] == "blr":
                tf = distributions.blr_tail_factor(op["label"], op["kappa"])
            else:
                tf = distributions.TailFactorQuery(
                    horizon_n=op["horizon"], model=op["kind"], dof=op.get("dof")
                ).tail_factor()
            verdict = validator.validate_model(tf, op["history"], op["kappa"])
            sol = extreme_point.solve_extreme_point(op["history"], op["kappa"])
            probs = []
            for bound in (chebyshev_bounds.zelen_bound, chebyshev_bounds.bhattacharyya_bound):
                try:
                    probs.append(bound(sol.a, sol.theta3, op["kappa"]).probability)
                except errors.BoundValidityError:
                    probs.append(None)
            return tf, verdict, sol, probs
        if self.workload == "shape-search":
            return appendix_search.search_outlier(op["kind"], op["m"] + 1, op["kappa"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return code, out, err

    def summary(self, raw) -> dict:
        if self.workload == "validate-stream":
            tf, v, sol, (zelen, bhat) = raw
            return {"tf": tf, "required_a": v.required_a, "margin": v.margin,
                    "passed": v.passed, "safe": v.max_safe_history, "a": sol.a,
                    "theta3": sol.theta3, "zelen": zelen, "bhattacharyya": bhat}
        if self.workload == "shape-search":
            return {"a": raw.a_statistic, "x": raw.outlier_value, "kappa": raw.achieved_kappa}
        code, out, err = raw
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


class Subprocess:
    """Runs cli-oneshot ops as ``python -m tailbound`` or the traced launcher."""

    def __init__(self, root: str, work: str):
        self.env = proc.program_env(root)
        self.launcher = os.path.join(root, "bench", "launch.py")
        self.out = os.path.join(work, "child.out")
        self.err = os.path.join(work, "child.err")
        self.spans = os.path.join(work, "child.spans")
        self.traced = False

    def run(self, op: dict):
        if self.traced:
            argv = [sys.executable, self.launcher, self.spans, *op["argv"]]
        else:
            argv = [sys.executable, "-m", "tailbound", *op["argv"]]
        return proc.spawn_wait(argv, self.env, self.out, self.err, CHILD_TIMEOUT_S)

    def summary(self, raw) -> dict:
        code, _, maxrss_kb = raw
        with open(self.out, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(self.err, encoding="utf-8") as fh:
            stderr = fh.read()
        return {"code": code, "stdout": stdout, "stderr": stderr, "maxrss_kb": maxrss_kb}


def timed_loop(runner, gen, out, sp, seconds=None, count=None, tracer=None, pass_no=0):
    """Run ops 0, 1, ... until `seconds` elapse or `count` ops are done.

    Only the op itself sits between the two clock reads that give its
    latency; speed-probe samples (see speed.py) are taken between ops.
    Returns the number of ops run and, when traced, each op's (start, end)
    and the spans that traced cli children wrote.
    """
    clock = time.perf_counter_ns
    spans = []
    intervals = []
    i = 0
    sp.sample()
    start = clock()
    while (count is None and clock() - start < seconds * 1e9) or (
            count is not None and i < count):
        op = gen.op(i)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            raw = runner.run(op)
        except Exception as exc:  # the op failed; record it and carry on
            t1 = clock()
            result = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            t1 = clock()
            result = runner.summary(raw)
        if tracer is not None:
            intervals.append((t0, t1))
            if isinstance(runner, Subprocess):
                spans.extend(_child_spans(runner.spans, i, len(spans)))
        out.write(json.dumps({"i": i, "pass": pass_no, "t0": t0, "ns": t1 - t0,
                              "r": result}) + "\n")
        sp.sample_if_due()
        i += 1
    sp.sample()
    return i, intervals, spans


def _child_spans(path: str, op: int, base: int) -> list:
    """Spans a launcher child wrote, renumbered to follow `base` earlier spans."""
    try:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
    except FileNotFoundError:  # the child died before writing its spans
        return []
    os.remove(path)
    return [(name, t0, t1, parent + base if parent >= 0 else -1, op, err, size)
            for name, t0, t1, parent, _, err, size in spans]


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, trace, work = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if mode == "probe":
        from tailbound.distributions import TailFactorQuery
        with open(os.path.join(work, "probe.json"), "w", encoding="utf-8") as fh:
            json.dump([TailFactorQuery(horizon_n=h, model=model, dof=dof).tail_factor()
                       for model, h, dof in workloads.DEFECT_PROBES], fh)
        return 0
    gen = workloads.make(workload, seed, work)
    if workload == "cli-oneshot":
        runner = Subprocess(root, work)
    else:
        runner = InProcess(workload)
        runner.summary(runner.run(gen.warmup()))
    if mode == "setup":
        return 0

    sp = speed.for_workload(workload, proc.program_env(root))
    with open(os.path.join(work, "ops.jsonl"), "w", encoding="utf-8") as out:
        n, _, _ = timed_loop(runner, gen, out, sp, seconds=seconds / 2 if trace else seconds)
        if trace:
            import tracer as tracing
            tr = tracing.Tracer()
            if isinstance(runner, Subprocess):
                runner.traced = True
            else:
                tr.install()
            _, intervals, child_spans = timed_loop(runner, gen, out, sp, count=n, tracer=tr,
                                                   pass_no=1)
            scale = [sp.scale(t0, t1) for t0, t1 in intervals]
            with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
                json.dump(tracing.aggregate(child_spans or tr.spans, scale), fh)
    with open(os.path.join(work, "speed.json"), "w", encoding="utf-8") as fh:
        json.dump(sp.state(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
