"""Seeded input generators for the four benchmark workloads.

Every workload is a closed loop with one client: the next op is sent only
after the previous one returns.  Op ``i`` of a run is a pure function of
``(seed, i)``, so the worker that times the ops and the checker that
verifies them derive the same inputs independently.

Continuous input properties (horizon, history, base size, tail factor, ...)
are drawn from a Kronecker low-discrepancy sequence with seeded offsets
rather than from independent uniforms.  Any prefix of the op stream then
covers the input distribution evenly, so the mix a run completes within
its time budget hardly depends on the seed or on how fast the program is,
and the spread between runs comes from the program rather than from the
draw.  Discrete choices that the oracle must cover (subcommand, format)
rotate with a seeded phase.

Only the standard library is used here: the worker imports this module
next to ``tailbound`` and must not pull in anything that would inflate its
start-up time or memory.
"""

from __future__ import annotations

import datetime
import math
import os
import random

WORKLOADS = ("cli-oneshot", "validate-stream", "shape-search", "empirical-csv")

FORMATS = ("csv", "json", "markdown")
PRECISIONS = (3, 10, 17)

BLR_LABELS = ("1m", "2m", "3m", "4m", "5m", "6m")
BLR_COLUMNS = (7, 10, 13, 16)
SHAPES = ("bimodal", "trimodal", "two_thirds", "uniform")
SEARCH_KAPPAS = (7.0, 10.0, 13.0, 16.0)

# grid pools for the CLI tables; the small n make some (n, kurtosis) cells
# infeasible so that exit code 3 is exercised
CLI_N_POOL = (8, 12, 20, 30, 60, 250, 500, 1000, 10_000, 100_000, 1_000_000, 833_208)
CLI_KAPPA_POOL = (3.5, 7.0, 10.0, 13.0, 16.0, 20.0, 40.0)
CLI_KINDS = ("shock-table", "bounds-even-moment", "bounds-zelen",
             "bounds-bhattacharyya", "tail-factor", "validate", "validate-blr")

#: upper end of the tail-factor horizons.  TailFactorQuery forms the level
#: 1 - 1/horizon in floating point, which costs up to 5.5e-17 * horizon of
#: relative accuracy in the tail mass, more than the 1e-8 the oracle asks
#: for above ~4e8 (the deep-horizon defect listed in ROADMAP.md).  At 1e7
#: every dof stays 18x inside the tolerance, so the timed ops do not fail
#: on that known defect; run.py measures the defect on every run with the
#: probes in DEFECT_PROBES.
HORIZON_MAX = 1e7
#: (model, horizon, dof) tail factors past HORIZON_MAX, computed untimed
#: after the loop of the workloads that derive tail factors and reported,
#: not counted as failed ops
DEFECT_PROBES = tuple((model, h, dof) for h in (1e8, 1e9, 1e10, 1e11, 1e12)
                      for model, dof in (("normal", None), ("student-t", 1),
                                         ("student-t", 3), ("student-t", 30),
                                         ("student-t", 200)))

#: number of CSV files in the empirical-csv pool; ops cycle through it.
#: Op latency clusters by file, and the clusters of adjacent sizes lie 1.24x
#: apart.  With an odd count the median op falls in the middle of the middle
#: file's cluster rather than in the gap between two clusters, where which
#: side p50 lands on would depend on the number of ops completed.
CSV_POOL = 33
#: step through the pool ranks: of the steps coprime to CSV_POOL, the one
#: that spreads any run of consecutive ops, and hence the unfinished last
#: pass, most evenly over the file sizes and around the median file
CSV_STRIDE = 7
#: one pool file in CSV_INFEASIBLE_EVERY is two-level data whose kurtosis
#: lies below the feasible range, so the Samuelson fallback runs
CSV_INFEASIBLE_EVERY = 5


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class Kronecker:
    """Roberts' R_d sequence with a seeded offset per dimension."""

    def __init__(self, seed: int, dims: int, tag: str):
        g = 2.0
        for _ in range(80):  # g solves g**(dims+1) = g + 1
            g = (1.0 + g) ** (1.0 / (dims + 1))
        self.alphas = [(1.0 / g) ** (k + 1) % 1.0 for k in range(dims)]
        rng = random.Random(f"{seed}:{tag}")
        self.offsets = [rng.random() for _ in range(dims)]

    def point(self, i: int) -> list[float]:
        return [(o + i * a) % 1.0 for o, a in zip(self.offsets, self.alphas)]


class ValidateStream:
    """Derive a quoted tail factor, validate it, and evaluate two bounds."""

    name = "validate-stream"

    def __init__(self, seed: int):
        self.seq = Kronecker(seed, 6, self.name)

    def op(self, i: int) -> dict:
        return self._op(self.seq.point(i))

    def warmup(self) -> dict:
        return self._op([0.5] * 6)

    @staticmethod
    def _op(u: list[float]) -> dict:
        history = round(_log_uniform(u[3], 250, 1e6))
        if u[0] < 0.2:
            # a BLR tail factor belongs to its kurtosis column, so that
            # column is the kurtosis the model is validated at
            return {"kind": "blr", "label": BLR_LABELS[int(u[5] * 6)],
                    "kappa": BLR_COLUMNS[int(u[4] * 4)], "history": history}
        op = {"kind": "student-t" if u[0] < 0.6 else "normal",
              "horizon": _log_uniform(u[1], 250, HORIZON_MAX),
              "kappa": 3.0 + 17.0 * u[4], "history": history}
        if op["kind"] == "student-t":
            op["dof"] = round(_log_uniform(u[2], 1, 200))
        return op


class ShapeSearch:
    """One outlier search on one of the four base shapes."""

    name = "shape-search"

    def __init__(self, seed: int):
        self.seq = Kronecker(seed, 2, self.name)
        self.phase = random.Random(f"{seed}:{self.name}:phase").randrange(4)

    def op(self, i: int) -> dict:
        u = self.seq.point(i)
        return {"kind": SHAPES[(i + self.phase) % 4],
                "m": round(_log_uniform(u[0], 500, 100_000)),
                "kappa": SEARCH_KAPPAS[int(u[1] * 4)]}

    def warmup(self) -> dict:
        return {"kind": "uniform", "m": round(_log_uniform(0.5, 500, 100_000)),
                "kappa": SEARCH_KAPPAS[2]}


class EmpiricalCsv:
    """``tailbound empirical FILE`` in-process on a pool of seeded CSVs."""

    name = "empirical-csv"

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.seq = Kronecker(seed, 2, self.name)
        rng = random.Random(f"{seed}:{self.name}:pool")
        # every seed gets the same pool design: the file of rank r has the
        # r-th of CSV_POOL evenly spaced quantiles of the log-uniform row
        # count and a layout fixed by r, so the largest file (which sets peak
        # memory) and the mix of sizes and branches do not vary with the
        # seed; the seed draws the values, the file names and the phase
        names = list(range(CSV_POOL))
        rng.shuffle(names)
        self.files = [self._spec(names[rank], rank) for rank in range(CSV_POOL)]
        self.phase = rng.randrange(CSV_POOL)
        self.fmt_phase = rng.randrange(3)
        self.warmup_file = {"path": os.path.join(work, "warmup.csv"),
                            "rows": round(_log_uniform(0.5, 250, 250_000)),
                            "dated": True, "header": True, "infeasible": False,
                            "rng": f"{seed}:csv:warmup"}

    def _spec(self, j: int, rank: int) -> dict:
        return {"path": os.path.join(self.work, f"returns-{j:02d}.csv"),
                "rows": round(_log_uniform(rank / (CSV_POOL - 1), 250, 250_000)),
                "dated": rank % 2 == 0, "header": rank % 4 < 2,
                "infeasible": rank % CSV_INFEASIBLE_EVERY == 2,
                "rng": f"{self.seed}:csv:{j}"}

    def prepare(self) -> None:
        for spec in self.files + [self.warmup_file]:
            write_csv(spec)

    def op(self, i: int) -> dict:
        rank = (i + self.phase) * CSV_STRIDE % CSV_POOL
        return self._op(self.files[rank], self.seq.point(i), FORMATS[(i + self.fmt_phase) % 3])

    def warmup(self) -> dict:
        return self._op(self.warmup_file, [0.5, 0.5], "json")

    @staticmethod
    def _op(spec: dict, u: list[float], fmt: str) -> dict:
        tail_factor = _log_uniform(u[0], 4.0, 40.0)
        precision = PRECISIONS[int(u[1] * 3)]
        return {"path": spec["path"], "tail_factor": tail_factor, "format": fmt,
                "precision": precision,
                "argv": ["empirical", spec["path"], "--tail-factor", repr(tail_factor),
                         "--format", fmt, "--precision", str(precision)]}


def write_csv(spec: dict) -> None:
    """Write one return series following the CLI's CSV contract.

    Feasible files are a normal scale mixture (kurtosis about 8); infeasible
    ones alternate +-1% with a 1e-4 relative jitter, so their kurtosis sits
    just above 1, below the feasible floor n/(n-1).
    """
    rng = random.Random(spec["rng"])
    gauss, exp = rng.gauss, math.exp
    start = datetime.date(2000, 1, 3).toordinal()
    lines = []
    if spec["header"]:
        lines.append("date,return" if spec["dated"] else "return")
    for k in range(spec["rows"]):
        if spec["infeasible"]:
            x = (0.01 if k % 2 else -0.01) * (1.0 + 1e-4 * gauss(0.0, 1.0))
        else:
            x = 0.01 * exp(0.5 * gauss(0.0, 1.0)) * gauss(0.0, 1.0)
        if spec["dated"]:
            lines.append(f"{datetime.date.fromordinal(start + k).isoformat()},{x:.10g}")
        else:
            lines.append(f"{x:.10g}")
    with open(spec["path"], "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


class CliOneshot:
    """``python -m tailbound <argv>`` as one subprocess per op."""

    name = "cli-oneshot"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{seed}:{self.name}:phase")
        self.kind_phase = rng.randrange(len(CLI_KINDS))
        self.fmt_phase = rng.randrange(3)

    def op(self, i: int) -> dict:
        rng = random.Random(f"{self.seed}:{self.name}:{i}")
        kind = CLI_KINDS[(i + self.kind_phase) % len(CLI_KINDS)]
        # the format advances once per full rotation of subcommands, so
        # every (subcommand, format) pair recurs every 21 ops
        fmt = FORMATS[(i // len(CLI_KINDS) + self.fmt_phase) % 3]
        precision = rng.choice(PRECISIONS)
        op: dict = {"kind": kind, "format": fmt, "precision": precision}
        if kind == "shock-table" or kind.startswith("bounds-"):
            op["n"] = sorted(rng.sample(CLI_N_POOL, rng.randint(3, 6)))
            op["kurtosis"] = sorted(rng.sample(CLI_KAPPA_POOL, rng.randint(2, 4)))
            head = (["shock-table"] if kind == "shock-table"
                    else ["bounds", "--method", kind[len("bounds-"):]])
            argv = head + ["--n", *map(str, op["n"]),
                           "--kurtosis", *map(repr, op["kurtosis"])]
        elif kind == "tail-factor":
            op["model"] = rng.choice(("normal", "student-t"))
            op["horizon"] = float(f"{_log_uniform(rng.random(), 250, HORIZON_MAX):.4g}")
            argv = ["tail-factor", "--model", op["model"], "--horizon", repr(op["horizon"])]
            if op["model"] == "student-t":
                op["dof"] = round(_log_uniform(rng.random(), 1, 200))
                argv += ["--dof", str(op["dof"])]
        elif kind == "validate":
            op["tail_factor"] = round(_log_uniform(rng.random(), 3.0, 40.0), 3)
            op["kappa"] = round(rng.uniform(3.0, 20.0), 2)
            op["history"] = round(_log_uniform(rng.random(), 10, 1e6))
            argv = ["validate", "--tail-factor", repr(op["tail_factor"]),
                    "--kurtosis", repr(op["kappa"]), "--history", str(op["history"])]
        else:
            op["label"] = rng.choice(BLR_LABELS)
            op["kappa"] = float(rng.choice(BLR_COLUMNS))
            op["history"] = round(_log_uniform(rng.random(), 10, 1e6))
            argv = ["validate", "--blr", "--g-inv", op["label"],
                    "--kurtosis", repr(op["kappa"]), "--history", str(op["history"])]
        op["argv"] = argv + ["--format", fmt, "--precision", str(precision)]
        return op


def make(workload: str, seed: int, work: str):
    """The generator for one workload and seed; CSVs go under ``work``."""
    if workload == "cli-oneshot":
        return CliOneshot(seed)
    if workload == "validate-stream":
        return ValidateStream(seed)
    if workload == "shape-search":
        return ShapeSearch(seed)
    if workload == "empirical-csv":
        return EmpiricalCsv(seed, work)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
