"""Correctness oracles, written here rather than imported from tailbound.

Each ``check_*`` function takes the op that was run and the result the
worker recorded, and returns a list of problems (empty when the op is
correct).  The checks run after the timed loop has ended.

* ``a(n, kappa)`` comes from a factored form of the closed-form root and is
  compared at 1e-12 relative.
* A ``max_safe_history`` result s must satisfy a(s) <= tf < a(s+1).
* Tail factors are compared with ``scipy.stats.{t,norm}.isf(1/horizon)``
  at 1e-8 relative, the accuracy the test suite promises.
* Moments of CSVs and of searched datasets are ``math.fsum`` sums of
  centred powers; a searched dataset must reach its target kurtosis within
  KAPPA_TOL.
* CLI exit codes follow the 0/1/2/3 contract, no run may print a
  traceback, and JSON output must validate against docs/output_schema.json.

Rendered cells are compared at the precision they were printed with: half
a unit in the last printed decimal on top of the relative tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal

KAPPA_TOL = 1e-9
#: fsum and numpy's pairwise sums may round a kurtosis differently
KAPPA_ROUNDING = 1e-12
HISTORY_CEILING = 10**9
A_REL = 1e-12
TAIL_REL = 1e-8
BOUND_REL = 1e-9

#: published BLR 1-day tail factors (rho = 0.5, survival 0.9997), by 1/g then kurtosis
BLR_TABLE = {
    "1m": {7: 13.648, 10: 17.485, 13: 20.445, 16: 22.873},
    "2m": {7: 13.397, 10: 17.148, 13: 20.041, 16: 22.412},
    "3m": {7: 13.278, 10: 16.986, 13: 19.846, 16: 22.190},
    "4m": {7: 13.204, 10: 16.886, 13: 19.726, 16: 22.053},
    "5m": {7: 13.153, 10: 16.817, 13: 19.642, 16: 21.958},
    "6m": {7: 13.115, 10: 16.765, 13: 19.579, 16: 21.886},
}

EITHER = object()  # an expected value too close to a decision boundary to call
INFEASIBLE = "infeasible"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def extreme_point(n: float, kappa: float) -> tuple[float, float] | None:
    """(a, theta3) of the extremal configuration, or None when infeasible.

    Uses the factored root a**2 = r*(1 + sqrt(1 + (n+1)*((n-1)*kappa - n)/(n-3))),
    r = (n-1)/(n+1), an arrangement of the quadratic's larger root that
    shares no intermediate with tailbound's.
    """
    if n < 5 or not n / (n - 1) < kappa <= (n * n - 3 * n + 3) / (n - 1):
        return None
    r = (n - 1) / (n + 1)
    a = math.sqrt(r * (1.0 + math.sqrt(1.0 + (n + 1) * ((n - 1) * kappa - n) / (n - 3))))
    return a, a * ((n + 1) * a * a / (n - 1) - 3.0) / (n - 1)


def a_closed(n: float, kappa: float) -> float | None:
    sol = extreme_point(n, kappa)
    return None if sol is None else sol[0]


def bound(method: str, kappa: float, sol: tuple[float, float] | None):
    """Expected probability of the Zelen/Bhattacharyya bound at t = a.

    sol is :func:`extreme_point` at (n, kappa).  INFEASIBLE when (n, kappa)
    is infeasible or the bound's validity condition fails; EITHER when a
    validity margin is within rounding.
    """
    if sol is None:
        return INFEASIBLE
    t, th3 = sol
    d = kappa - th3 * th3 - 1.0
    s = t * t - t * th3 - 1.0
    if abs(d) < 1e-9 or abs(s) < 1e-9:
        return EITHER
    if d < 0 or s < 0:
        return INFEASIBLE
    if method == "zelen":
        return 1.0 / (1.0 + t * t + s * s / d)
    return d / (d * (1.0 + t * t) + s)


def feasibility_floor(kappa: float) -> int:
    n = 5
    while extreme_point(n, kappa) is None:
        n += 1
    return n


def safe_history_problems(safe, tf: float, kappa: float) -> list[str]:
    """The bracket a(s) <= tf < a(s+1) around a max_safe_history result s."""
    lo, hi = tf * (1 - A_REL), tf * (1 + A_REL)
    if safe is None:
        a_top = a_closed(HISTORY_CEILING, kappa)
        return [] if a_top is not None and a_top <= hi else [
            f"max_safe_history unbounded but a(ceiling)={a_top!r} > tf={tf!r}"]
    if safe == 0:
        a_floor = a_closed(feasibility_floor(kappa), kappa)
        return [] if a_floor > lo else [
            f"max_safe_history 0 but a(floor)={a_floor!r} <= tf={tf!r}"]
    a_s, a_next = a_closed(safe, kappa), a_closed(safe + 1, kappa)
    if a_s is None or a_next is None or not (a_s <= hi and a_next > lo):
        return [f"max_safe_history {safe}: a(s)={a_s!r}, a(s+1)={a_next!r}, tf={tf!r}"]
    return []


def tail_references(queries: list[tuple[str, float, int | None]]) -> list[float]:
    """scipy isf(1/horizon) for each (model, horizon, dof), vectorised per model."""
    import numpy as np
    from scipy import stats

    out = [math.nan] * len(queries)
    normal = [k for k, q in enumerate(queries) if q[0] == "normal"]
    student = [k for k, q in enumerate(queries) if q[0] == "student-t"]
    if normal:
        h = np.array([queries[k][1] for k in normal])
        for k, v in zip(normal, stats.norm.isf(1.0 / h)):
            out[k] = float(v)
    if student:
        h = np.array([queries[k][1] for k in student])
        dof = np.array([queries[k][2] for k in student], dtype=float)
        for k, v in zip(student, stats.t.isf(1.0 / h, dof)):
            out[k] = float(v)
    return out


def close(actual: float, expected: float, rel: float, precision: int | None = None,
          abs_tol: float = 0.0) -> bool:
    tol = rel * abs(expected) + abs_tol
    if precision is not None:
        tol += 0.5 * 10.0**-precision * (1 + 1e-9)
    return abs(actual - expected) <= tol


# ---------------------------------------------------------------------------
# rendered tables
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def load_schema_validator(path: str):
    import jsonschema

    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def parse_table(fmt: str, text: str, schema) -> tuple[list, list[list]]:
    """Columns and rows of a rendered document.

    Raises:
        ValueError: the text is not a well-formed document of that format.
    """
    if fmt == "json":
        payload = json.loads(text, parse_constant=_reject_constant)
        errors = [e.message for e in schema.iter_errors(payload)]
        if errors:
            raise ValueError(f"JSON output violates the schema: {errors[:3]}")
        return payload["columns"], payload["rows"]
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
        if not records:
            raise ValueError("empty CSV output")
        return records[0], records[1:]
    table = [line for line in text.splitlines() if line.startswith("|")]
    if len(table) < 2:
        raise ValueError("no markdown table in output")
    cells = [[c.strip() for c in line.strip()[1:-1].split("|")] for line in table]
    return cells[0], cells[2:]


def cell_problem(actual, expected, precision: int, rel: float, abs_tol: float = 0.0) -> str | None:
    if expected is EITHER:
        return None
    if isinstance(expected, str):
        ok = actual == expected
    elif expected is None:
        ok = actual in (None, "")
    elif isinstance(expected, int):
        try:
            ok = int(actual) == expected and not isinstance(actual, float)
        except (TypeError, ValueError):
            ok = False
    else:
        try:
            ok = close(float(actual), expected, rel, precision, abs_tol)
        except (TypeError, ValueError):
            ok = False
    return None if ok else f"cell {actual!r} != expected {expected!r}"


def table_problems(result: dict, op: dict, expected_code, columns, rows, schema) -> list[str]:
    """Exit code, stderr and every cell of one CLI run.

    rows holds (expected value, relative tolerance[, absolute tolerance])
    tuples; expected_code may be EITHER.
    """
    code, stdout, stderr = result["code"], result["stdout"], result["stderr"]
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if code not in (0, 1, 2, 3):
        problems.append(f"exit code {code} outside the 0/1/2/3 contract")
    elif expected_code is not EITHER and code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if code not in (0, 2, 3) or (code == 3 and columns is None):
        return problems
    try:
        got_columns, got_rows = parse_table(op["format"], stdout, schema)
    except ValueError as exc:
        return problems + [str(exc)]
    if columns is not None and list(got_columns) != columns:
        problems.append(f"columns {got_columns!r} != {columns!r}")
    if len(got_rows) != len(rows):
        return problems + [f"{len(got_rows)} rows, expected {len(rows)}"]
    for got_row, want_row in zip(got_rows, rows):
        if len(got_row) != len(want_row):
            problems.append(f"row {got_row!r} has {len(got_row)} cells")
            continue
        for actual, (expected, *tolerances) in zip(got_row, want_row):
            problem = cell_problem(actual, expected, op["precision"], *tolerances)
            if problem:
                problems.append(problem)
    return problems


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _verdict(margin: float, tf: float):
    if abs(margin) <= A_REL * max(1.0, tf):
        return EITHER
    return "PASS" if margin >= 0 else "FAIL"


def check_validate_stream(op: dict, r: dict, tf_ref: float | None) -> list[str]:
    if "error" in r:
        return [f"raised {r['error']}"]
    problems = []
    tf, n, kappa = r["tf"], op["history"], op["kappa"]
    if op["kind"] == "blr":
        if tf != BLR_TABLE[op["label"]][op["kappa"]]:
            problems.append(f"BLR tail factor {tf!r} is not the published value")
    elif not close(tf, tf_ref, TAIL_REL):
        problems.append(f"{op['kind']} tail factor at horizon {op['horizon']:.6g}"
                        f"{' dof ' + str(op['dof']) if 'dof' in op else ''}: {tf!r}, "
                        f"scipy {tf_ref!r} (rel {abs(tf - tf_ref) / tf_ref:.2e})")
    sol = extreme_point(n, kappa)
    a, theta3 = sol
    for name in ("required_a", "a"):
        if not close(r[name], a, A_REL):
            problems.append(f"{name} {r[name]!r} != a({n}, {kappa!r}) = {a!r}")
    if not close(r["theta3"], theta3, A_REL * 100):
        problems.append(f"theta3 {r['theta3']!r} != {theta3!r}")
    if not math.isclose(r["margin"], tf - r["required_a"], rel_tol=0, abs_tol=1e-15 * max(1, tf)):
        problems.append(f"margin {r['margin']!r} != tf - required_a")
    if r["passed"] != (r["margin"] >= 0):
        problems.append("passed disagrees with margin >= 0")
    problems += safe_history_problems(r["safe"], tf, kappa)
    for method in ("zelen", "bhattacharyya"):
        want, got = bound(method, kappa, sol), r[method]
        if want is EITHER:
            continue
        if want == INFEASIBLE:
            if got is not None:
                problems.append(f"{method} bound {got!r} where the bound is invalid")
        elif got is None or not close(got, want, BOUND_REL):
            problems.append(f"{method} bound {got!r} != {want!r}")
    return problems


def shape_base(kind: str, m: int) -> list[tuple[float, int]]:
    """The m-point base as (value, count) pairs, by the documented rules."""
    if kind == "bimodal":
        return [(-1.0, m // 2), (1.0, m - m // 2)]
    if kind == "trimodal":
        third, rem = divmod(m, 3)
        side = third + (rem == 2)
        return [(-1.0, side), (0.0, third + (rem == 1)), (1.0, side)]
    if kind == "two_thirds":
        ones = round(m / 3)
        return [(0.0, m - ones), (1.0, ones)]
    step = 2.0 / (m - 1)
    return [(-1.0 + i * step, 1) for i in range(m - 1)] + [(1.0, 1)]


def weighted_moments(pairs: list[tuple[float, int]]) -> tuple[float, float, float]:
    """(mean, M2, M4) of a dataset given as (value, count) pairs, by fsum."""
    n = sum(c for _, c in pairs)
    mean = math.fsum(c * v for v, c in pairs) / n
    m2 = math.fsum(c * (v - mean) ** 2 for v, c in pairs) / n
    m4 = math.fsum(c * (v - mean) ** 4 for v, c in pairs) / n
    return mean, m2, m4


def check_shape_search(op: dict, r: dict) -> list[str]:
    if "error" in r:
        return [f"raised {r['error']}"]
    base = shape_base(op["kind"], op["m"])
    x = r["x"]
    problems = []
    if not x > max(v for v, _ in base):
        problems.append(f"outlier {x!r} is not above the base maximum")
    mean, m2, m4 = weighted_moments(base + [(x, 1)])
    kappa = m4 / (m2 * m2)
    if abs(kappa - op["kappa"]) > KAPPA_TOL + KAPPA_ROUNDING:
        problems.append(f"fsum kurtosis {kappa!r} misses target {op['kappa']} by "
                        f"{abs(kappa - op['kappa']):.2e}")
    if not math.isclose(r["kappa"], kappa, rel_tol=0, abs_tol=KAPPA_ROUNDING * 10):
        problems.append(f"achieved_kappa {r['kappa']!r} != fsum kurtosis {kappa!r}")
    a = (x - mean) / math.sqrt(m2)
    if not close(r["a"], a, 1e-9):
        problems.append(f"a_statistic {r['a']!r} != (x - mean)/sigma = {a!r}")
    return problems


def read_series(path: str) -> list[float]:
    """Observations of a CSV per the CLI contract (header, date,value, blanks)."""
    values = []
    first = True
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            field = line.rsplit(",", 1)[-1].strip()
            if first:
                first = False
                try:
                    float(field)
                except ValueError:
                    continue
            values.append(float(field))
    return values


def series_stats(path: str) -> dict:
    values = read_series(path)
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / n
    sigma = math.sqrt(var)
    return {"n": n, "mean": mean, "sigma": sigma,
            "kurtosis": math.fsum((x - mean) ** 4 for x in values) / n / (var * var),
            "max_dev": max(abs(x - mean) for x in values) / sigma}


EMPIRICAL_COLUMNS = ["n", "mean", "sigma", "kurtosis", "max_abs_dev_sigmas", "tail_factor",
                     "required_a", "margin", "historical_breach", "kurtosis_infeasible",
                     "verdict"]


def check_empirical(op: dict, r: dict, stats: dict, schema) -> list[str]:
    if "error" in r:
        return [f"raised {r['error']}"]
    n, kappa, tf = stats["n"], stats["kurtosis"], op["tail_factor"]
    k_min, k_max = n / (n - 1), (n * n - 3 * n + 3) / (n - 1)
    infeasible = not k_min < kappa <= k_max
    required = math.sqrt(n - 1) if infeasible else a_closed(n, kappa)
    margin = tf - required
    breach = stats["max_dev"] > tf
    verdict = "FAIL" if breach else _verdict(margin, tf)
    code = EITHER if verdict is EITHER else (0 if verdict == "PASS" else 2)
    row = [(n, 0), (stats["mean"], A_REL), (stats["sigma"], A_REL), (kappa, A_REL),
           (stats["max_dev"], A_REL), (tf, 1e-15), (required, A_REL),
           (margin, 0, A_REL * max(tf, required)), (str(breach), 0), (str(infeasible), 0), (verdict, 0)]
    return table_problems(r, op, code, EMPIRICAL_COLUMNS, [row], schema)


def _kappa_headers(kappas):
    return [f"kurtosis={k:g}" for k in kappas]


def check_cli(op: dict, r: dict, tf_ref: float | None, schema) -> list[str]:
    if "error" in r:
        return [f"raised {r['error']}"]
    kind = op["kind"]
    if kind == "shock-table":
        rows = [[(n, 0), (math.sqrt(n - 1), 1e-15)]
                + [(a if (a := a_closed(n, k)) is not None else INFEASIBLE, A_REL)
                   for k in op["kurtosis"]] for n in op["n"]]
        columns = ["N", "sqrt(N-1)"] + _kappa_headers(op["kurtosis"])
    elif kind.startswith("bounds-"):
        method = kind[len("bounds-"):]
        rows = []
        for n in op["n"]:
            row = [(n, 0)]
            for k in op["kurtosis"]:
                if method == "even-moment":
                    row.append(((n * k) ** 0.25, A_REL))
                    continue
                p = bound(method, k, extreme_point(n, k))
                if method == "zelen" and isinstance(p, float):
                    p = 1.0 / p
                row.append((p, BOUND_REL))
            rows.append(row)
        columns = ["N"] + _kappa_headers(op["kurtosis"])
    elif kind == "tail-factor":
        h = op["horizon"]
        rows = [[(op["model"], 0), (op.get("dof"), 0), (h, 1e-15),
                 (float(1 - Decimal(1) / Decimal(h)), 1e-16), (tf_ref, TAIL_REL)]]
        columns = ["model", "dof", "horizon_n", "probability", "tail_factor"]
        return table_problems(r, op, 0, columns, rows, schema)
    else:
        tf = op["tail_factor"] if kind == "validate" else BLR_TABLE[op["label"]][int(op["kappa"])]
        required = a_closed(op["history"], op["kappa"])
        if required is None:
            return table_problems(r, op, 3, None, [], schema)
        margin = tf - required
        verdict = _verdict(margin, tf)
        code = EITHER if verdict is EITHER else (0 if verdict == "PASS" else 2)
        problems = table_problems(
            r, op, code,
            ["tail_factor", "history_n", "kurtosis", "required_a", "margin",
             "max_safe_history", "verdict"],
            [[(tf, 1e-15), (op["history"], 0), (op["kappa"], 1e-15), (required, A_REL),
              (margin, 0, A_REL * max(tf, required)), (EITHER, 0), (verdict, 0)]], schema)
        if not problems and r["code"] in (0, 2):
            _, got_rows = parse_table(op["format"], r["stdout"], schema)
            safe = got_rows[0][5]
            safe = None if safe == "unbounded" else int(safe)
            problems += safe_history_problems(safe, tf, op["kappa"])
        return problems
    has_infeasible = any(cell[0] == INFEASIBLE for row in rows for cell in row)
    has_either = any(cell[0] is EITHER for row in rows for cell in row)
    code = 3 if has_infeasible else (EITHER if has_either else 0)
    return table_problems(r, op, code, columns, rows, schema)
