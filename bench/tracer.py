"""Span tracer that wraps tailbound's layer functions from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``tailbound`` module namespace that binds it, so calls between modules
(``validator`` calling ``solve_extreme_point``, ``cli`` calling
``read_return_csv``) are seen as well as calls from the benchmark.  Each
call records a span ``(name, start_ns, end_ns, parent, op, error, size)``;
spans stay in memory until the run ends.  Nothing is patched unless a
traced run asks for it, so untraced runs pay nothing.

A span's self time is its duration minus the durations of its direct
children; children of one span never overlap because the program is
single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs whose calls are spans.  The cli build_* document
# builders are added by prefix in install().
TRACED = (
    ("extreme_point", "solve_extreme_point"),
    ("extreme_point", "oracle_moments"),
    ("validator", "validate_model"),
    ("validator", "max_safe_history"),
    ("validator", "empirical_validate"),
    ("distributions", "student_t_quantile"),
    ("distributions", "normal_quantile"),
    ("chebyshev_bounds", "even_moment_bound"),
    ("chebyshev_bounds", "zelen_bound"),
    ("chebyshev_bounds", "bhattacharyya_bound"),
    ("appendix_search", "search_outlier"),
    ("appendix_search", "generate_base"),
    ("cli", "build_parser"),
    ("cli", "read_return_csv"),
)

BOUND_SPANS = ("chebyshev_bounds.even_moment_bound", "chebyshev_bounds.zelen_bound",
               "chebyshev_bounds.bhattacharyya_bound")

ERROR, INVALID = 1, 2


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return -1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, size_of=None, invalid=()):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            err = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = INVALID if isinstance(exc, invalid) else ERROR
                raise
            finally:
                t1 = clock()
                stack.pop()
                size = size_of(args, out) if size_of is not None else -1
                spans[sid] = (name, t0, t1, parent, self.op, err, size)

        return traced

    def install(self) -> None:
        """Wrap the traced functions of the already imported tailbound."""
        from tailbound import cli, errors, output

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "tailbound" or name.startswith("tailbound.")}
        targets = [(m, f) for m, f in TRACED]
        targets += [("cli", f) for f in vars(cli)
                    if f.startswith("build_") and f != "build_parser"]
        for mod_name, fn_name in targets:
            original = getattr(mods[f"tailbound.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "cli.build_parser":
                wrapped = self._wrap_parser(original)
            elif name in BOUND_SPANS:
                wrapped = self.wrap(name, original, invalid=errors.BoundValidityError)
            elif name == "cli.read_return_csv":
                wrapped = self.wrap(name, original, size_of=lambda a, out: _size(out))
            elif name == "extreme_point.oracle_moments":
                wrapped = self.wrap(name, original, size_of=lambda a, out: _size(a[0]))
            else:
                wrapped = self.wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        output.OutputDocument.render = self.wrap(
            "output.render", output.OutputDocument.render,
            size_of=lambda a, out: len(out.encode("utf-8")) if isinstance(out, str) else -1)

    def _wrap_parser(self, build_parser):
        traced_build = self.wrap("cli.build_parser", build_parser)

        @functools.wraps(build_parser)
        def build():
            parser = traced_build()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        return build


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def aggregate(spans: list, scale: list[float]) -> dict:
    """Per-layer metrics from the spans of traced ops 0 .. len(scale) - 1.

    Span durations are multiplied by their op's speed scale (speed.py).
    Times are means per call (per op where the name says so); a layer the
    workload never calls reports 0.
    """
    n_ops = max(len(scale), 1)
    child_ns: dict[int, float] = {}
    for name, t0, t1, parent, op, *_ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0) * scale[op]

    by_name: dict[str, list] = {}
    for sid, span in enumerate(spans):
        name, t0, t1, parent, op, err, size = span
        dur = (t1 - t0) * scale[op]
        by_name.setdefault(name, []).append((dur, dur - child_ns.get(sid, 0), err, size, sid))

    def calls(name):
        return by_name.get(name, [])

    def total(names, key):
        return sum(rec[key] for n in names for rec in calls(n))

    builders = [n for n in by_name if n.startswith("cli.build_") and n != "cli.build_parser"]
    bounds = [rec for n in BOUND_SPANS for rec in calls(n)]
    safe = calls("validator.max_safe_history")
    safe_ids = {rec[4] for rec in safe}

    def under_safe(sid):
        parent = spans[sid][3]
        while parent >= 0:
            if parent in safe_ids:
                return True
            parent = spans[parent][3]
        return False

    solves = calls("extreme_point.solve_extreme_point")
    solves_in_safe = sum(1 for rec in solves if under_safe(rec[4]))
    us, ms = 1e-3, 1e-6
    return {
        "cli.parse_ms": total(["cli.build_parser", "cli.parse_args"], 0) * ms / n_ops,
        "cli.build_ms": total(builders, 1) * ms / n_ops,
        "output.render_us": _mean(r[0] for r in calls("output.render")) * us,
        "output.render_bytes": _mean(r[3] for r in calls("output.render")),
        "distributions.student_t_quantile_us":
            _mean(r[0] for r in calls("distributions.student_t_quantile")) * us,
        "distributions.normal_quantile_us":
            _mean(r[0] for r in calls("distributions.normal_quantile")) * us,
        "distributions.quantile_calls":
            (len(calls("distributions.student_t_quantile"))
             + len(calls("distributions.normal_quantile"))) / n_ops,
        "validator.validate_model_us": _mean(r[0] for r in calls("validator.validate_model")) * us,
        "validator.max_safe_history_self_us": _mean(r[1] for r in safe) * us,
        "validator.solves_per_max_safe_history": solves_in_safe / len(safe) if safe else 0.0,
        "extreme_point.solve_calls": len(solves) / n_ops,
        "extreme_point.solve_self_us": _mean(r[1] for r in solves) * us,
        "chebyshev_bounds.bound_us": _mean(r[0] for r in bounds) * us,
        "chebyshev_bounds.bound_calls": len(bounds) / n_ops,
        "chebyshev_bounds.invalid_ratio":
            sum(1 for r in bounds if r[2] == INVALID) / len(bounds) if bounds else 0.0,
        "appendix_search.search_outlier_ms":
            _mean(r[0] for r in calls("appendix_search.search_outlier")) * ms,
        "appendix_search.generate_base_ms":
            _mean(r[0] for r in calls("appendix_search.generate_base")) * ms,
        "appendix_search.search_calls": len(calls("appendix_search.search_outlier")) / n_ops,
        "cli.read_return_csv_ms": _mean(r[0] for r in calls("cli.read_return_csv")) * ms,
        "cli.read_return_csv_rows": _mean(r[3] for r in calls("cli.read_return_csv")),
        "extreme_point.oracle_moments_ms":
            _mean(r[0] for r in calls("extreme_point.oracle_moments")) * ms,
        "extreme_point.oracle_moments_points":
            _mean(r[3] for r in calls("extreme_point.oracle_moments")),
        "validator.empirical_validate_self_ms":
            _mean(r[1] for r in calls("validator.empirical_validate")) * ms,
    }
