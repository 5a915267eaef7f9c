"""The package surface: its public names, and which modules each subcommand
executes.  Every check runs in a fresh interpreter, since a module this test
process already executed cannot show whether a subcommand needed it."""

import json
import subprocess
import sys

import pytest

SUBMODULES = ("appendix_search", "chebyshev_bounds", "distributions", "errors",
              "extreme_point", "validator")
COMPUTE = ("appendix_search", "chebyshev_bounds", "distributions", "extreme_point",
           "validator")

# the 54 exports and six submodules that `from tailbound import *` binds
STAR_NAMES = {
    *SUBMODULES,
    "ComparisonRow", "KAPPA_TOL", "OutlierSearchResult", "SHAPES", "comparison_table",
    "generate_base", "search_outlier", "search_outlier_on_points",
    "BoundEvaluation", "bhattacharyya_bound", "even_moment_bound", "even_moment_endpoint",
    "zelen_bound",
    "BLR_TAIL_FACTORS", "TailFactorQuery", "blr_h_from_kurtosis", "blr_kurtosis",
    "blr_tail_factor", "normal_cdf", "normal_isf", "normal_quantile", "student_t_cdf",
    "student_t_isf", "student_t_kurtosis", "student_t_quantile",
    "BoundValidityError", "BracketRangeError", "DegenerateDataError", "DomainError",
    "InfeasibleKurtosisError", "MomentInfeasibleError", "SearchError", "TableLookupError",
    "TailboundError", "ThresholdTooSmallError",
    "ExtremePointSolution", "KurtosisRange", "Moments", "asymptotic_a",
    "construct_distribution", "feasible_floor", "feasible_kurtosis_range", "oracle_moments",
    "samuelson_bound", "solve_extreme_point",
    "DEFAULT_HISTORY_CEILING", "EmpiricalVerdict", "ModelVerdict", "ReturnSeries",
    "empirical_validate", "max_safe_history", "required_tail_factor", "validate_blr",
    "validate_model",
}


def _run(script: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_public_names_resolve_and_star_import_is_unchanged():
    script = (
        "import json, sys\n"
        "import tailbound\n"
        "listed = set(dir(tailbound))\n"
        "values = {name: getattr(tailbound, name) for name in tailbound.__all__}\n"
        "homes = [vars(sys.modules[f'tailbound.{m}']) for m in sys.argv[1:]]\n"
        "unhomed = [name for name, value in values.items()\n"
        "           if not isinstance(value, type(tailbound))\n"
        "           and not any(home.get(name) is value for home in homes)]\n"
        "try:\n"
        "    tailbound.x\n"
        "except AttributeError as exc:\n"
        "    unknown = repr(exc)\n"
        "star = {}\n"
        "exec('from tailbound import *', star)\n"
        "del star['__builtins__']\n"
        "print(json.dumps({'dir': sorted(listed), 'all': tailbound.__all__,\n"
        "                  'unhomed': unhomed, 'unknown': unknown, 'star': sorted(star)}))\n"
    )
    out = _run(script, *SUBMODULES)
    assert set(out["star"]) == STAR_NAMES
    assert sorted(out["all"]) == sorted(STAR_NAMES)  # and no name twice
    assert STAR_NAMES <= set(out["dir"])
    # each export is its module's own object, not a stale copy
    assert out["unhomed"] == []
    assert out["unknown"] == "AttributeError(\"module 'tailbound' has no attribute 'x'\")"


def test_each_module_declares_exactly_what_the_package_serves():
    script = (
        "import json, sys\n"
        "import tailbound\n"
        "served = set(tailbound.__all__)\n"
        "declared, unserved, stale = [], [], []\n"
        "for m in sys.argv[1:]:\n"
        "    module = sys.modules[f'tailbound.{m}']\n"
        "    declared += module.__all__\n"
        "    unserved += [name for name in module.__all__ if name not in served]\n"
        "    stale += [name for name in module.__all__\n"
        "              if name in served and getattr(tailbound, name) is not getattr(module, name)]\n"
        "print(json.dumps({'declared': declared, 'unserved': unserved, 'stale': stale,\n"
        "                  'errors': tailbound.errors.__all__}))\n"
    )
    out = _run(script, *COMPUTE)
    assert out["unserved"] == []
    assert out["stale"] == []
    # the five lists and the errors' list are the package's exports, each name once
    exported = sorted(STAR_NAMES - set(SUBMODULES))
    assert sorted(out["declared"] + out["errors"]) == exported


EXECUTED_BY = [
    (["shock-table"], {"extreme_point"}),
    (["tail-factor", "--model", "normal", "--horizon", "1000"], {"distributions"}),
    (["validate", "--tail-factor", "50", "--kurtosis", "7", "--history", "1000"],
     {"extreme_point", "validator"}),
    (["validate", "--blr", "--g-inv", "6m", "--kurtosis", "7", "--history", "1000"],
     {"distributions", "extreme_point", "validator"}),
    (["bounds", "--method", "even-moment"], {"chebyshev_bounds"}),
    (["bounds", "--method", "zelen"], {"chebyshev_bounds", "extreme_point"}),
    (["bounds", "--method", "bhattacharyya"], {"chebyshev_bounds", "extreme_point"}),
    (["appendix", "--n", "500"], {"appendix_search", "extreme_point"}),
    (["empirical", "RETURNS", "--tail-factor", "50"], {"extreme_point", "validator"}),
]


@pytest.mark.parametrize("argv, compute", EXECUTED_BY,
                         ids=[" ".join(argv[:3]) for argv, _ in EXECUTED_BY])
def test_each_subcommand_executes_only_the_modules_it_uses(argv, compute, tmp_path):
    # a lazy module turns into a plain module on its first attribute access
    script = (
        "import contextlib, io, json, sys, types\n"
        "def executed():\n"
        "    return sorted(name.partition('.')[2] for name, module in sys.modules.items()\n"
        "                  if name.startswith('tailbound.') and type(module) is types.ModuleType)\n"
        "import tailbound\n"
        "on_import = executed()\n"
        "import tailbound.cli\n"
        "# bench/tracer.py looks every traced module up here right after this import\n"
        f"missing = [m for m in {COMPUTE!r} if f'tailbound.{{m}}' not in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = tailbound.cli.main(sys.argv[1:])\n"
        "print(json.dumps({'import': on_import, 'missing': missing, 'code': code,\n"
        "                  'run': executed()}))\n"
    )
    returns = tmp_path / "returns.csv"
    returns.write_text("".join(f"{(-1) ** i * (i % 7) / 100}\n" for i in range(200)))
    out = _run(script, *[str(returns) if a == "RETURNS" else a for a in argv])
    assert out["import"] == ["errors"]
    assert out["missing"] == []
    assert out["code"] == 0
    assert out["run"] == sorted({"cli", "errors", "output"} | compute)
