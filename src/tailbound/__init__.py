"""tailbound: kurtosis-constrained extreme-deviation bounds.

How far, in standard deviations, can one observation sit from the mean of
an n-point sample with a given kurtosis?  The closed-form answer, the
Chebyshev-type probability bounds around it, and a validator that applies
both to stress-test shock models.

Importing the package executes only :mod:`tailbound.errors`.  The five
compute modules are placed in ``sys.modules`` at once but execute on the
first attribute access, so a one-shot ``tailbound`` call compiles only the
modules its subcommand uses.  Their public names are served from here on
first use.
"""

import importlib.util as _util
import sys as _sys

from . import errors
from .errors import *

__version__ = "0.1.0"

# the public names of each lazily executed module, the only list of them:
# each module reads its __all__ from here
_EXPORTS = {
    "appendix_search": (
        "ComparisonRow",
        "KAPPA_TOL",
        "OutlierSearchResult",
        "SHAPES",
        "comparison_table",
        "generate_base",
        "search_outlier",
        "search_outlier_on_points",
    ),
    "chebyshev_bounds": (
        "BoundEvaluation",
        "bhattacharyya_bound",
        "even_moment_bound",
        "even_moment_endpoint",
        "zelen_bound",
    ),
    "distributions": (
        "BLR_TAIL_FACTORS",
        "TailFactorQuery",
        "blr_h_from_kurtosis",
        "blr_kurtosis",
        "blr_tail_factor",
        "normal_cdf",
        "normal_isf",
        "normal_quantile",
        "student_t_cdf",
        "student_t_isf",
        "student_t_kurtosis",
        "student_t_quantile",
    ),
    "extreme_point": (
        "ExtremePointSolution",
        "KurtosisRange",
        "Moments",
        "asymptotic_a",
        "construct_distribution",
        "feasible_floor",
        "feasible_kurtosis_range",
        "oracle_moments",
        "samuelson_bound",
        "solve_extreme_point",
    ),
    "validator": (
        "DEFAULT_HISTORY_CEILING",
        "EmpiricalVerdict",
        "ModelVerdict",
        "ReturnSeries",
        "empirical_validate",
        "max_safe_history",
        "validate_model",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*errors.__all__, *_ORIGIN, "errors", *_EXPORTS]

for _name in _EXPORTS:
    # the stdlib lazy-import recipe: the module object exists from here on,
    # so `from . import validator` and a lookup in sys.modules both find it,
    # and its code runs on the first attribute access
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _util.module_from_spec(_spec)
    _sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
