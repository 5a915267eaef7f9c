"""The library contract: every public callable, fed a hostile number in any
one numeric argument, returns a result with no nan in it or raises a
TailboundError.  Nothing else escapes: no OverflowError, ZeroDivisionError,
MemoryError or silent nan.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailbound import appendix_search, chebyshev_bounds, distributions, extreme_point, validator
from tailbound.errors import TailboundError

MODULES = (extreme_point, validator, distributions, chebyshev_bounds, appendix_search)

HOSTILE = [math.nan, math.inf, -math.inf, 0.0, -0.0, True, 5e-324, 1.7e308,
           10**400, -(10**400), -3, 2**63 + 1]

DATA = [0.5, -1.0, 2.0, -0.25, 1.5, 0.0, -2.0]


class Data(list):
    """A data parameter: the hostile value replaces one of its items."""


def _tail_factor_query(*args):
    query = distributions.TailFactorQuery(*args)
    return query, query.probability, query.tail_factor()


# callable -> legitimate arguments; each numeric or Data argument is attacked.
# No legitimate size is above 10**4, so no call builds more than 10**5 points.
CALLS = {
    "feasible_kurtosis_range": (extreme_point.feasible_kurtosis_range, [100]),
    "feasible_floor": (extreme_point.feasible_floor, [7.0]),
    "solve_extreme_point": (extreme_point.solve_extreme_point, [100, 7.0]),
    "asymptotic_a": (extreme_point.asymptotic_a, [100, 7.0]),
    "samuelson_bound": (extreme_point.samuelson_bound, [100]),
    "construct_distribution": (extreme_point.construct_distribution, [101, 7.0]),
    "oracle_moments": (extreme_point.oracle_moments, [Data(DATA)]),
    "required_tail_factor": (validator.required_tail_factor, [250, 7.0]),
    "max_safe_history": (validator.max_safe_history, [10.0, 7.0, 10**4]),
    "validate_model": (validator.validate_model, [10.0, 250, 7.0]),
    "validate_blr": (validator.validate_blr, ["6m", 7.0, 250]),
    "empirical_validate": (validator.empirical_validate, [Data(DATA), 10.0]),
    "ReturnSeries": (validator.ReturnSeries.from_values, [Data(DATA)]),
    "normal_cdf": (distributions.normal_cdf, [1.0]),
    "normal_isf": (distributions.normal_isf, [0.01]),
    "normal_quantile": (distributions.normal_quantile, [0.01]),
    "student_t_cdf": (distributions.student_t_cdf, [1.0, 5]),
    "student_t_isf": (distributions.student_t_isf, [0.01, 5]),
    "student_t_quantile": (distributions.student_t_quantile, [0.01, 5]),
    "student_t_kurtosis": (distributions.student_t_kurtosis, [7]),
    "blr_kurtosis": (distributions.blr_kurtosis, [0.5, 1.0]),
    "blr_h_from_kurtosis": (distributions.blr_h_from_kurtosis, [7.0, 1.0]),
    "TailFactorQuery": (_tail_factor_query, [250.0, "student-t", 5]),
    "blr_tail_factor": (distributions.blr_tail_factor, ["6m", 7.0]),
    "even_moment_bound": (chebyshev_bounds.even_moment_bound, [2.0, 2, 7.0]),
    "even_moment_endpoint": (chebyshev_bounds.even_moment_endpoint, [1000, 7.0]),
    "zelen_bound": (chebyshev_bounds.zelen_bound, [3.0, 0.0, 5.0]),
    "bhattacharyya_bound": (chebyshev_bounds.bhattacharyya_bound, [3.0, 0.0, 5.0]),
    "generate_base": (appendix_search.generate_base, ["uniform", 100]),
    "search_outlier": (appendix_search.search_outlier, ["uniform", 101, 16.0]),
    "search_outlier_on_points": (appendix_search.search_outlier_on_points, [Data(DATA), 5.0]),
    "comparison_table": (appendix_search.comparison_table, [Data([100, 300]), 16.0]),
}

# records: their constructors store what they are given and check nothing
RECORDS = {"KurtosisRange", "ExtremePointSolution", "Moments", "ModelVerdict",
           "EmpiricalVerdict", "BoundEvaluation", "OutlierSearchResult", "ComparisonRow"}


def _nans(result):
    if isinstance(result, float):
        return [result] if result != result else []
    if isinstance(result, (tuple, list)):
        return [x for item in result for x in _nans(item)]
    return []


def test_every_public_callable_is_covered():
    public = {name for module in MODULES for name in module.__all__
              if callable(getattr(module, name))}
    assert public == set(CALLS) | RECORDS


@pytest.mark.parametrize("name", sorted(CALLS))
def test_legitimate_arguments_return(name):
    call, args = CALLS[name]
    assert not _nans(call(*args))


@pytest.mark.parametrize("name", sorted(CALLS))
@given(data=st.data())
def test_a_hostile_number_ends_in_a_value_or_a_tailbound_error(name, data):
    call, args = CALLS[name]
    attacked = [i for i, arg in enumerate(args) if not isinstance(arg, str)]
    args = list(args)
    i = data.draw(st.sampled_from(attacked), label="position")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    if isinstance(args[i], Data):
        items = list(args[i])
        items[data.draw(st.integers(0, len(items) - 1), label="item")] = value
        args[i] = items
    else:
        args[i] = value
    try:
        result = call(*args)
    except TailboundError:
        return
    assert not _nans(result), result


@pytest.mark.parametrize("call, message", [
    (lambda: extreme_point.samuelson_bound(10**400),
     f"sample size must be a finite number of at least 2, got {10**400!r}"),
    (lambda: extreme_point.feasible_floor(1.0), "kurtosis must be a finite number above 1, got 1.0"),
    (lambda: distributions.normal_isf(1.5),
     "tail mass must be a finite number above 0 and below 1, got 1.5"),
    (lambda: chebyshev_bounds.zelen_bound(math.nan, 0.0, 5.0),
     "threshold t must be a finite number, got nan"),
    (lambda: validator.validate_model(7.0, -(10**400), 7.0),
     f"history length must be a finite number of at least 5, got {-(10**400)!r}"),
    (lambda: distributions.student_t_isf(0.1, 5.0), "degrees of freedom must be an integer >= 1, got 5.0"),
    (lambda: distributions.student_t_kurtosis(True), "degrees of freedom must be an integer >= 5, got True"),
    (lambda: chebyshev_bounds.even_moment_bound(2.0, 2**1024, 7.0),
     f"moment order k above {1.7976931348623157e308!r} is not supported, got {2**1024!r}"),
], ids=["samuelson", "floor", "isf", "zelen", "history", "dof-float", "dof-bool", "k-huge"])
def test_one_wording_for_each_check(call, message):
    with pytest.raises(TailboundError) as err:
        call()
    assert str(err.value) == message
