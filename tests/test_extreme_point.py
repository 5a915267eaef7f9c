"""Extreme-point closed form against the brute-force moment oracle."""

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailbound import (
    DegenerateDataError,
    DomainError,
    InfeasibleKurtosisError,
    ReturnSeries,
    asymptotic_a,
    construct_distribution,
    feasible_kurtosis_range,
    oracle_moments,
    samuelson_bound,
    solve_extreme_point,
    third_moment,
)


def feasible_kappa(n: float, fraction: float) -> float:
    """Kurtosis at a relative position inside the feasible interval."""
    rng = feasible_kurtosis_range(n)
    return rng.kappa_min + fraction * (rng.kappa_max - rng.kappa_min)


# strategy: sample sizes and a position strictly inside the feasible range
sizes = st.floats(min_value=5.0, max_value=1e7)
fractions = st.floats(min_value=1e-6, max_value=1.0)


# ---------------------------------------------------------------------------
# feasibility range
# ---------------------------------------------------------------------------


def test_range_n5():
    rng = feasible_kurtosis_range(5)
    assert rng.kappa_min == pytest.approx(1.25, abs=1e-12)
    assert rng.kappa_max == pytest.approx(3.25, abs=1e-12)


def test_range_n251_lower_endpoint():
    rng = feasible_kurtosis_range(251)
    assert rng.kappa_min == pytest.approx(251 / 250, abs=1e-12)


def test_upper_endpoint_recovers_samuelson():
    rng = feasible_kurtosis_range(251)
    sol = solve_extreme_point(251, rng.kappa_max)
    assert sol.a == pytest.approx(math.sqrt(250), abs=1e-12)
    assert sol.b_squared == 0.0


def test_range_contains_semantics():
    rng = feasible_kurtosis_range(100)
    assert rng.kappa_min not in rng  # exclusive below
    assert rng.kappa_max in rng  # inclusive above
    assert 3.0 in rng


def test_range_rejects_small_n():
    for n in (4, 4.999, 3, 0, -7):
        with pytest.raises(DomainError):
            feasible_kurtosis_range(n)


# ---------------------------------------------------------------------------
# the solved root
# ---------------------------------------------------------------------------


def test_solve_matches_published_anchor_cells():
    for (n, kappa), want in [
        ((250, 7.0), 6.296),
        ((500, 7.0), 7.464),
        ((1_000_000, 16.0), 62.241),
        ((250, 6.0), 6.023),
    ]:
        assert solve_extreme_point(n, kappa).a == pytest.approx(want, abs=0.01)


def test_solution_carries_consistent_fields():
    sol = solve_extreme_point(250, 7.0)
    assert sol.n == 250
    assert sol.kappa == 7.0
    assert sol.samuelson_bound == pytest.approx(math.sqrt(249), abs=1e-12)
    assert sol.theta3 == pytest.approx(third_moment(sol), abs=0.0)
    # quadratic residual, relative to the constant term
    a2 = sol.a * sol.a
    r = (sol.n - 1) / (sol.n + 1)
    residual = a2 * a2 - 2 * r * a2 + sol.g_value
    assert abs(residual) / abs(sol.g_value) < 1e-9


def test_solve_rejects_outside_range():
    rng = feasible_kurtosis_range(250)
    for kappa in (rng.kappa_min, rng.kappa_min - 1e-6, rng.kappa_max * 1.0001, 0.5, 1.0):
        with pytest.raises(InfeasibleKurtosisError) as err:
            solve_extreme_point(250, kappa)
        assert err.value.kappa_min == rng.kappa_min
        assert err.value.kappa_max == rng.kappa_max


def test_solve_rejects_small_n():
    with pytest.raises(DomainError):
        solve_extreme_point(4, 2.0)


def test_lower_endpoint_limit():
    # The canonical (larger) root does not collapse at the lower kurtosis
    # endpoint; it tends to sqrt(2(n-1)/(n+1)).  Pin that limit.
    for n in (5, 250, 10_001):
        rng = feasible_kurtosis_range(n)
        a = solve_extreme_point(n, rng.kappa_min + 1e-8).a
        assert a == pytest.approx(math.sqrt(2 * (n - 1) / (n + 1)), abs=1e-4)


@given(sizes, fractions)
def test_quadratic_residual_property(n, fraction):
    kappa = feasible_kappa(n, fraction)
    assume(kappa > feasible_kurtosis_range(n).kappa_min)
    sol = solve_extreme_point(n, kappa)
    a2 = sol.a * sol.a
    r = (n - 1) / (n + 1)
    residual = a2 * a2 - 2 * r * a2 + sol.g_value
    assert abs(residual) / max(1.0, abs(sol.g_value)) < 1e-9
    assert 0.0 < sol.a <= sol.samuelson_bound * (1 + 1e-12)
    assert sol.b_squared >= 0.0


@given(sizes, fractions)
def test_samuelson_recovery_property(n, fraction):
    del fraction
    rng = feasible_kurtosis_range(n)
    sol = solve_extreme_point(n, rng.kappa_max)
    assert abs(sol.a - math.sqrt(n - 1)) <= 1e-9 * sol.a
    assert abs(sol.b_squared) <= 1e-9


@given(
    st.floats(min_value=5.0, max_value=1e6),
    st.floats(min_value=1e-4, max_value=0.999),
    st.floats(min_value=1.01, max_value=4.0),
)
def test_monotone_in_n(n, fraction, growth):
    kappa = feasible_kappa(n, fraction)
    assume(kappa > feasible_kurtosis_range(n).kappa_min)
    bigger = n * growth
    assert solve_extreme_point(bigger, kappa).a > solve_extreme_point(n, kappa).a


@given(
    st.floats(min_value=5.0, max_value=1e6),
    st.floats(min_value=1e-4, max_value=0.99),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_monotone_in_kappa(n, fraction, step):
    low = feasible_kappa(n, fraction)
    high = feasible_kappa(n, fraction + step * (1.0 - fraction))
    assume(high > low > feasible_kurtosis_range(n).kappa_min)
    assert solve_extreme_point(n, high).a > solve_extreme_point(n, low).a


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_leading_order_anchor():
    # (n*(kappa-1))**0.25 at n = 1e6, kappa = 16 sits within 0.05% of the
    # exact published cell 62.241
    leading = (1e6 * 15.0) ** 0.25
    assert abs(leading - 62.241) / 62.241 < 5e-4


def test_asymptotic_forms_bracket_the_root():
    exact = solve_extreme_point(250, 7.0).a
    corrected = asymptotic_a(250, 7.0, form="sign-corrected")
    printed = asymptotic_a(250, 7.0, form="printed")
    assert printed < exact < corrected
    assert abs(corrected - exact) / exact < 2e-3
    assert abs(printed - exact) / exact < 3e-2


def test_asymptotic_agreement_at_large_n():
    for n in (1e6, 3e6, 1e7):
        for kappa in (3.0, 7.0, 16.0):
            exact = solve_extreme_point(n, kappa).a
            approx = asymptotic_a(n, kappa)
            assert abs(approx - exact) / exact < 0.01


def test_asymptotic_degenerate_kurtosis_limit():
    # printed form vanishes as kappa -> 1+
    assert asymptotic_a(1000, 1.0 + 1e-12, form="printed") < 1e-4
    with pytest.raises(DomainError):
        asymptotic_a(1000, 1.0)
    with pytest.raises(DomainError):
        asymptotic_a(1000, 7.0, form="bogus")


# ---------------------------------------------------------------------------
# samuelson bound
# ---------------------------------------------------------------------------


def test_samuelson_values():
    assert samuelson_bound(10_001) == pytest.approx(100.0, abs=1e-9)
    assert samuelson_bound(1_000_001) == pytest.approx(1000.0, abs=1e-9)
    assert samuelson_bound(2) == 1.0


def test_samuelson_rejects_n_below_2():
    with pytest.raises(DomainError):
        samuelson_bound(1.5)


# ---------------------------------------------------------------------------
# third moment
# ---------------------------------------------------------------------------


def test_third_moment_zero_at_zero_a():
    from tailbound import ExtremePointSolution

    degenerate = ExtremePointSolution(
        n=251, kappa=1.004, g_value=0.0, a=0.0, b_squared=1.0,
        theta3=0.0, samuelson_bound=math.sqrt(250),
    )
    assert third_moment(degenerate) == 0.0


def test_third_moment_anchor_value():
    sol = solve_extreme_point(10_001, 7.0)
    assert third_moment(sol) == pytest.approx(0.381, abs=1e-3)


# ---------------------------------------------------------------------------
# explicit construction vs the oracle
# ---------------------------------------------------------------------------


def test_construct_small_case():
    data = construct_distribution(5, 2.0)
    assert len(data) == 5
    m = oracle_moments(data)
    assert abs(m.mean) < 1e-12
    assert m.variance == pytest.approx(1.0, abs=1e-12)
    assert m.kurtosis == pytest.approx(2.0, rel=1e-9)
    assert max(data) == solve_extreme_point(5, 2.0).a


def test_construct_matches_oracle_at_n101():
    data = construct_distribution(101, 7.0)
    m = oracle_moments(data)
    assert m.kurtosis == pytest.approx(7.0, rel=1e-9)
    sol = solve_extreme_point(101, 7.0)
    assert m.skewness == pytest.approx(sol.theta3, rel=1e-9)


def test_construct_rejects_even_n():
    with pytest.raises(DomainError, match="closed form"):
        construct_distribution(250, 7.0)


def test_construct_rejects_non_integer():
    with pytest.raises(DomainError):
        construct_distribution(251.0, 7.0)


@given(
    st.integers(min_value=2, max_value=5000),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_construct_oracle_equivalence_property(half, fraction):
    n = 2 * half + 1
    kappa = feasible_kappa(n, fraction)
    assume(kappa > feasible_kurtosis_range(n).kappa_min)
    data = construct_distribution(n, kappa)
    m = oracle_moments(data)
    sol = solve_extreme_point(n, kappa)
    assert abs(m.mean) < 1e-9
    assert abs(m.variance - 1.0) < 1e-9
    assert abs(m.kurtosis - kappa) < 1e-9 * max(1.0, kappa)
    assert abs(m.skewness - sol.theta3) < 1e-9 * max(1.0, abs(sol.theta3))
    assert max(data) == sol.a


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------


def test_oracle_on_known_shapes():
    two_point = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]
    assert oracle_moments(two_point).kurtosis == pytest.approx(1.0, abs=1e-12)

    thirds = [-1.0, 0.0, 1.0] * 4
    assert oracle_moments(thirds).kurtosis == pytest.approx(1.5, abs=1e-12)

    lopsided = [0.0, 0.0, 1.0] * 4
    m = oracle_moments(lopsided)
    assert m.kurtosis == pytest.approx(1.5, abs=1e-12)
    assert m.mean == pytest.approx(1 / 3, abs=1e-12)


def test_oracle_rejects_empty_and_constant():
    with pytest.raises(DomainError):
        oracle_moments([])
    with pytest.raises(DegenerateDataError):
        oracle_moments([2.0] * 10)


@pytest.mark.parametrize("data", [
    [1.0, math.inf, 2.0, 3.0, 4.0],
    [math.nan, 1.0, 2.0, 3.0, 4.0],
    [1.0, math.nan, 2.0, 3.0, 4.0],  # max and min both step over it
    [1.0, -math.inf, math.inf, 3.0, 4.0],
])
def test_oracle_rejects_non_finite(data):
    with pytest.raises(DomainError, match="non-finite"):
        oracle_moments(data)


@settings(max_examples=300)
@given(
    data=st.lists(
        st.floats(min_value=-1e3, max_value=1e3).filter(lambda x: x == 0 or abs(x) > 1e-30),
        min_size=5, max_size=60,
    ),
    k=st.integers(-900, 900),
)
def test_oracle_moments_are_scale_free(data, k):
    # scaling by 2**k is exact, so the moments must scale exactly too, or
    # the variance must be reported as not fitting a float in data units
    try:
        base = oracle_moments(data)
    except DegenerateDataError:
        assume(False)
    scaled = [math.ldexp(x, k) for x in data]
    assume(all(math.ldexp(y, -k) == x for x, y in zip(data, scaled)))

    exponent = math.frexp(base.variance)[1] + 2 * k
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        with pytest.raises(DomainError, match="does not fit"):
            oracle_moments(scaled)
        return
    m = oracle_moments(scaled)
    assert m.skewness == base.skewness
    assert m.kurtosis == base.kurtosis
    assert m.mean == math.ldexp(base.mean, k)
    assert m.variance == math.ldexp(base.variance, 2 * k)
    assert math.isfinite(m.skewness) and math.isfinite(m.kurtosis)

    if m.mean == 0.0 or abs(m.mean) >= sys.float_info.min:
        assert (ReturnSeries.from_values(scaled).max_abs_deviation_in_sigmas
                == ReturnSeries.from_values(data).max_abs_deviation_in_sigmas)
