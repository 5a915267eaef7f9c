"""Model verdicts, safe-history search, empirical validation."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailbound import (
    DEFAULT_HISTORY_CEILING,
    DegenerateDataError,
    DomainError,
    InfeasibleKurtosisError,
    ReturnSeries,
    TableLookupError,
    construct_distribution,
    empirical_validate,
    feasible_floor,
    feasible_kurtosis_range,
    max_safe_history,
    required_tail_factor,
    solve_extreme_point,
    validate_blr,
    validate_model,
    validator,
)

import goldens


# ---------------------------------------------------------------------------
# required tail factor
# ---------------------------------------------------------------------------


def test_required_tail_factor_anchors():
    assert required_tail_factor(833_208, 7.0) == pytest.approx(47.296, abs=0.01)
    assert required_tail_factor(10_000, 16.0) == pytest.approx(19.705, abs=0.01)


def test_required_tail_factor_at_kappa_max():
    rng = feasible_kurtosis_range(777)
    assert required_tail_factor(777, rng.kappa_max) == pytest.approx(
        math.sqrt(776), abs=1e-12
    )


# ---------------------------------------------------------------------------
# max safe history
# ---------------------------------------------------------------------------


def test_max_safe_history_bracketing_anchor():
    n = max_safe_history(7.0, 7.0)
    assert n == 385  # frozen from the bisection itself
    assert n < 500  # a two-year history already over-stretches a 7-sigma model
    assert required_tail_factor(n, 7.0) <= 7.0 < required_tail_factor(n + 1, 7.0)


def test_max_safe_history_unbounded_marker():
    assert max_safe_history(1000.0, 7.0, ceiling=300) is None
    assert required_tail_factor(300, 7.0) < 1000.0  # no breach below ceiling


def test_max_safe_history_zero_when_floor_breaches():
    # smallest feasible history for kappa = 7 is n = 9 with a ~ 2.8
    assert max_safe_history(2.0, 7.0) == 0


def test_max_safe_history_rejects_bad_inputs():
    with pytest.raises(DomainError):
        max_safe_history(0.0, 7.0)
    with pytest.raises(DomainError):
        max_safe_history(5.0, 0.9)


def _bisection_reference(tail, kappa, ceiling):
    """Integer bisection on a(n, kappa) between the floor and the ceiling."""
    lo = feasible_floor(kappa)
    if lo > ceiling:
        return "infeasible"
    if required_tail_factor(lo, kappa) > tail:
        return 0
    if required_tail_factor(ceiling, kappa) <= tail:
        return None
    hi = ceiling
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if required_tail_factor(mid, kappa) <= tail:
            lo = mid
        else:
            hi = mid
    return lo


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=math.log10(1.01), max_value=3.0),
    st.sampled_from([300, 10**7, DEFAULT_HISTORY_CEILING]),
)
def test_max_safe_history_bisection_property(log_tail, log_kappa, ceiling):
    tail, kappa = 10.0**log_tail, 10.0**log_kappa
    want = _bisection_reference(tail, kappa, ceiling)
    if want == "infeasible":
        with pytest.raises(DomainError):
            max_safe_history(tail, kappa, ceiling=ceiling)
        return

    solves, solve = [], validator._solve

    def counted(n, k):
        solves.append(n)
        return solve(n, k)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(validator, "_solve", counted)
        n = max_safe_history(tail, kappa, ceiling=ceiling)
    assert n == want
    assert solves  # the count below sees every evaluation of a(n)
    if n is None:
        assert required_tail_factor(ceiling, kappa) <= tail
    elif n == 0:
        assert required_tail_factor(feasible_floor(kappa), kappa) > tail
    else:
        # the float crossing and its neighbour, without endpoint checks
        assert len(solves) <= 3
        assert required_tail_factor(n, kappa) <= tail < required_tail_factor(n + 1, kappa)


@pytest.mark.parametrize(
    "tail, kappa, ceiling",
    [
        # a tail factor of at most 1 breaches every a(n); at 1 the cubic's P
        # is 0, at 1 + 2**-52 and kappa 1e300 it underflows to 0, and at
        # 1e-300 and kappa 1e200 so does the Newton slope
        (1.0, 7.0, DEFAULT_HISTORY_CEILING),
        (0.5, 7.0, DEFAULT_HISTORY_CEILING),
        (1e-300, 7.0, DEFAULT_HISTORY_CEILING),
        (1e-300, 1e150, 10**200),
        (1e-300, 1e200, 10**201),  # n*kappa overflows at the floor
        (1.0 + 2**-52, 1e300, 10**301),
        # A = tail**2 overflows: the crossing is nan or inf
        (1e200, 7.0, DEFAULT_HISTORY_CEILING),
        (1.7e308, 7.0, DEFAULT_HISTORY_CEILING),
        (1e150, 7.0, 300),
        # the ceiling at the feasibility floor, 9 for kappa = 7
        (2.0, 7.0, 9),
        (5.0, 7.0, 9),
        (5.0, 7.0, 8),
        # endpoint kurtoses: 3.25 = kappa_max(5), a(5) = 2; 4.2 = kappa_max(6)
        (2.0, 3.25, 5),
        (2.0, 3.25, 6),
        (1.99, 3.25, 5),
        (2.5, 3.25, 6),
        (2.0, 4.2, 5),
        (2.0, 4.2, 6),
        (math.sqrt(5.0), 4.2, 6),
        (math.sqrt(5.0), 4.2, DEFAULT_HISTORY_CEILING),
        (7.0, 4.2, DEFAULT_HISTORY_CEILING),
    ],
    ids=lambda v: f"{v:.6g}",
)
def test_max_safe_history_edge_inputs_match_bisection(tail, kappa, ceiling):
    def outcome(search):
        try:
            return search(tail, kappa, ceiling)
        except DomainError as e:
            return type(e), str(e)

    want = outcome(_bisection_reference)
    if want == "infeasible":
        want = (DomainError, f"no feasible history length at or below the ceiling {ceiling}")
    got = outcome(lambda t, k, c: max_safe_history(t, k, ceiling=c))
    assert got == want
    if tail <= 1.0:
        assert got == 0 or got[0] is DomainError
    if tail > 1e150:
        assert got is None


def test_max_safe_history_rejects_non_finite_tail_factor():
    for tail in (math.inf, math.nan, -math.inf):
        with pytest.raises(DomainError):
            max_safe_history(tail, 7.0)
        with pytest.raises(DomainError):
            validate_model(tail, 500, 7.0)
        with pytest.raises(DomainError):
            empirical_validate(construct_distribution(101, 7.0), tail)


def test_breach_horizons_for_published_six_month_factors():
    for kappa, horizon in goldens.BREACH_HORIZONS.items():
        tail = goldens.BLR_GRID["6m"][goldens.KAPPAS.index(kappa)]
        assert max_safe_history(tail, kappa) == pytest.approx(horizon, abs=500)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_validate_model_fail_case():
    v = validate_model(7.0, 500, 7.0)
    assert not v.passed
    assert v.required_a == pytest.approx(7.464, abs=0.01)
    assert v.margin == 7.0 - v.required_a
    assert v.max_safe_history == 385


def test_validate_model_pass_case():
    v = validate_model(103.299, 1_000_000, 16.0)
    assert v.passed
    assert v.margin > 0


def test_validate_model_margin_zero_at_samuelson():
    rng = feasible_kurtosis_range(500)
    v = validate_model(math.sqrt(499), 500, rng.kappa_max)
    assert v.passed
    assert v.margin == 0.0
    assert v.max_safe_history == 500  # the history itself is the last safe one


def test_validate_model_pass_fail_antisymmetry():
    required = required_tail_factor(500, 7.0)
    assert validate_model(required + 1e-6, 500, 7.0).passed
    assert not validate_model(required - 1e-6, 500, 7.0).passed


def test_validate_model_propagates_infeasibility():
    with pytest.raises(InfeasibleKurtosisError):
        validate_model(5.0, 250, 300.0)
    with pytest.raises(DomainError):
        validate_model(-1.0, 250, 7.0)


def test_validate_model_rejects_a_fractional_history():
    # the verdict reports int(history_n), so a(500.5) would be passed off
    # as the bound at 500
    with pytest.raises(DomainError, match="whole number, got 500.5"):
        validate_model(7.0, 500.5, 7.0)
    with pytest.raises(DomainError, match="whole number, got 15750.25"):
        validate_blr("6m", 16.0, 15750.25)
    assert validate_model(7.0, 500.0, 7.0) == validate_model(7.0, 500, 7.0)
    assert validate_blr("6m", 16.0, 15750.0) == validate_blr("6m", 16.0, 15750)
    # non-finite histories get the solver's size message
    with pytest.raises(DomainError, match="at least 5, got nan"):
        validate_model(7.0, math.nan, 7.0)
    with pytest.raises(DomainError, match="finite number of at least 5, got inf") as err:
        validate_model(7.0, math.inf, 7.0)
    assert type(err.value) is DomainError


@given(
    st.integers(min_value=9, max_value=10**6),
    st.floats(min_value=1.5, max_value=16.0),
    st.floats(min_value=-0.5, max_value=0.5),
)
def test_verdict_sign_convention(n, kappa, offset):
    assume(kappa in feasible_kurtosis_range(n))
    required = required_tail_factor(n, kappa)
    v = validate_model(required + offset, n, kappa)
    assert v.passed == (v.margin >= 0.0)
    if offset >= 0.0:
        assert v.passed
    elif required + offset < required:  # offset survives float addition
        assert not v.passed


@settings(max_examples=500)
@given(
    st.floats(min_value=math.log10(5.0), max_value=6.0),
    st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from([-1, 0, 1]),
)
def test_passed_exactly_when_the_history_is_safe(log_n, fraction, step):
    # tail factors at a(n) and its two float neighbours, where a float
    # verdict and a float search in n could disagree
    n = int(10.0**log_n)
    rng = feasible_kurtosis_range(n)
    kappa = rng.kappa_max if fraction == 1.0 else (
        rng.kappa_min + fraction * (rng.kappa_max - rng.kappa_min))
    assume(kappa in rng)
    a = required_tail_factor(n, kappa)
    tail = a if step == 0 else math.nextafter(a, step * math.inf)
    v = validate_model(tail, n, kappa)
    assert v.passed == (v.max_safe_history is None or v.max_safe_history >= n)


# ---------------------------------------------------------------------------
# BLR verdicts
# ---------------------------------------------------------------------------


def test_validate_blr_cases():
    v = validate_blr("6m", 7.0, 5250)
    assert not v.passed and v.tail_factor == 13.115

    v = validate_blr("1m", 16.0, 10_000)
    assert v.passed and v.tail_factor == 22.873

    v = validate_blr("6m", 16.0, 15_750)
    assert not v.passed


def test_validate_blr_unknown_keys():
    with pytest.raises(TableLookupError):
        validate_blr("9m", 7.0, 1000)
    with pytest.raises(TableLookupError):
        validate_blr("6m", 11.0, 1000)


# ---------------------------------------------------------------------------
# empirical validation
# ---------------------------------------------------------------------------


def test_return_series_statistics():
    data = construct_distribution(101, 7.0)
    s = ReturnSeries.from_values(data)
    assert s.n == 101
    assert s.kurtosis == pytest.approx(7.0, rel=1e-9)
    assert s.sigma == pytest.approx(1.0, rel=1e-9)
    assert s.max_abs_deviation_in_sigmas == pytest.approx(
        solve_extreme_point(101, 7.0).a, rel=1e-9
    )


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=5, max_size=40))
def test_return_series_worst_deviation_is_max_abs(data):
    try:
        s = ReturnSeries.from_values(data)
    except DomainError:  # zero spread, or a variance below the float range
        assume(False)
    # rounding is monotone, so the extremes give max |x - mean| to the bit
    assert s.max_abs_deviation_in_sigmas == max(abs(x - s.mean) for x in data) / s.sigma


def test_return_series_rejects_degenerate_input():
    with pytest.raises(DegenerateDataError):
        ReturnSeries.from_values([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DegenerateDataError):
        ReturnSeries.from_values([3.0] * 50)


def test_empirical_pass_and_fail_around_own_extreme():
    data = construct_distribution(101, 7.0)
    worst = ReturnSeries.from_values(data).max_abs_deviation_in_sigmas

    good = empirical_validate(data, worst + 0.1)
    assert good.passed
    assert not good.historical_breach
    assert not good.kurtosis_infeasible

    bad = empirical_validate(data, worst - 0.1)
    assert not bad.passed
    assert bad.historical_breach  # the realised extreme already exceeds it


def test_empirical_threshold_is_the_closed_form():
    data = construct_distribution(251, 10.0)
    result = empirical_validate(data, 20.0)
    assert result.verdict.required_a == pytest.approx(
        solve_extreme_point(251, 10.0).a, rel=1e-9
    )


def test_empirical_samuelson_fallback_for_infeasible_kurtosis():
    # a pure two-level series has kurtosis 1, below the feasible floor
    data = [-1.0, 1.0] * 13
    result = empirical_validate(data, 3.0)
    assert result.kurtosis_infeasible
    assert result.verdict.required_a == pytest.approx(math.sqrt(25), abs=1e-12)
    assert result.verdict.max_safe_history is None
    assert not result.passed  # 3 sigma < sqrt(n-1) = 5
    assert not result.historical_breach  # realised extreme is only 1 sigma

    wide = empirical_validate(data, 6.0)
    assert wide.kurtosis_infeasible
    assert wide.passed
