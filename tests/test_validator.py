"""Model verdicts, safe-history search, empirical validation."""

import math
import random
import sys

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
    extreme_point,
    feasible_floor,
    feasible_kurtosis_range,
    max_safe_history,
    required_tail_factor,
    solve_extreme_point,
    validate_blr,
    validate_model,
    validator,
)
from tailbound.errors import check_real

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
    assert max_safe_history(1000.0, 7.0) is None
    assert required_tail_factor(DEFAULT_HISTORY_CEILING, 7.0) < 1000.0  # no breach up to it


def test_max_safe_history_zero_when_floor_breaches():
    # smallest feasible history for kappa = 7 is n = 9 with a ~ 2.8
    assert max_safe_history(2.0, 7.0) == 0


def test_max_safe_history_rejects_bad_inputs():
    with pytest.raises(DomainError):
        max_safe_history(0.0, 7.0)
    with pytest.raises(DomainError):
        max_safe_history(5.0, 0.9)


def _bisection_reference(tail, kappa):
    """max_safe_history by integer bisection on a(n, kappa) between the floor
    and the ceiling: the reference it must match bit for bit, errors included."""
    check_real(tail, "tail factor", above=0.0)
    lo, hi = feasible_floor(kappa), DEFAULT_HISTORY_CEILING
    if lo > hi:
        raise DomainError(f"no feasible history length at or below the ceiling {hi}")
    if required_tail_factor(lo, kappa) > tail:
        return 0
    if required_tail_factor(hi, kappa) <= tail:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if required_tail_factor(mid, kappa) <= tail:
            lo = mid
        else:
            hi = mid
    return lo


def _count_evaluations(monkeypatch) -> list[float]:
    """The list that every evaluation of a(n) appends its n to from now on:
    each goes through one _quadratic, in validator or in _solve."""
    calls = []
    for module in (validator, extreme_point):
        def counted(nf, kappa, formula=module._quadratic):
            calls.append(nf)
            return formula(nf, kappa)
        monkeypatch.setattr(module, "_quadratic", counted)
    return calls


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=math.log10(1.01), max_value=3.0),
)
def test_max_safe_history_bisection_property(log_tail, log_kappa):
    tail, kappa = 10.0**log_tail, 10.0**log_kappa
    want = _bisection_reference(tail, kappa)
    with pytest.MonkeyPatch.context() as m:
        solves = _count_evaluations(m)
        n = max_safe_history(tail, kappa)
    assert n == want
    assert solves  # the count below sees every evaluation of a(n)
    if n is None:
        assert required_tail_factor(DEFAULT_HISTORY_CEILING, kappa) <= tail
    elif n == 0:
        assert required_tail_factor(feasible_floor(kappa), kappa) > tail
    else:
        # the float crossing and its neighbour, without endpoint checks
        assert len(solves) <= 3
        assert required_tail_factor(n, kappa) <= tail < required_tail_factor(n + 1, kappa)


@pytest.mark.parametrize(
    "tail, kappa, history",
    [
        # a tail factor of at most 1 breaches every a(n); at 1 the cubic's P
        # is 0, at 1 + 2**-52 and kappa 1e300 it underflows to 0, and at
        # 1e-300 and kappa 1e200 so does the Newton slope.  The last three
        # kappas have floors, and histories, past the ceiling
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
        # histories at and below the feasibility floor, 9 for kappa = 7
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
def test_max_safe_history_edge_inputs_match_bisection(tail, kappa, history):
    def outcome(search):
        try:
            return search(tail, kappa)
        except DomainError as e:
            return type(e), str(e)

    got = outcome(max_safe_history)
    assert got == outcome(_bisection_reference)
    if tail <= 1.0:
        assert got == 0 or got[0] is DomainError
    if tail > 1e150:
        assert got is None
    # validated at a history next to the edge, the verdict reports the same
    # length, or the history is past the ceiling or infeasible for kappa
    try:
        v = validate_model(tail, history, kappa)
    except DomainError:
        assert history > DEFAULT_HISTORY_CEILING or kappa not in feasible_kurtosis_range(history)
    else:
        assert v.max_safe_history == got
        assert v.passed == (got is None or got >= history)


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _history_questions(draw):
    """(tail factor, kappa) around the decision at the crossing: tail factors
    within ulps of a(n), and kappas at both ends of the range and at each edge
    of its guard."""
    kind = draw(st.sampled_from(["at-a", "random", "hostile"]))
    if kind == "hostile":
        return (draw(st.sampled_from([0.0, -1.0, math.nan, math.inf, 5e-324, 1.7e308, 3.0])),
                draw(st.sampled_from([1.0, 0.5, math.nan, math.inf, 1.7e308, 1.0 + 2**-52,
                                      7.0])))
    if kind == "random":
        return 10.0 ** draw(st.floats(-1.0, 6.0)), 1.0 + 10.0 ** draw(st.floats(-16.0, 3.0))
    n = draw(st.one_of(st.integers(5, 10**4), st.integers(10**4, 10**15),
                       st.integers(2**53 - 3, 2**53 + 3)))
    k_min, k_max = feasible_kurtosis_range(n)[1:]
    kappa = _ulps(draw(st.sampled_from([
        k_max, k_max - 1.0, k_min, k_min + draw(st.floats(0.0, 1.0)) * (k_max - k_min),
        feasible_kurtosis_range(max(n - 1, 5)).kappa_min,  # infeasible one size down
        float(n - 3), 1.0 + 2.0 / (n - 1),  # the guard's two edges at n
    ])), draw(st.integers(-2, 2)))
    assume(kappa in feasible_kurtosis_range(n))
    return _ulps(required_tail_factor(n, kappa), draw(st.integers(-2, 2))), kappa


@settings(max_examples=1500)
@given(_history_questions())
def test_max_safe_history_matches_the_search_bit_for_bit(question):
    def outcome(search):
        try:
            return search(*question)
        except DomainError as e:
            return type(e), str(e)

    with pytest.MonkeyPatch.context() as m:
        evaluations = _count_evaluations(m)
        got = outcome(max_safe_history)
    assert got == outcome(_bisection_reference)
    assert len(set(evaluations)) == len(evaluations)  # no size evaluated twice


@pytest.mark.parametrize("kappa", goldens.KAPPAS)
def test_max_safe_history_decides_typical_inputs_at_the_crossing(kappa):
    # a published six-month tail factor: two evaluations of a(n) and no floor
    tail = goldens.BLR_GRID["6m"][goldens.KAPPAS.index(kappa)]
    floors = []
    with pytest.MonkeyPatch.context() as m:
        evaluations = _count_evaluations(m)
        m.setattr(validator, "feasible_floor", lambda k: floors.append(k) or feasible_floor(k))
        n = max_safe_history(tail, kappa)
    assert floors == [] and len(evaluations) == 2
    assert n == _bisection_reference(tail, kappa)


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


def test_validate_model_rejects_a_history_past_the_ceiling():
    # a(n, 7) passes 500 near n = 1e10: a FAIL there would read "unbounded"
    with pytest.raises(DomainError, match="history length above 1000000000 is not supported"):
        validate_model(500.0, 10**12, 7.0)
    with pytest.raises(DomainError, match="above 1000000000"):
        validate_blr("6m", 7.0, DEFAULT_HISTORY_CEILING + 1)
    with pytest.raises(DomainError, match="above 1000000000"):
        validate_model(500.0, 1e12, 7.0)
    v = validate_model(500.0, DEFAULT_HISTORY_CEILING, 7.0)
    assert v.passed and v.max_safe_history is None


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
    st.floats(min_value=math.log10(5.0), max_value=9.0),
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


def _reference_from_values(values):
    """ReturnSeries.from_values before its one-pass kernel: a tuple copy of
    the data, then the moments as oracle_moments summed them, copied here
    (less the skewness, which a ReturnSeries does not keep)."""
    try:
        vals = tuple(map(float, values))
    except OverflowError:
        raise DomainError(
            "data must be finite numbers, got an int past the float range") from None
    if len(vals) < 5:
        raise DegenerateDataError(f"too few observations: need at least 5, got {len(vals)}")
    n = len(vals)
    top = max(max(vals), -min(vals))
    if not top < math.inf:
        raise DomainError(f"data must be finite numbers, got {top!r}")
    e = max(math.frexp(top)[1], -1023)
    scale = math.ldexp(1.0, -e)
    mean = math.fsum(v * scale for v in vals) / n
    if mean != mean:
        raise DomainError("data must be finite numbers, got nan")
    sq = [(v * scale - mean) * (v * scale - mean) for v in vals]
    variance = math.fsum(sq) / n
    if variance <= 0.0:
        raise DegenerateDataError("zero variance: higher moments are undefined")
    kurtosis = math.fsum(q * q for q in sq) / n / variance**2
    exponent = math.frexp(variance)[1] + 2 * e
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        raise DomainError(
            f"the variance of the data, about 2**{exponent}, does not fit a "
            "normal float; rescale the data"
        )
    mean, variance = math.ldexp(mean, e), math.ldexp(variance, 2 * e)
    sigma = math.sqrt(variance)
    worst = max(max(vals) - mean, mean - min(vals)) / sigma
    return ReturnSeries(vals, n, mean, sigma, kurtosis, worst)


def _series_outcome(build, values):
    try:
        series = build(values)
    except (DomainError, DegenerateDataError) as exc:
        return type(exc).__name__, str(exc)
    assert type(series.values) is tuple
    return repr(series)  # repr tells every float apart, -0.0 from 0.0 too


_SERIES_DATA = st.one_of(
    # any magnitude: moderate data scaled by 2**k, into the subnormals too
    st.builds(lambda xs, k: [math.ldexp(x, k) for x in xs],
              st.lists(st.floats(-1e6, 1e6), max_size=40), st.integers(-1100, 1000)),
    # two levels, whose kurtosis lies below kappa_min for most splits
    st.builds(lambda a, b, k, m: [a] * k + [b] * m,
              st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(0, 30),
              st.integers(0, 30)),
    # any float, non-finite ones too
    st.lists(st.floats(), max_size=12),
    # ints, and ints past the float range
    st.lists(st.one_of(st.floats(-1e3, 1e3), st.integers(-10**6, 10**6),
                       st.sampled_from([10**400, -10**400, 2**1024])), max_size=12),
)


@settings(max_examples=400)
@given(_SERIES_DATA)
def test_from_values_matches_the_reference_bit_for_bit(data):
    assert _series_outcome(ReturnSeries.from_values, data) == _series_outcome(
        _reference_from_values, data)
    # any iterable, read once
    assert _series_outcome(ReturnSeries.from_values, iter(data)) == _series_outcome(
        _reference_from_values, data)


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


@pytest.mark.parametrize("fields, name", [
    # no kurtosis range below 5 points: a ZeroDivisionError came back before
    (((1.0,), 1, 0.0, 1.0, 3.0, 0.0), "series length n"),
    (((1.0,) * 5, 5.0, 0.0, 1.0, 2.0, 0.0), "series length n"),
    # a nan kurtosis took the Samuelson fallback and passed
    (((1.0,) * 5, 5, 0.0, 1.0, math.nan, 0.0), "series kurtosis"),
    (((1.0,) * 5, 5, 0.0, 1.0, math.inf, 0.0), "series kurtosis"),
    # a nan maximum deviation hid a breach
    (((1.0,) * 5, 5, 0.0, 1.0, 2.0, math.nan), "series max_abs_deviation_in_sigmas"),
    (((1.0,) * 5, 5, 0.0, 1.0, 2.0, -3.0), "series max_abs_deviation_in_sigmas"),
], ids=["n-1", "n-float", "kurtosis-nan", "kurtosis-inf", "deviation-nan", "deviation-negative"])
def test_empirical_checks_a_hand_built_series(fields, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        empirical_validate(ReturnSeries(*fields), 5.0)


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
