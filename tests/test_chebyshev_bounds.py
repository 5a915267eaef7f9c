"""Moment-bound evaluations: direct substitutions, domains, published grids."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tailbound import (
    BoundValidityError,
    DomainError,
    MomentInfeasibleError,
    ThresholdTooSmallError,
    bhattacharyya_bound,
    even_moment_bound,
    even_moment_endpoint,
    feasible_floor,
    feasible_kurtosis_range,
    solve_extreme_point,
    zelen_bound,
)

import goldens


def extremal_inputs(n, kappa):
    sol = solve_extreme_point(n, kappa)
    return sol.a, sol.theta3


# ---------------------------------------------------------------------------
# even-moment bound
# ---------------------------------------------------------------------------


def test_even_moment_endpoint_anchors():
    ev = even_moment_endpoint(1000, 10.0)
    assert ev.threshold_t == pytest.approx(10.0, abs=1e-9)
    assert ev.probability == pytest.approx(1e-3, rel=1e-12)
    ev = even_moment_endpoint(10_000, 16.0)
    assert ev.threshold_t == pytest.approx(20.0, abs=1e-9)


def test_even_moment_unit_threshold_is_vacuous():
    ev = even_moment_bound(1.0, 1, 1.0)
    assert ev.probability == 1.0
    assert ev.one_in_n == 1.0


def test_even_moment_published_grid():
    for n, row in goldens.EVEN_MOMENT_TABLE.items():
        for kappa, want in zip(goldens.KAPPAS, row):
            got = even_moment_endpoint(n, kappa).threshold_t
            assert got == pytest.approx(want, abs=1e-3)


def test_even_moment_dominates_exact_bound():
    for n, row in goldens.EVEN_MOMENT_TABLE.items():
        for kappa in goldens.KAPPAS:
            threshold = even_moment_endpoint(n, kappa).threshold_t
            assert threshold >= solve_extreme_point(n, kappa).a


def test_even_moment_rejects_bad_inputs():
    with pytest.raises(DomainError):
        even_moment_bound(0.0, 2, 3.0)
    with pytest.raises(DomainError):
        even_moment_bound(2.0, 0, 3.0)
    with pytest.raises(DomainError):  # k past the float range overflowed t ** (-2 * k)
        even_moment_bound(2.0, 10**400, 3.0)
    with pytest.raises(DomainError):
        even_moment_bound(2.0, 2, -3.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            even_moment_bound(bad, 2, 3.0)
        with pytest.raises(DomainError):
            even_moment_bound(2.0, 2, bad)
        with pytest.raises(DomainError):
            even_moment_endpoint(1000, bad)


@pytest.mark.parametrize("t", [5e-324, 1e-200, 1e-77, 0.5, 1.0])
def test_even_moment_bound_below_one_is_vacuous(t):
    # t ** -4 overflowed below about 1e-77, though the bound is 1 there
    assert even_moment_bound(t, 2, 7.0).probability == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_even_moment_endpoint_names_a_non_finite_n(bad):
    # an infinite n was blamed on the "threshold multiplier t" before; a
    # non-finite kappa is covered by test_even_moment_rejects_bad_inputs
    with pytest.raises(DomainError, match="^n must be a finite number"):
        even_moment_endpoint(bad, 7.0)


# ---------------------------------------------------------------------------
# Zelen bound
# ---------------------------------------------------------------------------


def test_zelen_direct_substitution():
    # symmetric kurtosis-3 inputs at t = sqrt(3):
    # 1 / (1 + 3 + (3 - 0 - 1)**2 / (3 - 0 - 1)) = 1/6
    ev = zelen_bound(3.0**0.5, 0.0, 3.0)
    assert ev.probability == pytest.approx(1 / 6, rel=1e-12)


def test_zelen_near_sharp_at_extremal_anchors():
    a, t3 = extremal_inputs(500, 7.0)
    assert zelen_bound(a, t3, 7.0).one_in_n == pytest.approx(500, abs=3)
    a, t3 = extremal_inputs(1_000_000, 10.0)
    assert zelen_bound(a, t3, 10.0).one_in_n == pytest.approx(1_000_000, abs=3)


def test_zelen_grid_within_three_of_n():
    for n in goldens.ZELEN_GRID_N:
        for kappa in goldens.KAPPAS:
            a, t3 = extremal_inputs(n, kappa)
            one_in = zelen_bound(a, t3, kappa).one_in_n
            assert abs(one_in - n) <= 3.0
            assert abs(one_in - n) / n < 0.015  # near-sharpness


def test_zelen_domain_rejection():
    with pytest.raises(ThresholdTooSmallError):
        zelen_bound(0.9, 0.0, 3.0)  # below (0 + 2)/2 = 1
    with pytest.raises(MomentInfeasibleError):
        zelen_bound(2.0, 1.5, 3.0)  # 3 - 2.25 - 1 < 0
    with pytest.raises(MomentInfeasibleError):
        zelen_bound(2.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bound, position, name", [
    (zelen_bound, 0, "threshold t"), (zelen_bound, 1, "theta3"), (zelen_bound, 2, "theta4"),
    (bhattacharyya_bound, 0, "threshold t"), (bhattacharyya_bound, 1, "theta3"),
    (bhattacharyya_bound, 2, "kurtosis kappa"),
], ids=["zelen-t", "zelen-theta3", "zelen-theta4", "bhatt-t", "bhatt-theta3", "bhatt-kappa"])
def test_non_finite_argument_is_a_domain_error(bound, position, name, bad):
    # a nan probability came back before, or a moment error about "nan"
    args = [3.0, 0.0, 5.0]
    args[position] = bad
    with pytest.raises(DomainError, match=f"^{name} must be a finite number") as err:
        bound(*args)
    assert type(err.value) is DomainError


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.0, max_value=0.999),
)
def test_zelen_rejects_everything_below_the_cut(theta3, spread, frac):
    theta4 = theta3 * theta3 + 1.0 + spread
    t_min = 0.5 * (theta3 + (theta3 * theta3 + 4.0) ** 0.5)
    t = t_min * frac
    assume(t > 0.0)
    with pytest.raises(ThresholdTooSmallError):
        zelen_bound(t, theta3, theta4)


# ---------------------------------------------------------------------------
# Bhattacharyya bound
# ---------------------------------------------------------------------------


def test_bhattacharyya_direct_substitution():
    # symmetric kurtosis-3 inputs at t = sqrt(2): 2/(2*3 + 1) = 2/7
    ev = bhattacharyya_bound(2.0**0.5, 0.0, 3.0)
    assert ev.probability == pytest.approx(2 / 7, rel=1e-12)


def test_bhattacharyya_published_grid():
    for n, row in goldens.BHATTACHARYYA_TABLE.items():
        for kappa, want in zip(goldens.KAPPAS, row):
            a, t3 = extremal_inputs(n, kappa)
            got = bhattacharyya_bound(a, t3, kappa).probability
            assert got == pytest.approx(want, rel=0.02)


def test_bhattacharyya_is_not_sharp():
    # at the extreme-point threshold the bound stays an order of magnitude
    # above the realised frequency 1/n
    for n in (100_000, 1_000_000, 10_000_000, 100_000_000):
        for kappa in goldens.KAPPAS:
            a, t3 = extremal_inputs(n, kappa)
            assert bhattacharyya_bound(a, t3, kappa).probability > 10.0 / n


def test_bhattacharyya_domain_rejection():
    with pytest.raises(ThresholdTooSmallError):
        bhattacharyya_bound(1.0, 0.0, 3.0)  # 1 - 0 - 1 = 0, not > 0
    with pytest.raises(MomentInfeasibleError):
        bhattacharyya_bound(2.0, 1.5, 3.0)


@pytest.mark.parametrize("t", [-2.0, -1.0, 0.0])
def test_bhattacharyya_needs_a_positive_threshold(t):
    # t**2 - t*theta3 - 1 > 0 holds below its negative root too, where a
    # bound of 2/13 on P(X >= -2) would be false: the normal has 0.977
    with pytest.raises(ThresholdTooSmallError):
        bhattacharyya_bound(t, 0.0, 3.0)


def test_bhattacharyya_rejects_exactly_at_the_samuelson_endpoint():
    # at kappa_max the validity margin t**2 - t*theta3 - 1 is identically
    # zero, so the bound must refuse; just inside it must accept
    n = 50
    rng = feasible_kurtosis_range(n)
    a, t3 = extremal_inputs(n, rng.kappa_max)
    with pytest.raises(ThresholdTooSmallError):
        bhattacharyya_bound(a, t3, rng.kappa_max)
    a, t3 = extremal_inputs(n, rng.kappa_max - 1e-6)
    assert 0.0 < bhattacharyya_bound(a, t3, rng.kappa_max - 1e-6).probability <= 1.0


# ---------------------------------------------------------------------------
# minimum n for validity
# ---------------------------------------------------------------------------


def test_min_n_is_the_feasibility_floor():
    # exact proof in rationals.  With A = a**2 and r = (n-1)/(n+1), the
    # margin a**2 - a*theta3 - 1 at the extreme point is a quadratic in A;
    # agreeing with the factored form at three A values makes them identical
    for n in map(Fraction, range(5, 80)):
        r = (n - 1) / (n + 1)

        def margin(a):
            theta3 = -3 * a / (n - 1) + (n + 1) * a**3 / (n - 1) ** 2
            return a * a - a * theta3 - 1

        def factored(A):
            return -(n + 1) / (n - 1) ** 2 * (A - (n - 1)) * (A - r)

        for a in (Fraction(0), Fraction(1, 3), Fraction(2), n):
            assert margin(a) == factored(a * a)
        # the canonical root of (*) runs over A in (2r, n-1] as kappa runs
        # over (kappa_min, kappa_max]: G is 0 at kappa_min, and at kappa_max
        # n-1 is the root above r
        rng = feasible_kurtosis_range(n)
        assert rng.kappa_min == n / (n - 1)

        def g(kappa):
            return (n - 1) ** 2 * (n - (n - 1) * kappa) / ((n + 1) * (n - 3))

        assert g(rng.kappa_min) == 0
        assert (n - 1) ** 2 - 2 * r * (n - 1) + g(rng.kappa_max) == 0 and n - 1 > r
        # the roots r < 2r and n-1 bound that range, the quadratic opens
        # downwards and is positive at 2r, so the margin is positive inside
        # it and exactly zero at the Samuelson endpoint
        assert 0 < r < 2 * r < n - 1
        assert factored(2 * r) > 0
        assert factored(n - 1) == 0
    # so the smallest admissible n is the feasibility floor, or one more
    # where kappa is kappa_max of that floor: 3.25 at n = 5, 4.2 at n = 6
    for kappa, first in [(7.0, 9), (16.0, 18), (2.0, 5), (3.25, 6), (4.2, 7)]:
        floor = feasible_floor(kappa)
        assert floor == first - (kappa == feasible_kurtosis_range(floor).kappa_max)
        a, t3 = extremal_inputs(first, kappa)
        assert 0.0 < bhattacharyya_bound(a, t3, kappa).probability <= 1.0
        if floor < first:
            a, t3 = extremal_inputs(floor, kappa)
            with pytest.raises(BoundValidityError):
                bhattacharyya_bound(a, t3, kappa)
    with pytest.raises(DomainError):
        feasible_floor(1.0)


@given(
    st.integers(min_value=10, max_value=10**6),
    st.floats(min_value=1.3, max_value=16.0),
)
def test_probabilities_live_in_unit_interval(n, kappa):
    assume(kappa in feasible_kurtosis_range(n))
    a, t3 = extremal_inputs(n, kappa)
    evs = [even_moment_endpoint(n, kappa), zelen_bound(a, t3, kappa)]
    if a * a - a * t3 - 1.0 > 0.0:
        evs.append(bhattacharyya_bound(a, t3, kappa))
    for ev in evs:
        assert 0.0 < ev.probability <= 1.0
