"""Extreme-point closed form against the brute-force moment oracle."""

import math
import subprocess
import sys
from fractions import Fraction
from itertools import repeat
from operator import mul, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailbound import (
    DegenerateDataError,
    DomainError,
    InfeasibleKurtosisError,
    ReturnSeries,
    asymptotic_a,
    construct_distribution,
    feasible_floor,
    feasible_kurtosis_range,
    oracle_moments,
    samuelson_bound,
    solve_extreme_point,
)
from tailbound import appendix_search, extreme_point


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


def test_infinite_n_is_a_domain_error():
    # inf/inf made the interval (nan, nan], and every kappa looked infeasible
    for call in (feasible_kurtosis_range, lambda n: solve_extreme_point(n, 7.0)):
        with pytest.raises(DomainError, match="finite number of at least 5, got inf") as err:
            call(math.inf)
        assert type(err.value) is DomainError


def _floor_by_bisection(kappa):
    """Smallest n >= 5 with kappa in feasible_kurtosis_range(n), by plain
    bisection below a feasible size found by doubling."""
    hi = int(kappa) + 5  # kappa_max(hi) > kappa + 2; kappa_min may bind
    while kappa not in feasible_kurtosis_range(hi):
        hi *= 2
    lo = 4  # below every feasible size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 5 and kappa in feasible_kurtosis_range(mid):
            hi = mid
        else:
            lo = mid
    return hi


@given(st.floats(min_value=-52.0, max_value=math.log2(1.7e308)))
def test_feasible_floor_matches_bisection(time_limit, log2_excess):
    # kappa - 1 log-uniform from 2**-52 to 1.7e308 reaches both ends of the
    # float range, where the floor has 16 and 309 digits
    kappa = 1.0 + 2.0**log2_excess
    with time_limit(5):
        assert feasible_floor(kappa) == _floor_by_bisection(kappa)


FLOOR_EXTREMES = [1e22, 1e150, 1e300, 1.0 + 2**-40, 1.0 + 2**-52, sys.float_info.max]


def test_feasible_floor_at_the_extremes_is_exact_and_quick():
    # a walk of one size at a time takes minutes here; the subprocess
    # timeout turns such a walk into a failure, not a stalled suite
    code = (f"from tailbound import feasible_floor\n"
            f"for k in {FLOOR_EXTREMES!r}: print(feasible_floor(k))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=10)
    assert res.returncode == 0, res.stderr
    assert list(map(int, res.stdout.split())) == list(map(_floor_by_bisection, FLOOR_EXTREMES))


def _with_neighbours(kappas):
    return [k for kappa in kappas
            for k in (math.nextafter(kappa, 0.0), kappa, math.nextafter(kappa, math.inf))
            if 1.0 < k < math.inf]


# kappas where a rounded range endpoint flips across them, each with its
# float neighbours: both endpoints of a spread of sizes, powers of two and
# 3 * 2**k near 2**53 and 2**1023, and 1 + 2**-k
FLOOR_EDGES = {
    "range-endpoints": _with_neighbours(
        e for n in range(5, 4000, 11) for e in feasible_kurtosis_range(n)[1:]),
    "powers-of-two": _with_neighbours(2.0**k for k in (*range(45, 62), *range(1000, 1024))),
    "three-times-powers-of-two": _with_neighbours(
        3.0 * 2.0**k for k in (*range(45, 62), *range(1000, 1023))),
    "one-plus-powers-of-two": _with_neighbours(1.0 + 2.0**-k for k in range(1, 53)),
}


@pytest.mark.parametrize("family", sorted(FLOOR_EDGES))
def test_feasible_floor_at_rounding_edges(family):
    # one ulp decides here whether a size is feasible, so a floor taken from
    # the real-number endpoints alone would be a size off
    for kappa in FLOOR_EDGES[family]:
        assert feasible_floor(kappa) == _floor_by_bisection(kappa), kappa


def _range_evaluations(kappa):
    """Number of _kappa_bounds calls one feasible_floor(kappa) makes."""
    calls, kappa_bounds = [], extreme_point._kappa_bounds

    def counted(n):
        calls.append(n)
        return kappa_bounds(n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extreme_point, "_kappa_bounds", counted)
        feasible_floor(kappa)
    return len(calls)


def test_feasible_floor_evaluates_the_range_once_at_the_extremes(time_limit):
    # a galloping search from a float estimate needed 41 to 1,941 at these
    with time_limit(5):
        assert list(map(_range_evaluations, FLOOR_EXTREMES)) == [1] * len(FLOOR_EXTREMES)


@given(st.one_of(
    st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=-52.0, max_value=math.log2(1.7e308)).map(lambda e: 1.0 + 2.0**e),
))
def test_feasible_floor_evaluates_the_range_once(time_limit, kappa):
    with time_limit(5):
        assert _range_evaluations(kappa) == 1


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
    assert sol.theta3 == pytest.approx(
        -3 * sol.a / 249 + 251 * sol.a**3 / 249**2, rel=1e-15)
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


def test_huge_n_solves_inside_the_interval_it_prints():
    # (n-1)**2 * (n - (n-1)*kappa) overflowed to -inf here, and the solver
    # rejected a kurtosis inside the interval its own message printed
    rng = feasible_kurtosis_range(1e100)
    assert 1e99 in rng
    sol = solve_extreme_point(1e100, 1e99)
    assert 0.0 < sol.a <= sol.samuelson_bound
    assert 0.0 <= sol.b_squared <= 1.0
    assert math.isfinite(sol.g_value) and math.isfinite(sol.theta3)


def test_integer_n_past_the_float_squares_solves():
    # an int (n-1)**2 above 2**1024 used to raise OverflowError
    n = 10**160
    sol = solve_extreme_point(n, 7.0)
    assert sol.n == n
    # a**4 ~ -G = (n-1)(kappa-1) + O(1) when n is large
    assert sol.a == pytest.approx(6e160**0.25, rel=1e-12)
    assert sol.b_squared == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(sol.theta3)


@pytest.mark.parametrize("n, kappa, error, match", [
    (1e200, 1e150, DomainError, "float range"),
    # an integral float n takes its int's endpoints, so kappa_max is finite
    (1e200, math.inf, InfeasibleKurtosisError, r"\(1\.0, 1e\+200\]"),
    (10**200, float(10**200 - 2), DomainError, "float range"),  # the Samuelson endpoint
], ids=["float-n", "infinite-kappa", "int-n-at-endpoint"])
def test_kurtosis_times_n_past_the_float_range_is_a_domain_error(n, kappa, error, match):
    with pytest.raises(error, match=match) as err:
        solve_extreme_point(n, kappa)
    assert type(err.value) is error


@example(5637874215377909)
@given(st.one_of(st.integers(min_value=5, max_value=2**63),
                 st.floats(min_value=5.0, max_value=sys.float_info.max).map(math.floor)))
def test_integral_float_n_has_the_range_of_its_int(k):
    n = float(k)
    rng = feasible_kurtosis_range(n)
    assert rng[1:] == feasible_kurtosis_range(int(n))[1:]
    if n < 1e150:  # n * kappa_max fits a float: the Samuelson endpoint solves
        assert solve_extreme_point(n, rng.kappa_max).b_squared == 0.0


@settings(max_examples=300)
@given(st.floats(min_value=1.0, max_value=150.0), fractions)
def test_solve_accepts_every_feasible_kurtosis_at_huge_n(log_n, fraction):
    n = 10.0**log_n
    kappa = feasible_kappa(n, fraction)
    assume(kappa > feasible_kurtosis_range(n).kappa_min)
    sol = solve_extreme_point(n, kappa)
    a2 = sol.a * sol.a
    r = (n - 1) / (n + 1)
    residual = a2 * a2 - 2 * r * a2 + sol.g_value
    assert abs(residual) / max(1.0, abs(sol.g_value)) < 1e-9
    assert 0.0 < sol.a <= sol.samuelson_bound * (1 + 1e-12)
    assert sol.b_squared >= 0.0 and math.isfinite(sol.theta3)


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


def _root(x):
    """sqrt of a Fraction x >= 0.25, bracketed by math.isqrt to 256 bits."""
    return Fraction(math.isqrt((x.numerator << 512) // x.denominator), 1 << 256)


def _exact_r_and_root(n, kappa):
    """r = (n-1)/(n+1) and sqrt(r**2 - G) in Fractions at the float n."""
    nq, kq = Fraction(float(n)), Fraction(kappa)
    r = (nq - 1) / (nq + 1)
    x = r * r - r * (nq - 1) / (nq - 3) * (nq - (nq - 1) * kq)  # >= 0.4 here
    return r, _root(x)


def _exact_b_squared(n, kappa):
    """b**2 = n*r*delta / ((n-3)*(n*r + sqrt(r**2 - G))) in Fractions, with
    delta measured from the float kappa_max of the feasibility test and the
    one square root bracketed by math.isqrt to 256 bits."""
    nq, kq, k_max = Fraction(float(n)), Fraction(kappa), Fraction(feasible_kurtosis_range(n)[2])
    r, root = _exact_r_and_root(n, kappa)
    return nq * r * (k_max - kq) / ((nq - 3) * (nq * r + root))


def _exact_a(n, kappa):
    """a = sqrt(r + sqrt(r**2 - G)) in Fractions, both roots as above."""
    r, root = _exact_r_and_root(n, kappa)
    return _root(r + root)


@st.composite
def feasible_pairs(draw):
    """(n, kappa): n an int, an integral float or a fractional float from 5
    to 1e15; kappa log-uniformly 1e-16..1e-1 relative below the top or above
    the bottom of the feasible range, anywhere in it, or at the top."""
    x = 10.0 ** draw(st.floats(min_value=math.log10(5.0), max_value=15.0))
    n = draw(st.sampled_from([int(x), float(int(x)), x]))
    rng = feasible_kurtosis_range(n)
    t = 10.0 ** draw(st.floats(min_value=-16.0, max_value=-1.0))
    bulk = rng.kappa_min + draw(st.floats(min_value=0.0, max_value=1.0)) * (rng.kappa_max - rng.kappa_min)
    kappa = draw(st.sampled_from([rng.kappa_max * (1.0 - t), rng.kappa_min * (1.0 + t), bulk,
                                  rng.kappa_max]))
    return n, min(max(kappa, math.nextafter(rng.kappa_min, math.inf)), rng.kappa_max)


@settings(max_examples=1000)
@example((1684.0, 1682.0005941770646))  # the old subtraction was 1.25e16 ulps off here
@given(feasible_pairs())
def test_b_squared_is_within_4_ulps_of_the_exact_value(pair):
    n, kappa = pair
    b_sq = solve_extreme_point(n, kappa).b_squared
    want = _exact_b_squared(n, kappa)
    assert b_sq >= 0.0
    assert (b_sq == 0.0) == (kappa == feasible_kurtosis_range(n).kappa_max)
    if want:
        assert abs(Fraction(b_sq) - want) <= 4 * Fraction(math.ulp(float(want)))


@st.composite
def near_kappa_min(draw):
    """(n, kappa): n as in feasible_pairs, kappa within 10/n above kappa_min,
    where G = (n-1)**2 * (n - (n-1)*kappa) / ((n+1)*(n-3)) nears 0."""
    x = 10.0 ** draw(st.floats(min_value=math.log10(5.0), max_value=15.0))
    n = draw(st.sampled_from([int(x), float(int(x)), x]))
    rng = feasible_kurtosis_range(n)
    kappa = rng.kappa_min + draw(st.floats(min_value=0.0, max_value=1.0)) * 10.0 / float(n)
    return n, min(max(kappa, math.nextafter(rng.kappa_min, math.inf)), rng.kappa_max)


@settings(max_examples=1000)
@example((1_000_000_001, 1.0000000015))  # 1.3e7 ulps off with G from n - (n-1)*kappa
@given(st.one_of(near_kappa_min(), feasible_pairs()))
def test_a_is_within_2_ulps_of_the_exact_value(pair):
    n, kappa = pair
    a = solve_extreme_point(n, kappa).a
    assert abs(Fraction(a) - _exact_a(n, kappa)) <= 2 * Fraction(math.ulp(a))


def test_g_overflow_guard_at_its_edge():
    # (n-1)*(kappa-1) is the product that overflows; kappa - 1 == kappa here
    n = 1e200
    kappa = sys.float_info.max / (n - 1)
    while math.isinf((n - 1) * (kappa - 1.0)):
        kappa = math.nextafter(kappa, 0.0)
    while not math.isinf((n - 1) * (math.nextafter(kappa, math.inf) - 1.0)):
        kappa = math.nextafter(kappa, math.inf)
    sol = solve_extreme_point(n, kappa)
    assert math.isfinite(sol.g_value) and sol.g_value < -1e307
    assert math.isfinite(sol.a) and sol.b_squared >= 0.0
    with pytest.raises(DomainError, match="past the float range"):
        solve_extreme_point(n, math.nextafter(kappa, math.inf))


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
    # the sign-corrected form sits just above the root, the leading order
    # (n*(kappa-1))**0.25 below it
    exact = solve_extreme_point(250, 7.0).a
    corrected = asymptotic_a(250, 7.0)
    assert (250 * 6.0) ** 0.25 < exact < corrected
    assert abs(corrected - exact) / exact < 2e-3


def test_asymptotic_agreement_at_large_n():
    for n in (1e6, 3e6, 1e7):
        for kappa in (3.0, 7.0, 16.0):
            exact = solve_extreme_point(n, kappa).a
            approx = asymptotic_a(n, kappa)
            assert abs(approx - exact) / exact < 0.01


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, name", [
    (lambda x: asymptotic_a(x, 7.0), "sample size"),
    (lambda x: asymptotic_a(10, x), "kurtosis"),
    (samuelson_bound, "sample size"),
], ids=["asymptotic-n", "asymptotic-kappa", "samuelson-n"])
def test_non_finite_argument_is_a_domain_error(call, name, bad):
    # inf came back before; the message names the argument at fault
    with pytest.raises(DomainError, match=f"^{name} must be (a )?finite"):
        call(bad)


@pytest.mark.parametrize("n, kappa", [(1e300, 1e300), (sys.float_info.max, sys.float_info.max)])
def test_asymptotic_a_does_not_overflow(n, kappa):
    # 1 + n*(kappa-1) overflowed to inf here; the answer is (n*(kappa-1))**0.25
    assert asymptotic_a(n, kappa) == pytest.approx(n**0.25 * kappa**0.25, rel=1e-15)


def test_asymptotic_degenerate_kurtosis_limit():
    # the approximation tends to sqrt(2) as kappa -> 1+
    assert asymptotic_a(1000, 1.0 + 1e-12) == pytest.approx(math.sqrt(2.0), rel=1e-9)
    with pytest.raises(DomainError):
        asymptotic_a(1000, 1.0)


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


def test_third_moment_anchor_value():
    sol = solve_extreme_point(10_001, 7.0)
    assert sol.theta3 == pytest.approx(0.381, abs=1e-3)


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


@pytest.mark.parametrize("n", [2**63 + 1, 10**20 + 1, appendix_search.UNIFORM_MAX_M + 1])
def test_construct_rejects_a_size_above_the_cap_before_building(n):
    # 2**63 + 1 ended in MemoryError and 10**20 + 1 in OverflowError
    with pytest.raises(DomainError, match=f"above the cap of {appendix_search.UNIFORM_MAX_M}"):
        construct_distribution(n, 7.0)


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
    with pytest.raises(DomainError, match="^data must be finite numbers"):
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


def _reference_moments(values, odd):
    """_moments with every sum on the data scaled first and the deviations
    formed by map: the arithmetic its unscaled mean and inline squares keep."""
    n = len(values)
    if not n:
        raise DomainError("cannot compute moments of an empty dataset")
    lo, hi = min(values), max(values)
    top = max(hi, -lo)
    if not top < math.inf:
        raise DomainError(f"data must be finite numbers, got {top!r}")
    e = max(math.frexp(top)[1], -1023)
    scale = math.ldexp(1.0, -e)
    mean = math.fsum(map(mul, values, repeat(scale))) / n
    if mean != mean:
        raise DomainError("data must be finite numbers, got nan")
    dev = list(map(sub, map(mul, values, repeat(scale)), repeat(mean)))
    sq = [d * d for d in dev]
    s2, s3, s4 = math.fsum(sq), math.fsum(map(mul, sq, dev)), math.fsum(map(mul, sq, sq))
    variance = s2 / n
    if variance <= 0.0:
        raise DegenerateDataError("zero variance: higher moments are undefined")
    skewness = s3 / n / math.sqrt(variance)**3 if odd else None
    kurtosis = s4 / n / variance**2
    exponent = math.frexp(variance)[1] + 2 * e
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        raise DomainError(
            f"the variance of the data, about 2**{exponent}, does not fit a "
            "normal float; rescale the data"
        )
    return math.ldexp(mean, e), math.ldexp(variance, 2 * e), skewness, kurtosis, lo, hi


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except (DomainError, DegenerateDataError) as exc:
        return type(exc).__name__, str(exc)


_BELOW_ONE = math.nextafter(1.0, 0.0)
_ANY_MAGNITUDE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # every binade from the smallest subnormal's to the largest; a mantissa of
    # magnitude 1 at exponent 1024 overflows, and the sampled list has +-1.0
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1024)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, _BELOW_ONE, -_BELOW_ONE]),
)


@st.composite
def _moment_data(draw):
    values = draw(st.lists(_ANY_MAGNITUDE, min_size=1, max_size=12))
    shape = draw(st.sampled_from(["as drawn", "below one", "at one", "cancelling", "nan"]))
    if shape in ("below one", "at one", "cancelling"):
        # bring max |x| into [0.5, 1), where the mean is taken unscaled
        top = max(map(abs, values))
        if math.isfinite(top) and top > 0.0:
            values = [math.ldexp(v, -math.frexp(top)[1]) for v in values]
    if shape == "below one":
        values.append(draw(st.sampled_from([_BELOW_ONE, -_BELOW_ONE])))
    elif shape == "at one":
        values.append(draw(st.sampled_from([1.0, -1.0])))
    elif shape == "cancelling":  # pairs cancel exactly: the sum is subnormal or 0
        tiny = draw(st.lists(st.integers(-2**52, 2**52).map(lambda k: k * 5e-324),
                             min_size=1, max_size=3))
        values = values + [-v for v in values] + tiny
    elif shape == "nan":  # min and max step over it unless it comes first
        values.insert(draw(st.integers(0, len(values))), math.nan)
    return tuple(values)


@settings(max_examples=1000)
@example((256.0, -364.6005343087264, 226.96544033241105, 1.265e-321, 1.265e-321, -0.0,
          234.33708329777804))  # an unscaled sum would move the mean's last bit here
@example((0.375, -0.375, 5e-324))  # a subnormal sum, scaled by 2
@example((0.5, math.nan, 0.25))
@given(_moment_data())
def test_moments_match_the_all_scaled_reference(values):
    # below max |x| = 1 the mean comes from the unscaled sum; it must be the
    # scaled sum's to the bit, and everything that follows from it too
    for odd in (False, True):
        assert _outcome(extreme_point._moments, values, odd) == _outcome(
            _reference_moments, values, odd)
    try:
        mean, variance, skewness, kurtosis, _, _ = _reference_moments(values, True)
    except (DomainError, DegenerateDataError):
        return
    assert repr(tuple(oracle_moments(values))) == repr((mean, variance, skewness, kurtosis))
    if len(values) >= 5:
        series = ReturnSeries.from_values(values)
        assert repr((series.mean, series.sigma, series.kurtosis)) == repr(
            (mean, math.sqrt(variance), kurtosis))
