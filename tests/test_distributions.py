"""Quantile machinery against scipy (independent oracle) and published values."""

import decimal
import math
import random

import pytest
import scipy.stats
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tailbound import (
    BLR_TAIL_FACTORS,
    DomainError,
    SearchError,
    TableLookupError,
    TailFactorQuery,
    blr_h_from_kurtosis,
    blr_kurtosis,
    blr_tail_factor,
    normal_cdf,
    normal_isf,
    normal_quantile,
    student_t_cdf,
    student_t_isf,
    student_t_kurtosis,
    student_t_quantile,
)
from tailbound import distributions

import goldens

probabilities = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


# ---------------------------------------------------------------------------
# normal quantile
# ---------------------------------------------------------------------------


def test_normal_one_in_million():
    assert normal_quantile(1 - 1e-6) == pytest.approx(4.753, abs=1e-3)


def test_normal_centre_and_anchor():
    assert normal_quantile(0.5) == 0.0
    assert math.copysign(1.0, normal_quantile(0.5)) == 1.0  # +0.0, not -0.0
    # frozen value derived by bisection on an erfc-based CDF
    assert normal_quantile(0.9999) == pytest.approx(3.719016485455709, abs=1e-9)


@given(probabilities)
def test_normal_matches_scipy(p):
    assert normal_quantile(p) == pytest.approx(
        scipy.stats.norm.ppf(p), abs=1e-10, rel=1e-10
    )


@given(probabilities)
def test_normal_round_trip(p):
    assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9


@given(st.floats(min_value=1e-4, max_value=0.5))
def test_normal_symmetry(p):
    # p floored at 1e-4: beyond that the float representation of 1 - p
    # moves the upper quantile by more than this tolerance
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)


@given(st.floats(min_value=1e-9, max_value=1e-4))
def test_normal_symmetry_deep_tail(p):
    # limited by ulp(1 - p)/pdf, not by the solver
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=5e-8)


def test_normal_rejects_endpoints():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            normal_quantile(p)


# ---------------------------------------------------------------------------
# Student-t quantile
# ---------------------------------------------------------------------------


def test_student_t_published_tail_factors():
    for dof, row in goldens.STUDENT_T_TAIL_FACTORS.items():
        for n, want in row.items():
            assert student_t_quantile(1 - 1 / n, dof) == pytest.approx(want, abs=0.01)


def test_student_t_centre():
    for dof in (1, 2, 7):  # the closed forms of dof 1 and 2, and Halley
        assert student_t_quantile(0.5, dof) == 0.0
        assert math.copysign(1.0, student_t_quantile(0.5, dof)) == 1.0  # +0.0, not -0.0


@given(
    probabilities,
    st.integers(min_value=1, max_value=200),
)
def test_student_t_matches_scipy(p, dof):
    mine = student_t_quantile(p, dof)
    ref = scipy.stats.t.ppf(p, dof)
    assert mine == pytest.approx(ref, abs=1e-8, rel=1e-8)


@given(
    probabilities,
    st.sampled_from([1, 2, 3, 4, 5, 6, 12, 30, 100]),
)
def test_student_t_round_trip(p, dof):
    assert abs(student_t_cdf(student_t_quantile(p, dof), dof) - p) < 1e-9


@given(
    st.floats(min_value=0.501, max_value=1 - 1e-9),
    st.floats(min_value=1e-6, max_value=0.4),
    st.sampled_from([3, 5, 9]),
)
def test_student_t_monotone(p, gap, dof):
    hi = p + gap * (1 - p)
    assert student_t_quantile(hi, dof) > student_t_quantile(p, dof)


def test_student_t_heavier_than_normal_converges():
    p = 0.99
    assert student_t_quantile(p, 3) > normal_quantile(p)
    assert student_t_quantile(p, 1_000_000) == pytest.approx(
        normal_quantile(p), abs=0.01
    )


def test_student_t_cdf_matches_scipy_grid():
    for dof in (1, 2, 3, 6, 50):
        for x in (-100.0, -5.5, -1.0, 0.0, 0.25, 2.0, 30.0, 250.0):
            assert student_t_cdf(x, dof) == pytest.approx(
                scipy.stats.t.cdf(x, dof), abs=1e-12, rel=1e-10
            )
        # deep in the lower tail the CDF is the tail itself, not 1 - (1 - tail)
        for x in (-1e3, -1e6, -1e10):
            assert student_t_cdf(x, dof) == pytest.approx(
                scipy.stats.t.cdf(x, dof), abs=0.0, rel=1e-11
            )


def test_student_t_rejects_bad_inputs():
    with pytest.raises(DomainError):
        student_t_quantile(0.5, 0)
    with pytest.raises(DomainError):
        student_t_quantile(0.5, 2.5)
    with pytest.raises(DomainError):
        student_t_quantile(1.0, 5)


# ---------------------------------------------------------------------------
# upper-tail entry points against scipy, over the whole CLI horizon range
# ---------------------------------------------------------------------------


def _t_sf(dof):
    # scipy's t.sf forms x**2 and returns 0 beyond x ~ 1.3e154, which dof 1
    # reaches below q ~ 2e-155; the Cauchy law is the same distribution
    if dof == 1:
        return scipy.stats.cauchy.sf
    return lambda x: scipy.stats.t.sf(x, dof)


log_horizons = st.floats(min_value=math.log(2.0), max_value=math.log(1e300))


def _check_isf(x, q, sf, isf, tol):
    assert math.isfinite(x) and x >= 0.0
    round_trip = sf(x) / q - 1.0
    assert abs(round_trip) <= tol
    # scipy's own isf is wrong in places (dof 3, q <= 1e-190); only where
    # its round trip holds is it a second oracle
    ref = isf(q)
    if math.isfinite(ref) and abs(sf(ref) / q - 1.0) <= 1e-12:
        assert x == pytest.approx(ref, rel=tol)


@given(st.floats(min_value=math.log(2.0), max_value=math.log(1.7e308)))
def test_normal_isf_matches_scipy(log_h):
    q = 1.0 / max(2.0, math.exp(log_h))
    _check_isf(normal_isf(q), q, scipy.stats.norm.sf, scipy.stats.norm.isf, 1e-11)


@given(st.floats(min_value=math.log(1.0 / 1.7e308), max_value=math.log(0.5)))
@example(math.log(0.5))
@example(math.log(0.45))
@example(math.log(0.4999999999))
def test_normal_isf_is_within_8_ulps_of_scipy(log_q):
    q = min(math.exp(log_q), 0.5)
    ref = scipy.stats.norm.isf(q)
    assert abs(normal_isf(q) - ref) <= 8 * math.ulp(ref)


@given(log_horizons, st.floats(min_value=0.0, max_value=math.log(1e6)))
def test_student_t_isf_matches_scipy(log_h, log_dof):
    q = 1.0 / max(2.0, math.exp(log_h))
    dof = round(math.exp(log_dof))
    # 1e-11 through dof 1000; beyond, the continued fraction's first terms
    # cancel as z = dof/(dof + x**2) nears 1.  The worst of 120,000 draws
    # from this distribution was 4.7e-12 to dof 1e5 and 5.0e-11 to dof 1e6;
    # the bands are 4x those
    tol = 1e-11 if dof <= 1000 else 2e-11 if dof <= 10**5 else 2e-10
    _check_isf(student_t_isf(q, dof), q, _t_sf(dof), lambda q: scipy.stats.t.isf(q, dof), tol)


@pytest.mark.parametrize(
    "q, dof",
    [(q, 1) for q in (1e-200, 1e-250, 1e-300)]
    + [(1e-300, dof) for dof in range(2, 11)],
)
def test_student_t_isf_deep_tail_is_finite(q, dof):
    # the density underflows here, which used to divide by zero
    x = student_t_isf(q, dof)
    assert math.isfinite(x)
    assert _t_sf(dof)(x) / q == pytest.approx(1.0, rel=1e-11)


def test_isf_symmetry_and_centre():
    assert student_t_isf(0.5, 7) == 0.0
    assert normal_isf(0.5) == 0.0
    for q in (0.3, 1e-3, 1e-12):
        assert normal_isf(1.0 - q) == -normal_isf(1.0 - (1.0 - q))
        assert student_t_isf(1.0 - q, 5) == -student_t_isf(1.0 - (1.0 - q), 5)
        assert normal_quantile(q) == -normal_isf(q)
        assert student_t_quantile(q, 5) == -student_t_isf(q, 5)


@pytest.mark.parametrize("dof", [10**6 + 1, 10**7, 629137366261923, 10**20, 10**300])
def test_student_t_dof_above_the_limit_is_a_domain_error(dof):
    # lgamma cancellation made these silently wrong (or a traceback)
    with pytest.raises(DomainError, match="above 1000000"):
        student_t_isf(1e-3, dof)
    with pytest.raises(DomainError, match="above 1000000"):
        student_t_cdf(3.0, dof)
    assert student_t_kurtosis(dof) == 3.0 + 6.0 / (dof - 4)


@pytest.mark.parametrize("cdf", [normal_cdf, lambda x: student_t_cdf(x, 1),
                                 lambda x: student_t_cdf(x, 5)], ids=["normal", "t1", "t5"])
def test_cdfs_at_the_infinities(cdf):
    # student_t_cdf(inf) was nan, and an int past the float range overflowed
    for x, want in [(math.inf, 1.0), (10**400, 1.0), (-math.inf, 0.0), (-(10**400), 0.0)]:
        assert cdf(x) == want
    # nan came back from normal_cdf, and a continued-fraction SearchError from
    # student_t_cdf
    with pytest.raises(DomainError, match="^x must be a number, got nan"):
        cdf(math.nan)


def test_student_t_dof_at_the_limit_is_accepted():
    x = student_t_isf(1e-3, 10**6)
    assert scipy.stats.t.sf(x, 10**6) == pytest.approx(1e-3, rel=2e-10)
    assert student_t_cdf(3.0, 10**6) == pytest.approx(scipy.stats.t.cdf(3.0, 10**6), rel=1e-12)


def test_isf_rejects_bad_tail_mass():
    for q in (0.0, 1.0, -0.1, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            normal_isf(q)
        with pytest.raises(DomainError):
            student_t_isf(q, 5)
    with pytest.raises(DomainError):
        student_t_isf(0.1, 0)


def test_student_t_isf_raises_when_newton_is_capped(monkeypatch):
    monkeypatch.setattr(distributions, "_hill_start", lambda q, dof: 1e6)
    monkeypatch.setattr(distributions, "_ITERATION_CAP", 2)
    with pytest.raises(SearchError):
        student_t_isf(1e-6, 5)


def test_incomplete_beta_failure_is_typed():
    with pytest.raises(SearchError):
        distributions._betacf(1e8, 1e8, 0.5)


def _textbook_betacf(a, b, x):
    # the reference loop _betacf must match bit for bit: an int counter and abs()
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise SearchError("incomplete beta continued fraction did not converge")


def _betacf_outcome(betacf, *args):
    try:
        return betacf(*args)
    except SearchError:
        return SearchError


@given(st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=-700.0, max_value=700.0))
@example(1, 0.0)
@example(10**6, -30.0)
@example(2000, 5.0)
def test_betacf_matches_the_textbook_loop_bit_for_bit(dof, log_t):
    # the two calls _student_t_log_tail makes, at z = 1/(1 + t**2) and
    # w = 1 - z, on either side of its switch so that both loops also fail alike
    t = math.exp(log_t)
    log1p_t2 = 2.0 * log_t + math.log1p(1.0 / (t * t)) if t > 1.0 else math.log1p(t * t)
    z = math.exp(-log1p_t2)
    w = t * t / (1.0 + t * t) if t < 1e150 else 1.0
    a = 0.5 * dof
    for args in ((a, 0.5, z), (0.5, a, w)):
        assert repr(_betacf_outcome(distributions._betacf, *args)) == repr(
            _betacf_outcome(_textbook_betacf, *args))


def test_student_t_isf_takes_one_tail_evaluation(monkeypatch):
    # Hill's start is within 1e-5 of the root, so one Halley step ends the
    # solve.  The exception is dof 3 at tail masses of 0.056 to 0.064, where
    # the start is up to 1.5e-5 off and a second evaluation follows.
    calls = 0
    log_tail = distributions._student_t_log_tail

    def counted(*args):
        nonlocal calls
        calls += 1
        return log_tail(*args)

    monkeypatch.setattr(distributions, "_student_t_log_tail", counted)
    rng = random.Random(28)
    for _ in range(2000):
        q = math.exp(rng.uniform(math.log(1e-300), math.log(0.5)))
        dof = round(math.exp(rng.uniform(math.log(3), math.log(10**6))))
        calls = 0
        student_t_isf(q, dof)
        assert calls == 1, (q, dof)


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _exact_log_norm(dof):
    # log Gamma((dof+1)/2) - log Gamma(dof/2) - log sqrt(dof*pi) from
    # factorials: Gamma(n + 1/2)/Gamma(n) = n C(2n, n) sqrt(pi)/4**n and
    # Gamma(k + 1)/Gamma(k + 1/2) = 4**k/(C(2k, k) sqrt(pi))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        k = dof // 2
        if dof % 2 == 0:
            ratio = (decimal.Decimal(k * math.comb(2 * k, k)).ln()
                     - k * decimal.Decimal(4).ln() + _PI.ln() / 2)
        else:
            ratio = (k * decimal.Decimal(4).ln() - decimal.Decimal(math.comb(2 * k, k)).ln()
                     - _PI.ln() / 2)
        return ratio - (dof * _PI).ln() / 2


def _lgamma_log_norm(dof):
    a = 0.5 * dof
    return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(dof * math.pi)


def test_student_t_log_norm_takes_the_series_from_where_it_keeps_within_an_ulp(monkeypatch):
    # the switch sits at dof = 2 * _SERIES_A = 55, the smallest dof from
    # which the series stays within an ulp of the exact log-density
    # constant (at dof 54 it is 1.9 ulp off); below it the lgamma
    # difference is taken, within 1e-12 of the constant
    switch = round(2 * distributions._SERIES_A)
    rng = random.Random(1000)
    for dof in range(3, switch):
        got = distributions._student_t_log_norm(dof)
        assert got == _lgamma_log_norm(dof)
        assert abs(decimal.Decimal(got) - _exact_log_norm(dof)) <= decimal.Decimal(1e-12)
    for dof in list(range(switch, 1000)) + rng.sample(range(1000, 4000), 60):
        got = distributions._student_t_log_norm(dof)
        assert abs(decimal.Decimal(got) - _exact_log_norm(dof)) <= decimal.Decimal(math.ulp(got))
    monkeypatch.setattr(distributions, "_SERIES_A", (switch - 1) / 2)
    got = distributions._student_t_log_norm(switch - 1)
    assert abs(decimal.Decimal(got) - _exact_log_norm(switch - 1)) > decimal.Decimal(math.ulp(got))


def _exact_student_t_sf(t, dof):
    # Abramowitz & Stegun 26.7.3 for odd dof, in decimal: with x = t/sqrt(dof)
    # and c = cos(atan x), P(T > t) = 1/2 - (atan x + x*c*(c + 2/3 c**3 +
    # (2*4)/(3*5) c**5 + ... up to c**(dof - 2)))/pi
    x = t / decimal.Decimal(dof).sqrt()
    c2 = 1 / (1 + x * x)
    term = total = c2.sqrt()
    for k in range(1, (dof - 1) // 2):
        term *= c2 * 2 * k / (2 * k + 1)
        total += term
    atan, power, k = decimal.Decimal(0), x, 0  # the Taylor series: |x| < 1 here
    while abs(power) > decimal.Decimal(10) ** -60:
        atan += (-1) ** k * power / (2 * k + 1)
        power *= x * x
        k += 1
    return (1 - 2 / _PI * (atan + x * c2.sqrt() * total)) / 2


def test_student_t_isf_at_dof_165_is_within_a_few_ulps_of_the_exact_root():
    # with the lgamma difference as its log-density constant (1.1e-13 off at
    # dof 165) this tail factor was 74 ulps off the root; the series leaves
    # 2.1 ulps, from rounding in log1p(t**2) and the continued fraction
    q, dof = 0.0013026, 165
    got = student_t_isf(q, dof)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        root = decimal.Decimal(got)
        log_norm = _exact_log_norm(dof)
        for _ in range(4):  # Newton steps on the exact tail
            pdf = (log_norm - (dof + 1) // 2 * (1 + root * root / dof).ln()).exp()
            root += (_exact_student_t_sf(root, dof) - decimal.Decimal(q)) / pdf
        assert abs(_exact_student_t_sf(root, dof) / decimal.Decimal(q) - 1) < 1e-40
        assert abs(decimal.Decimal(got) - root) <= 3 * decimal.Decimal(math.ulp(got))


# ---------------------------------------------------------------------------
# Student-t kurtosis
# ---------------------------------------------------------------------------


def test_student_t_kurtosis_conventions():
    assert student_t_kurtosis(5, convention="excess") == pytest.approx(6.0)
    assert student_t_kurtosis(6, convention="excess") == pytest.approx(3.0)
    assert student_t_kurtosis(5, convention="raw") == pytest.approx(9.0)
    assert student_t_kurtosis(6) == pytest.approx(6.0)  # raw is the default


def test_student_t_kurtosis_rejects_low_dof():
    for dof in (1, 2, 3, 4):
        with pytest.raises(DomainError):
            student_t_kurtosis(dof)
    with pytest.raises(DomainError):
        student_t_kurtosis(6, convention="other")


# ---------------------------------------------------------------------------
# tail-factor queries
# ---------------------------------------------------------------------------


def test_query_probability_level():
    q = TailFactorQuery(horizon_n=250, model="normal")
    assert q.probability == pytest.approx(0.996, abs=1e-12)
    assert q.tail_factor() == pytest.approx(normal_isf(1 / 250), abs=0.0)


def test_query_dispatch_student_t():
    q = TailFactorQuery(horizon_n=1_000_000, model="student-t", dof=3)
    assert q.tail_factor() == pytest.approx(103.299, abs=0.01)


def test_query_validation():
    with pytest.raises(DomainError):
        TailFactorQuery(horizon_n=1.5, model="normal")
    with pytest.raises(DomainError):
        TailFactorQuery(horizon_n=250, model="student-t")  # dof missing
    with pytest.raises(DomainError):
        TailFactorQuery(horizon_n=250, model="normal", dof=5)
    with pytest.raises(DomainError):
        TailFactorQuery(horizon_n=250, model="cauchy")
    with pytest.raises(DomainError):
        TailFactorQuery(horizon_n=math.inf, model="normal")  # tail mass 0
    with pytest.raises(DomainError):
        TailFactorQuery(horizon_n=math.nan, model="normal")


def test_query_deep_horizon_keeps_its_digits():
    # 1 - 1/h rounds to 1.0 here; the tail mass 1/h goes to the solver
    for model, dof in (("normal", None), ("student-t", 3)):
        q = TailFactorQuery(horizon_n=1e200, model=model, dof=dof)
        assert q.probability == 1.0
        x = q.tail_factor()
        assert math.isfinite(x)
        ref = scipy.stats.norm if dof is None else scipy.stats.t(dof)
        assert ref.sf(x) * 1e200 == pytest.approx(1.0, rel=1e-11)


# ---------------------------------------------------------------------------
# BLR model
# ---------------------------------------------------------------------------


def test_blr_kurtosis_anchors():
    assert blr_kurtosis(0.0, 1.0) == pytest.approx(3.0, abs=0.0)
    assert blr_kurtosis(math.sqrt(2 * math.log(2.0)), 1.0) == pytest.approx(6.0, rel=1e-12)


@given(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-2, max_value=5.0),
)
def test_blr_round_trip(g, h):
    # h is kept away from 0: kappa - 3 ~ 3h^2/2g must stay resolvable
    # above the ulp of 3 for the inverse to recover h at this precision
    assume(h * h / (2.0 * g) < 700.0)
    kappa = blr_kurtosis(h, g)
    assert blr_h_from_kurtosis(kappa, g) == pytest.approx(h, rel=1e-9, abs=1e-12)


def test_blr_kurtosis_overflow_is_typed():
    with pytest.raises(DomainError):
        blr_kurtosis(1.0, 1e-6)


def test_blr_six_month_round_trip():
    g = 1.0 / 125.0  # 1/g = 6 months of 250/12 business days
    h = blr_h_from_kurtosis(16.0, g)
    assert blr_kurtosis(h, g) == pytest.approx(16.0, rel=1e-12)


def test_blr_h_from_kurtosis_is_finite_where_2g_ln_kappa_overflows():
    # sqrt(2g * ln(kappa/3)) is about 3.8e155; the product under the root
    # overflowed to inf before
    h = blr_h_from_kurtosis(1e308, 1e308)
    assert h == pytest.approx(math.sqrt(2.0 * math.log(1e308 / 3.0)) * 1e154, rel=1e-15)
    assert blr_h_from_kurtosis(1e308, 1e300) == math.sqrt(2.0 * math.log(1e308 / 3.0) * 1e300)


@pytest.mark.parametrize("kappa, g", [
    (3.0000000000000004, 5e-324), (3.0000000000000004, 1e-300), (16.0, 1e-310),
    (16.0, 2.2e-308), (1e308, 5e-324), (3.0, 5e-324), (3.0, 1e308),
])
def test_blr_h_from_kurtosis_keeps_its_bits_where_2g_ln_kappa_underflows(kappa, g):
    # the product under the root was subnormal or 0: 4.68e-170 read 0.0, and
    # at g = 1e-300 the result was 1.4e-9 off
    t = 2.0 * math.log(kappa / 3.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = (decimal.Decimal(t) * decimal.Decimal(g)).sqrt()
    h = blr_h_from_kurtosis(kappa, g)
    assert abs(decimal.Decimal(h) - exact) <= 2 * decimal.Decimal(math.ulp(h))


def test_blr_rejects_bad_arguments():
    with pytest.raises(DomainError):
        blr_kurtosis(1.0, 0.0)
    with pytest.raises(DomainError):
        blr_kurtosis(-0.5, 1.0)
    with pytest.raises(DomainError):
        blr_h_from_kurtosis(2.9, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("link, position, name", [
    (blr_kurtosis, 0, "volatility-of-volatility h"), (blr_kurtosis, 1, "mean-reversion rate g"),
    (blr_h_from_kurtosis, 0, "kurtosis kappa"), (blr_h_from_kurtosis, 1, "mean-reversion rate g"),
], ids=["kurtosis-h", "kurtosis-g", "h-kappa", "h-g"])
def test_blr_links_reject_non_finite_arguments(link, position, name, bad):
    # nan or inf came back before
    args = [1.0, 1.0] if link is blr_kurtosis else [7.0, 1.0]
    args[position] = bad
    with pytest.raises(DomainError, match=f"^{name} must be a finite number"):
        link(*args)


def test_blr_table_matches_reference():
    for label, row in goldens.BLR_GRID.items():
        for kappa, want in zip(goldens.KAPPAS, row):
            assert BLR_TAIL_FACTORS[label][int(kappa)] == want
            assert blr_tail_factor(label, kappa) == want


def test_blr_table_lookup_errors():
    with pytest.raises(TableLookupError):
        blr_tail_factor("7m", 7.0)
    with pytest.raises(TableLookupError):
        blr_tail_factor("6m", 8.0)
    # columns are found by equality: 7.0 finds 7, the string "7" finds nothing,
    # and no number, however large, raises anything but TableLookupError
    assert blr_tail_factor("6m", 7.0) == blr_tail_factor("6m", 7) == 13.115
    for kappa in ("7", "7.0", 10**400, math.nan, math.inf):
        with pytest.raises(TableLookupError):
            blr_tail_factor("6m", kappa)
