"""Reference distributions: tail quantiles, Student-t kurtosis, BLR shocks.

A "tail factor" here is the one-sided upper quantile at tail mass q = 1/n:
the deviation (in standard-deviation units for the normal; raw variate units
for Student-t, matching how published shock tables quote it) expected to be
exceeded once in n observations.

The solvers take the upper-tail mass q itself (``normal_isf``,
``student_t_isf``), so a deep horizon never passes through 1 - q and keeps
its digits up to the largest float horizon.  They reflect a q above 1/2
onto the smaller tail themselves, so the inverse CDFs ``*_quantile(p)`` are
``0.0 - *_isf(p)``: +0.0 at p = 1/2, where the plain negation gives -0.0.

* normal: the rational start of Abramowitz & Stegun 26.2.23 (Handbook of
  Mathematical Functions, 1964; error below 4.5e-4) refined by three Newton
  steps against an erfc-based survival function;
* Student-t: Hill's closed-form start (G. W. Hill, "Algorithm 396:
  Student's t-quantiles", CACM 13(10), 1970), exact for dof 1 and 2,
  finished by a safeguarded Halley step on the log-survival function.
  For q from 1e-300 to 1/2, Hill's start is within 1e-5 of the root on
  every grid measured (save dof 3 at q from 0.056 to 0.064, where it is up
  to 1.5e-5 off and a second step follows), so one step, and one tail
  evaluation, ends the solve; the cubic error that step leaves measured at
  most 0.32 ulp against 40-digit arithmetic.  The survival function
  goes through the regularised incomplete beta function (continued
  fraction, Lentz's method) in log space, so neither it nor the density
  underflows.

Against scipy's survival function, sf(isf(q))/q - 1 stays within 1e-11 for
the normal for q from 1/1.7e308 to 1/2.  For Student-t, with q from 1e-300
to 1/2, it stays within 1e-11 for dof <= 1000, 2e-11 up to dof 1e5 and
2e-10 up to dof 1e6.  From dof 55 on the log-density constant comes from an
asymptotic series, within an ulp of its exact value: from dof 55 to 999, at
tail masses from 1e-7 to 0.004, tail factors then sit 1.6 ulp from the
40-digit root on average and 29 ulp at worst in a 300-point sample, against
33 and 595 ulp with lgamma's constant.  Above dof 1000 what is left is the
continued fraction's first terms, which cancel as dof/(dof + x**2) nears 1;
above dof 10**6 the tail and quantile raise DomainError.

The Brace-Lauer-Rado (BLR) stochastic-volatility shock model enters through
its kurtosis link kappa = 3*exp(h**2/(2g)) and through its published 1-day
tail factors, embedded verbatim in :data:`BLR_TAIL_FACTORS`.
"""

from __future__ import annotations

import math
import sys
from types import MappingProxyType
from typing import NamedTuple

from . import _EXPORTS
from .errors import DomainError, SearchError, TableLookupError, check_int, check_real

__all__ = list(_EXPORTS["distributions"])

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------


def _cdf_point(x: float) -> float:
    """x where a CDF is taken: an int past the float range stands at the
    infinity of its sign, and nan is a DomainError."""
    if x != x:
        raise DomainError("x must be a number, got nan")
    if -sys.float_info.max <= x <= sys.float_info.max:
        return x
    return math.inf if x > 0 else -math.inf


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate in both tails, 0 and 1 at -inf
    and inf, and a DomainError at nan."""
    return 0.5 * math.erfc(-_cdf_point(x) / _SQRT2)


def normal_isf(q: float) -> float:
    """Standard normal deviate exceeded with probability q (upper tail).

    Raises:
        DomainError: q outside the open interval (0, 1).
    """
    check_real(q, "tail mass", above=0.0, below=1.0)
    return -_normal_isf(1.0 - q) if q > 0.5 else _normal_isf(q)  # 1 - q exact here


def _normal_isf(q: float) -> float:
    """:func:`normal_isf` at a float q in (0, 1/2], unchecked."""
    if q == 0.5:
        return 0.0
    # Abramowitz & Stegun 26.2.23: |error| < 4.5e-4 for q <= 1/2
    t = math.sqrt(-2.0 * math.log(q))
    x = t - ((0.010328 * t + 0.802853) * t + 2.515517) / (
        ((0.001308 * t + 0.189269) * t + 1.432788) * t + 1.0)
    # the residual sf(x) - q: near the centre as (1/2 - q) - erf(x/sqrt 2)/2,
    # whose 1/2 - q is exact for q >= 1/4 (Sterbenz) and whose erf keeps the
    # relative accuracy that erfc loses as x nears 0
    c = 0.5 - q
    for _ in range(3):
        r = 0.5 * math.erfc(x / _SQRT2) - q if q < 0.25 else c - 0.5 * math.erf(x / _SQRT2)
        x += r / (_INV_SQRT_2PI * math.exp(-0.5 * x * x))
    return x


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF; solved on the smaller tail of p.

    Raises:
        DomainError: p outside the open interval (0, 1).
    """
    check_real(p, "probability", above=0.0, below=1.0)
    return 0.0 - normal_isf(p)  # +0.0 at p = 1/2, where -normal_isf(p) is -0.0


# ---------------------------------------------------------------------------
# Student-t distribution
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz).

    The term counter is a float and the guards are chained comparisons:
    the float operations, and so the result, are those of the textbook loop
    with an int counter and abs(), without its conversions and calls.
    """
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(399):
        m += 1.0
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-15 < delta - 1.0 < 1e-15:
            return h
    raise SearchError("incomplete beta continued fraction did not converge")


#: Largest dof the Student-t tail accepts: the continued fraction's error
#: grows with dof, past the documented bands above it.
_DOF_MAX = 10**6

#: From a = dof/2 = 27.5 on, log Gamma(a + 1/2)/Gamma(a) comes from its
#: asymptotic series, within an ulp of the exact constant there (dof 54 is
#: 1.9 ulp off), and not from lgamma(a + 1/2) - lgamma(a), whose terms near
#: a*log(a) cancel to errors of up to 1.7e-13 below dof 1000.
_SERIES_A = 27.5
_HALF_LOG_2PI = 0.9189385332046728  # log(2*pi)/2, correctly rounded


def _student_t_log_norm(dof: int) -> float:
    """log pdf(0) = log Gamma(a + 1/2) - log Gamma(a) - log sqrt(dof*pi), a = dof/2.

    From a = 27.5 on, log Gamma(a + 1/2)/Gamma(a) is the asymptotic series
    1/2 log a - 1/(8a) + 1/(192a**3) - 1/(640a**5) + 17/(14336a**7) (from
    Stirling's series, Abramowitz & Stegun 6.1.41; the first term left out
    is -31/(18432a**9)).  Its 1/2 log a cancels exactly against that of
    log sqrt(dof*pi) = 1/2 log a + 1/2 log(2pi), so nothing is left to cancel.
    """
    a = 0.5 * dof
    if a < _SERIES_A:
        return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(dof * math.pi)
    r = 1.0 / (a * a)
    return (((17.0 / 14336.0 * r - 1.0 / 640.0) * r + 1.0 / 192.0) * r - 0.125) / a - _HALF_LOG_2PI


def _student_t_log_tail(x: float, dof: int, log_norm: float) -> tuple[float, float]:
    """(log P(T > x), log pdf(x)) for x > 0, free of overflow and underflow.

    log_norm is :func:`_student_t_log_norm` of dof.  With t = x/sqrt(dof)
    and z = 1/(1 + t**2), P(T > x) = I_z(dof/2, 1/2)/2, and the
    incomplete-beta front factor z**(dof/2) * (1-z)**(1/2) / B is exactly
    x * pdf(x), so one log-density serves both.
    """
    a = 0.5 * dof
    t = x / math.sqrt(dof)
    # log(1 + t**2) without forming t**2 when it could overflow
    log1p_t2 = 2.0 * math.log(t) + math.log1p(1.0 / (t * t)) if t > 1.0 else math.log1p(t * t)
    log_pdf = log_norm - (a + 0.5) * log1p_t2
    z = math.exp(-log1p_t2)
    if z < (a + 1.0) / (a + 2.5):
        log_sf = log_pdf + math.log(x / dof * _betacf(a, 0.5, z))
    else:  # centre: I_z = 1 - I_{1-z}(1/2, a)
        w = t * t / (1.0 + t * t)
        log_sf = math.log(0.5 - x * math.exp(log_pdf) * _betacf(0.5, a, w))
    return log_sf, log_pdf


def student_t_cdf(x: float, dof: int) -> float:
    """Student-t CDF with integer degrees of freedom; each tail is taken
    directly, so the lower one keeps its relative accuracy.  0 and 1 at -inf
    and inf.

    Raises:
        DomainError: dof not an integer in 1..10**6, or x nan.
    """
    check_int(dof, "degrees of freedom", at_least=1, at_most=_DOF_MAX)
    x = _cdf_point(x)
    if math.isinf(x):
        return 1.0 if x > 0.0 else 0.0
    if x == 0.0:
        return 0.5
    tail = math.exp(_student_t_log_tail(abs(x), dof, _student_t_log_norm(dof))[0])
    return tail if x < 0.0 else 1.0 - tail


def _hill_start(q: float, dof: int) -> float:
    """Hill's (1970) closed-form upper quantile at tail mass q <= 1/2.

    Exact for dof 1 and 2.  Hill's argument is the two-sided mass 2q; y is
    formed in logs so that (d * 2q)**(2/dof) cannot underflow.
    """
    if dof == 1:  # Cauchy; 0.5 - q is exact for q > 1/4
        return math.tan(math.pi * (0.5 - q)) if q > 0.25 else 1.0 / math.tan(math.pi * q)
    if dof == 2:
        return (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
    n = float(dof)
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * n
    y = math.exp(2.0 / n * (math.log(d) + math.log(2.0 * q)))
    if y > 0.05 + a:  # asymptotic expansion about the normal deviate
        x = -_normal_isf(q)
        y = x * x
        if dof < 5:
            c += 0.3 * (n - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
              + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
    return math.sqrt(n * y)


#: The solver returns once a Halley step moves x by less than this fraction:
#: the error left after that step is of order its cube, below rounding.
_HALLEY_STEP_TOL = 1e-5
_ITERATION_CAP = 60


def student_t_isf(q: float, dof: int) -> float:
    """Student-t deviate exceeded with probability q (raw, not standardised).

    Hill's start, then Halley steps on g(x) = log sf(x) - log q, kept inside
    the bracket the residual signs establish.  With the hazard h = pdf/sf,
    g' = -h and g'' = h*((dof+1)*x/(dof + x**2) - h) are in closed form, so
    a step costs one tail evaluation; where Halley's denominator is not
    positive the step is Newton's.  Working in logs keeps full relative
    accuracy down to the smallest tail masses.

    Raises:
        DomainError: q outside (0, 1), or dof not an integer in 1..10**6.
        SearchError: the iteration did not settle within its cap.
    """
    check_int(dof, "degrees of freedom", at_least=1, at_most=_DOF_MAX)
    check_real(q, "tail mass", above=0.0, below=1.0)
    return -_student_t_isf(1.0 - q, dof) if q > 0.5 else _student_t_isf(q, dof)  # 1 - q exact


def _student_t_isf(q: float, dof: int) -> float:
    """:func:`student_t_isf` at a float q in (0, 1/2] and a checked dof."""
    if q == 0.5:
        return 0.0
    x = _hill_start(q, dof)
    if dof <= 2:
        return x
    log_q = math.log(q)
    log_norm = _student_t_log_norm(dof)
    nu1 = dof + 1.0
    lo, hi = 0.0, math.inf
    for _ in range(_ITERATION_CAP):
        log_sf, log_pdf = _student_t_log_tail(x, dof, log_norm)
        resid = log_sf - log_q
        if resid > 0.0:  # sf too large, root lies to the right
            lo = x
        else:
            hi = x
        h = math.exp(log_pdf - log_sf)
        # Halley: resid / (h - resid * g''/(2h)); (dof+1)*x/(dof + x**2)
        # divided through by x, so x**2 cannot overflow
        denom = h - 0.5 * resid * (nu1 / (dof / x + x) - h)
        if denom > 0.0:
            step = resid / denom
            if -_HALLEY_STEP_TOL * x <= step <= _HALLEY_STEP_TOL * x:
                return x + step
        else:
            step = resid / h
        x_new = x + step
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise SearchError(f"Student-t quantile at q={q!r}, dof={dof} did not converge")


def student_t_quantile(p: float, dof: int) -> float:
    """Inverse Student-t CDF (raw quantile); solved on the smaller tail of p.

    Raises:
        DomainError: p outside (0, 1), or dof not an integer in 1..10**6.
        SearchError: the solver did not converge.
    """
    check_real(p, "probability", above=0.0, below=1.0)
    return 0.0 - student_t_isf(p, dof)  # +0.0 at p = 1/2, as in normal_quantile


def student_t_kurtosis(dof: int, convention: str = "raw") -> float:
    """Kurtosis of the Student-t distribution.

    convention="excess" returns 6/(dof-4); "raw" adds 3.  Finite only for
    dof >= 5.

    Raises:
        DomainError: dof not an integer in the float range, dof <= 4 (the
            kurtosis is infinite or undefined there), or a bad convention.
    """
    check_int(dof, "degrees of freedom", at_least=5)
    if convention not in ("raw", "excess"):
        raise DomainError(f"convention must be 'raw' or 'excess', got {convention!r}")
    excess = 6.0 / (dof - 4)
    return excess if convention == "excess" else 3.0 + excess


# ---------------------------------------------------------------------------
# tail-factor queries
# ---------------------------------------------------------------------------


class _TailFactorQueryFields(NamedTuple):
    horizon_n: float
    model: str  # "normal" | "student-t"
    dof: int | None


class TailFactorQuery(_TailFactorQueryFields):
    """A once-in-horizon_n tail-factor request against a reference model.

    The solvers receive the tail mass 1/horizon_n directly; probability is
    the implied one-sided level 1 - 1/horizon_n, reported only.
    """

    __slots__ = ()

    def __new__(cls, horizon_n: float, model: str, dof: int | None = None):
        check_real(horizon_n, "horizon", at_least=2.0)
        if model not in ("normal", "student-t"):
            raise DomainError(f"model must be 'normal' or 'student-t', got {model!r}")
        if model == "student-t" and dof is None:
            raise DomainError("student-t tail factors need degrees of freedom")
        if model == "normal" and dof is not None:
            raise DomainError("dof is only meaningful for the student-t model")
        if dof is not None:
            check_int(dof, "degrees of freedom", at_least=1, at_most=_DOF_MAX)
        return super().__new__(cls, horizon_n, model, dof)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: keep it checked
        return cls(*iterable)

    @property
    def probability(self) -> float:
        return 1.0 - 1.0 / self.horizon_n

    def tail_factor(self) -> float:
        # the query checked dof, and a horizon of at least 2 puts q in (0, 1/2]
        q = 1.0 / self.horizon_n
        if self.model == "normal":
            return _normal_isf(q)
        return _student_t_isf(q, self.dof)


# ---------------------------------------------------------------------------
# Brace-Lauer-Rado shock model
# ---------------------------------------------------------------------------


def blr_kurtosis(h: float, g: float) -> float:
    """Return kurtosis 3*exp(h**2/(2g)) of the BLR volatility model.

    h is the volatility-of-volatility, g the mean-reversion rate (both in
    consistent inverse-time units; only h**2/g matters).

    Raises:
        DomainError: h or g not a finite number, g <= 0 or h < 0, or a
            kurtosis past the float range.
    """
    check_real(h, "volatility-of-volatility h", at_least=0.0)
    check_real(g, "mean-reversion rate g", above=0.0)
    exponent = h * h / (2.0 * g)  # nan once h*h and 2g both overflow
    # exp() raises OverflowError itself from about 709.78 on
    kappa = 3.0 * math.exp(exponent) if exponent <= 709.0 else math.inf
    if not kappa < math.inf:
        raise DomainError(f"kurtosis overflows: h**2/(2g) = {exponent!r} is too large")
    return kappa


def blr_h_from_kurtosis(kappa: float, g: float) -> float:
    """Invert the BLR kurtosis link: h = sqrt(2g * ln(kappa/3)).

    Raises:
        DomainError: kappa or g not a finite number, kappa < 3 (the model
            cannot reach sub-normal kurtosis) or g <= 0.
    """
    check_real(kappa, "kurtosis kappa", at_least=3.0)
    check_real(g, "mean-reversion rate g", above=0.0)
    # 2 * log first, so kappa = 3 gives 0 and not inf * 0 at a g above MAX/2
    t = 2.0 * math.log(kappa / 3.0)
    # the root of a product past the float range (the root itself, below
    # 1e156, is a float) or below the normal floats, where it loses bits or
    # underflows to 0, is taken as a product of roots
    if not sys.float_info.min <= t * g < math.inf:
        return math.sqrt(t) * math.sqrt(g)
    return math.sqrt(t * g)


#: Version tag for the embedded published tail-factor table below.
BLR_TABLE_VERSION = "blr-1day-rho0.5-v1"

#: Published BLR 1-day stress tail factors (multiples of daily sigma) for an
#: AA survival target of 0.9997, abs(rho) = 0.5, keyed by mean-reversion time
#: 1/g (months) then by model kurtosis.  Values are quoted verbatim from the
#: published grid; they are inputs to validation, not derived here.
BLR_TAIL_FACTORS = MappingProxyType({
    "1m": MappingProxyType({7: 13.648, 10: 17.485, 13: 20.445, 16: 22.873}),
    "2m": MappingProxyType({7: 13.397, 10: 17.148, 13: 20.041, 16: 22.412}),
    "3m": MappingProxyType({7: 13.278, 10: 16.986, 13: 19.846, 16: 22.190}),
    "4m": MappingProxyType({7: 13.204, 10: 16.886, 13: 19.726, 16: 22.053}),
    "5m": MappingProxyType({7: 13.153, 10: 16.817, 13: 19.642, 16: 21.958}),
    "6m": MappingProxyType({7: 13.115, 10: 16.765, 13: 19.579, 16: 21.886}),
})


def blr_tail_factor(g_inverse_label: str, kappa: float) -> float:
    """Look up a published BLR tail factor.

    The kurtosis column is found by equality, so 7.0 finds the 7 column.

    Raises:
        TableLookupError: unknown mean-reversion label or kurtosis column.
    """
    try:
        row = BLR_TAIL_FACTORS[g_inverse_label]
    except KeyError:
        raise TableLookupError(g_inverse_label, BLR_TAIL_FACTORS.keys()) from None
    try:
        return row[kappa]
    except KeyError:
        raise TableLookupError(kappa, row.keys()) from None
