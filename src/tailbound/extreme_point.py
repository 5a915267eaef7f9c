"""Closed-form extreme-point analysis for kurtosis-constrained samples.

How many population standard deviations can a single observation sit away
from the mean of an n-point sample whose kurtosis is pinned at kappa?  This
module answers within the paper's family: one extreme observation together
with a background split equally over two levels, which after normalising to
population mean 0 and variance 1 reads

    x_1 = a,
    (n-1)/2 points at  b - a/(n-1),
    (n-1)/2 points at -b - a/(n-1).

Matching the fourth moment makes a**2 a root of the quadratic

    (a**2)**2 - 2*((n-1)/(n+1))*a**2 + G(n, kappa) = 0,            (*)
    G(n, kappa) = (n-1)**2 * (n - (n-1)*kappa) / ((n+1)*(n-3)),

and the admissible root is the larger one,

    a**2 = (n-1)/(n+1) + sqrt(((n-1)/(n+1))**2 - G).

The smaller root is negative throughout the feasible kurtosis range, so the
plus sign is canonical here; it is the choice that reproduces the reference
shock tables.  The background level follows from the variance constraint
b**2 = n/(n-1) - a**2 * n/(n-1)**2; with r = (n-1)/(n+1) and the distance
delta = kappa_max - kappa to the top of the range, so that nothing cancels,

    b**2 = n*r*delta / ((n-3) * (n*r + sqrt(r**2 - G))),

which is 0 exactly at the top.  The third moment of the configuration is

    E[X**3] = -3*a/(n-1) + (n+1)*a**3/(n-1)**2.

All moments throughout this module are population moments (divisor n, raw
non-excess kurtosis).  Kurtosis is feasible on the half-open interval
(n/(n-1), (n**2 - 3n + 3)/(n - 1)]; the upper endpoint is the Samuelson
configuration b = 0, where a attains sqrt(n-1).

a(n, kappa) is the largest deviation within that equal-split family, not
over all n-point samples: an unequal split can go further.  At n = 7 the
set {-0.784283 x4, 0.587622 x2, 1.961887} has kurtosis 2.366666860592851
(by oracle_moments) and its top point 1.96189 sigma out, where
solve_extreme_point(7, 2.366666860592851).a is 1.92177.  ROADMAP.md item 10
tracks the true maximum.

Solved for n instead, (*) is a cubic whose largest root is the real size
at which a(n, kappa) reaches a given tail factor; the largest integer size
whose a still fits, the inverse of a in n, is read off next to it.

Note the small-kappa limit: as kappa decreases to the lower endpoint the
canonical root tends to sqrt(2*(n-1)/(n+1)), not to zero.  Below that
endpoint the quadratic briefly admits two positive roots; this module
treats the interval outside (kappa_min, kappa_max] as infeasible.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from . import _EXPORTS
from .errors import (DegenerateDataError, DomainError, InfeasibleKurtosisError, check_int,
                     check_real)

__all__ = list(_EXPORTS["extreme_point"])

#: every float is an integer multiple of 1/_TWO_1074, the smallest subnormal
_TWO_1074 = 1 << 1074

#: most points a list is built with (construct_distribution, generate_base, a
#: uniform search): `tailbound appendix --n 5000000` took 1.4 s and 397 MB
#: peak RSS (Python 3.11, 2-vCPU Xeon)
_MAX_POINTS = 5_000_000


def _check_points(size: int, what: str) -> None:
    if size > _MAX_POINTS:
        raise DomainError(f"{what} {size} is above the cap of {_MAX_POINTS}")


def _floats(data: Iterable[float], name: str) -> tuple[float, ...]:
    """data as a tuple of floats; an int that no float holds is a DomainError."""
    try:
        return tuple(map(float, data))
    except OverflowError:
        raise DomainError(
            f"{name} must be finite numbers, got an int past the float range") from None


class KurtosisRange(NamedTuple):
    """Feasible kurtosis interval for a sample size: (kappa_min, kappa_max]."""

    n: float
    kappa_min: float  # exclusive
    kappa_max: float  # inclusive

    def __contains__(self, kappa: float) -> bool:
        return self.kappa_min < kappa <= self.kappa_max


class ExtremePointSolution(NamedTuple):
    """Solved equal-split configuration for a given (n, kappa).

    Attributes:
        n: sample size.
        kappa: population kurtosis the configuration realises.
        g_value: constant term G(n, kappa) of the quadratic (*).
        a: largest standardised deviation, the bigger root of (*).
        b_squared: squared background level; 0 at the Samuelson endpoint.
        theta3: population third moment of the configuration.
        samuelson_bound: sqrt(n-1), the kurtosis-free ceiling for a.
    """

    n: float
    kappa: float
    g_value: float
    a: float
    b_squared: float
    theta3: float
    samuelson_bound: float


class Moments(NamedTuple):
    """Population moments: mean, variance, skewness, (raw) kurtosis."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float


def feasible_kurtosis_range(n: float) -> KurtosisRange:
    """Kurtosis interval attainable by the equal-split configuration at size n.

    The lower endpoint n/(n-1) (exclusive) is the kurtosis of the degenerate
    configuration whose extreme point collapses into the centre; the upper
    endpoint (n**2 - 3n + 3)/(n-1) (inclusive) is the Samuelson
    configuration with all background mass at a single level.

    Raises:
        DomainError: for n < 5 (the quadratic degenerates at n = 3 and the
            background needs at least two points per level), n not a finite
            number, or endpoints past the float range.
    """
    # an int past the float range is checked as the largest float: feasible_floor
    # can answer there, and _kappa_bounds takes it while its endpoints fit one
    check_real(min(n, sys.float_info.max) if isinstance(n, int) else n, "sample size",
               at_least=5.0)
    return KurtosisRange(n, *_kappa_bounds(n))


def _kappa_bounds(n: float) -> tuple[float, float]:
    """(kappa_min, kappa_max) of :func:`feasible_kurtosis_range`, unwrapped,
    for an n its callers have checked."""
    # an integral float n takes its int's exact, correctly rounded endpoints,
    # so n * n cannot overflow and a float n matches its int
    m = int(n) if isinstance(n, float) and n.is_integer() else n
    try:
        return m / (m - 1), (m * m - 3 * m + 3) / (m - 1)
    except OverflowError:  # an int n whose kappa_max no float holds
        raise DomainError(f"the kurtosis range at size {n!r} is past the float range") from None


def feasible_floor(kappa: float) -> int:
    """Smallest integer n >= 5 whose feasible kurtosis range contains kappa.

    Feasibility in n is an up-set, so every larger n is feasible too.  The
    floor is in closed form for any kappa: one evaluation of the range.

    Raises:
        DomainError: kappa not a finite number above 1.
    """
    check_real(kappa, "kurtosis", above=1.0)
    # a rounded endpoint is >= kappa when the exact one lies above mu = p/q,
    # the midpoint of kappa and its float predecessor, < kappa below it, and
    # either at a tie.  With m = n - 1, kappa_max = m - 1 + 1/m lies in
    # (m - 1, m - 3/4] for m >= 4: reaching mu needs m >= mu + 3/4, and
    # m >= mu + 7/4 clears it.  kappa_min = 1 + 1/m falls to mu at
    # m = 1/(mu - 1) and below it one size later.  So n, the least size both
    # needs allow, is never above the floor and at most one size below it.
    a, b = kappa.as_integer_ratio()
    c, d = (kappa - math.nextafter(kappa, 0.0)).as_integer_ratio()  # exact gap
    p, q = 2 * a * d - b * c, 2 * b * d
    n = 1 + max(4, -(-(4 * p + 3 * q) // (4 * q)), -(-q // (p - q)))
    k_min, k_max = _kappa_bounds(n)
    return n if k_min < kappa <= k_max else n + 1


def solve_extreme_point(n: float, kappa: float) -> ExtremePointSolution:
    """Solve the quadratic (*) for the equal-split configuration at (n, kappa).

    Its a is the largest deviation within the paper's equal-split family,
    which an unequal split can exceed (see the module docstring).

    Returns the canonical (larger) root; see the module docstring for the
    sign discussion.  The upper feasibility endpoint is evaluated in closed
    form so that a == sqrt(n-1) and b_squared == 0 exactly.

    Raises:
        DomainError: n not a finite number of at least 5, or n*kappa past
            the float range.
        InfeasibleKurtosisError: kappa outside (kappa_min, kappa_max].
    """
    nf, g, a_sq, b_sq = _solve(check_real(n, "sample size", at_least=5.0), kappa)
    a = math.sqrt(a_sq)
    theta3 = a / (nf - 1) * ((nf + 1) / (nf - 1) * (a * a) - 3.0)
    return ExtremePointSolution(n, kappa, g, a, b_sq, theta3, math.sqrt(n - 1))


def _solve(n: float, kappa: float) -> tuple[float, float, float, float]:
    """(float(n), G, a**2, b**2) of :func:`solve_extreme_point` at a checked
    n, without its named tuple, for callers that need only a."""
    k_min, k_max = _kappa_bounds(n)
    if not k_min < kappa <= k_max:
        raise InfeasibleKurtosisError(n, kappa, k_min, k_max)
    nf = float(n)
    g, r, s = _quadratic(nf, kappa)
    if g == -math.inf:  # (n-1)*(kappa-1) overflowed
        raise DomainError(f"n*kappa = {n!r}*{kappa!r} is past the float range")
    if kappa == k_max:  # Samuelson endpoint, exactly
        return nf, g, nf - 1.0, 0.0
    # b**2 from delta = k_max - kappa, taken at the range check's float
    # endpoint: >= 0, exact near it (Sterbenz), and no factor exceeds ~n
    return nf, g, r + s, (k_max - kappa) / (nf - 3) * (nf * r / (nf * r + s))


def _quadratic(nf: float, kappa: float) -> tuple[float, float, float]:
    """(G, r, s) of (*) at a float n, so that a**2 = r + s, with r = (n-1)/(n+1)
    and s = sqrt(r**2 - G).  Unchecked: kappa must lie in the feasible range
    at n, where G <= 0.  An n*kappa past the float range gives G = -inf."""
    # ratios of a float n keep every intermediate near the size of the
    # result, so neither a huge int n nor (n-1)**2 overflows
    r = (nf - 1) / (nf + 1)
    # n - (n-1)*kappa as 1 - (n-1)*(kappa-1): kappa - 1 is exact, and near
    # kappa_min so is the subtraction, so the factor keeps the product's one
    # rounding instead of an error of ulp(n)
    g = r * ((nf - 1) / (nf - 3)) * (1.0 - (nf - 1) * (kappa - 1.0))
    return g, r, math.sqrt(r * r - g)


def _a(n: float, kappa: float) -> float:
    """The a of :func:`solve_extreme_point`, bit for bit, at a checked n."""
    return math.sqrt(_solve(n, kappa)[2])  # item 2 is a**2


def _a_inside(n: int, kappa: float) -> float:
    """:func:`_a` unchecked, for a kappa strictly inside the rounded range at
    n: there _solve returns r + s, so this is _a bit for bit."""
    _, r, s = _quadratic(float(n), kappa)
    return math.sqrt(r + s)


def _crossing(tail_factor: float, kappa: float) -> float:
    """Real n at which a(n, kappa) = tail_factor, in floats.

    With m = n - 1 and A = tail_factor**2, the quadratic (*) solved for n is
    the cubic

        (kappa-1)*m**3 - (A-1)**2*m**2 - 4*A*m + 4*A**2 = 0,

    and the crossing is its largest root.  Divided by kappa - 1 it reads
    m**3 - P*m**2 - Q*m + S.  At the root m*(m - P) = Q - S/m < Q, so
    P + Q/P lies above it; for a root m >= 4 the cubic is convex from the
    root on, so Newton steps from there descend to it monotonically and
    stop when rounding no longer lets them descend.
    """
    big_a = tail_factor * tail_factor
    p = (big_a - 1.0) * (big_a - 1.0) / (kappa - 1.0)  # ** 2 would raise on overflow
    q = 4.0 * big_a / (kappa - 1.0)
    s = big_a * q
    m = p + q / p if p else 0.0  # p is 0 only within 1.5e-8 of 1, below every a(n)
    while True:
        d = (3.0 * m - 2.0 * p) * m - q  # slope; 0 only past a root-free minimum
        m_next = m - (((m - p) * m - q) * m + s) / d if d > 0.0 else m
        if not m_next < m:
            return m + 1.0
        m = m_next


def _max_safe_size(tail_factor: float, kappa: float, top: int) -> int | None:
    """Largest size n <= top with a(n, kappa) <= tail_factor, the inverse of a
    in n, for a finite tail_factor > 0, a finite kappa > 1 and a top >= 5.

    a grows with n, and the real crossing lies within a step of the first
    breach.  So one walk from the integer below it, clamped between 5 and
    top, settles the answer: up to the first breach or down to the last safe
    size, each size evaluated at most once.  None when a(top) still fits, 0
    when a at the feasibility floor already exceeds tail_factor.

    Raises:
        DomainError: no feasible size at or below top.
    """
    crossing = _crossing(tail_factor, kappa)  # nan or inf once tail_factor**2 overflows
    n = max(min(math.floor(crossing), top), 5) if math.isfinite(crossing) else top
    # Rounded endpoints are monotone in n, so a kappa strictly inside the range
    # at n is strictly inside at every larger size, where _a_inside is _a.
    # Otherwise, and below n, only _a is sure.
    k_min, k_max = _kappa_bounds(n)
    lo = 0  # the feasibility floor, once the walk needs it
    if k_min < kappa < k_max:
        a = _a_inside
    else:
        lo = feasible_floor(kappa)
        if lo > top:
            raise DomainError(f"no feasible history length at or below the ceiling {top}")
        a, n = _a, max(n, lo)
    if a(n, kappa) <= tail_factor:  # step up to the first breach
        while n < top:
            n += 1
            if a(n, kappa) > tail_factor:
                return n - 1
        return None
    lo = lo or feasible_floor(kappa)  # at most n where kappa was inside the range
    while n > lo:  # step down to the last safe size
        n -= 1
        if _a(n, kappa) <= tail_factor:
            return n
    return 0


def asymptotic_a(n: float, kappa: float) -> float:
    """Large-n approximation sqrt(1 + sqrt(1 + n*(kappa-1))) of the extreme
    deviation.

    Its leading order is (n*(kappa-1))**0.25.  The sign in front of the
    outer 1 is corrected from the printed form sqrt(-1 + sqrt(...)), which
    falls below the exact root; this one tracks it from above.

    Raises:
        DomainError: n not a finite number of at least 5, or kappa not a
            finite number above 1.
    """
    check_real(n, "sample size", at_least=5.0)
    check_real(kappa, "kurtosis", above=1.0)
    # sqrt(1 + n*(kappa-1)) as a hypot of square roots, which cannot overflow
    return math.sqrt(math.hypot(1.0, math.sqrt(n) * math.sqrt(kappa - 1.0)) + 1.0)


def samuelson_bound(n: float) -> float:
    """Kurtosis-free ceiling sqrt(n-1) on any standardised deviation.

    Raises:
        DomainError: n not a finite number of at least 2.
    """
    return math.sqrt(check_real(n, "sample size", at_least=2.0) - 1)


def construct_distribution(n: int, kappa: float) -> list[float]:
    """Materialise the equal-split configuration as an explicit n-point dataset.

    Requires odd integer n so the background splits into two equal halves;
    for even n the closed form remains available through
    :func:`solve_extreme_point`.

    The returned list has population mean 0, variance 1, kurtosis kappa,
    and maximum exactly equal to the solved a (same float).

    Raises:
        DomainError: n not an odd integer from 5 to 5,000,000.
        InfeasibleKurtosisError: kappa outside (kappa_min, kappa_max].
    """
    check_int(n, "sample size", at_least=5)
    if n % 2 == 0:
        raise DomainError(
            f"sample size must be odd to realise the two-level background (got {n}); "
            "use solve_extreme_point for the closed form at even n"
        )
    _check_points(n, "sample size")
    sol = solve_extreme_point(n, kappa)
    b = math.sqrt(sol.b_squared)
    shift = sol.a / (n - 1)
    half = (n - 1) // 2
    return [sol.a] + [b - shift] * half + [-b - shift] * half


def _wsum(terms: Iterable[float], counts: Sequence[int] | None) -> float:
    """fsum of terms, the i-th counted counts[i] times when counts is given.

    With counts the weighted sum is one exact int in units of 2**-1074, and
    int true division rounds it once: equal to fsum over the repeated list,
    bit for bit, for finite terms."""
    if counts is None:
        return math.fsum(terms)
    total = 0
    for term, count in zip(terms, counts):
        p, q = term.as_integer_ratio()  # q is a power of two up to 2**1074
        total += (count * p) << (1075 - q.bit_length())
    return total / _TWO_1074


def _central_sums(values: Iterable[float], centre: float, counts: Sequence[int] | None = None,
                  odd: bool = True) -> tuple[float, float | None, float]:
    """Compensated sums (s2, s3, s4) of (v - centre)**k, the i-th value counted
    counts[i] times when counts is given (see :func:`_wsum`): the one kernel of
    centred powers, for the outlier search's two passes and the empirical
    moments.  Unless odd is true s3 is None and only the squares are kept,
    each taken where its deviation is formed.  The lists of deviations and
    squares come from comprehensions, whose float subtract and multiply cost
    less per value than a map of operator.sub or mul; the products summed
    at once stay maps, which build no list."""
    if odd:
        dev = [v - centre for v in values]
        sq = [d * d for d in dev]
        s3 = _wsum(map(mul, sq, dev), counts)
    else:
        sq = [(d := v - centre) * d for v in values]
        s3 = None
    return _wsum(sq, counts), s3, _wsum(map(mul, sq, sq), counts)


def oracle_moments(data: Iterable[float]) -> Moments:
    """Population moments by direct summation.

    Exact compensated sums of centred powers, divisor n throughout, no
    shortcuts: the reference arithmetic the closed forms are tested against.
    The powers are taken as products, on the data scaled by the power of two
    that brings max |x| into [0.5, 1).  That scaling is exact, so the
    moments do not depend on the data's magnitude and no sum overflows.

    Raises:
        DomainError: empty or non-finite input, or a variance that does not
            fit a normal float in data units.
        DegenerateDataError: zero variance (skewness/kurtosis undefined).
    """
    mean, variance, skewness, kurtosis, _, _ = _moments(_floats(data, "data"), odd=True)
    return Moments(mean, variance, skewness, kurtosis)


def _moments(values: Sequence[float], odd: bool = False
             ) -> tuple[float, float, float | None, float, float, float]:
    """(mean, variance, skewness, kurtosis, min, max) of a sequence of floats,
    as :func:`oracle_moments` computes them: the mean from one fsum, then one
    :func:`_central_sums` pass about it, the outlier search's kernel.  The
    odd sum for skewness is formed only when odd is true; skewness is None
    otherwise."""
    n = len(values)
    if not n:
        raise DomainError("cannot compute moments of an empty dataset")
    lo, hi = min(values), max(values)
    top = max(hi, -lo)
    if not top < math.inf:
        raise DomainError(f"data must be finite numbers, got {top!r}")
    # 2**-e brings max |x| into [0.5, 1); below 2**-1024 the variance cannot
    # fit a float anyway, and 2**1023 is the largest factor there is
    e = max(math.frexp(top)[1], -1023)
    scale = math.ldexp(1.0, -e)
    # below max |x| = 1, as for any return series, the scale is at least 1
    # and the data's own sum scales to the scaled data's sum bit for bit: a
    # normal sum rounds to the same 53 bits either way, and a sum under
    # 2**-1021 is a multiple of 2**-1074 that fits 53 bits, so fsum returns
    # it exactly.  A scale below 1 would drop a subnormal's low bits, so
    # from max |x| = 1 on the data is scaled first.
    if e <= 0:
        mean = math.fsum(values) * scale / n
    else:
        mean = math.fsum(map(mul, values, repeat(scale))) / n
    if mean != mean:  # a nan that max and min stepped over
        raise DomainError("data must be finite numbers, got nan")
    s2, s3, s4 = _central_sums(map(mul, values, repeat(scale)), mean, odd=odd)
    variance = s2 / n
    if variance <= 0.0:
        raise DegenerateDataError("zero variance: higher moments are undefined")
    skewness = s3 / n / math.sqrt(variance)**3 if odd else None
    kurtosis = s4 / n / variance**2
    # variance * 4**e lies in [2**(exponent - 1), 2**exponent)
    exponent = math.frexp(variance)[1] + 2 * e
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        raise DomainError(
            f"the variance of the data, about 2**{exponent}, does not fit a "
            "normal float; rescale the data"
        )
    return math.ldexp(mean, e), math.ldexp(variance, 2 * e), skewness, kurtosis, lo, hi
