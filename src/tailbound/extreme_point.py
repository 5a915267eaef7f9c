"""Closed-form extreme-point analysis for kurtosis-constrained samples.

How many population standard deviations can a single observation sit away
from the mean of an n-point sample whose kurtosis is pinned at kappa?  The
maximising configuration consists of one extreme observation together with
a symmetric two-level background: after normalising to population mean 0
and variance 1 it reads

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
shock tables.  The background level follows from the variance constraint,

    b**2 = n/(n-1) - a**2 * n / (n-1)**2,

and the third moment of the configuration is

    E[X**3] = -3*a/(n-1) + (n+1)*a**3/(n-1)**2.

All moments throughout this module are population moments (divisor n, raw
non-excess kurtosis).  Kurtosis is feasible on the half-open interval
(n/(n-1), (n**2 - 3n + 3)/(n - 1)]; the upper endpoint is the Samuelson
configuration b = 0, where a attains sqrt(n-1).

Note the small-kappa limit: as kappa decreases to the lower endpoint the
canonical root tends to sqrt(2*(n-1)/(n+1)), not to zero.  Below that
endpoint the quadratic briefly admits two positive roots; this module
treats the interval outside (kappa_min, kappa_max] as infeasible.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import mul, sub
from typing import Iterable, NamedTuple

from .errors import DegenerateDataError, DomainError, InfeasibleKurtosisError

__all__ = [
    "KurtosisRange",
    "ExtremePointSolution",
    "Moments",
    "feasible_kurtosis_range",
    "feasible_floor",
    "solve_extreme_point",
    "asymptotic_a",
    "samuelson_bound",
    "third_moment",
    "construct_distribution",
    "oracle_moments",
]

class KurtosisRange(NamedTuple):
    """Feasible kurtosis interval for a sample size: (kappa_min, kappa_max]."""

    n: float
    kappa_min: float  # exclusive
    kappa_max: float  # inclusive

    def __contains__(self, kappa: float) -> bool:
        return self.kappa_min < kappa <= self.kappa_max


class ExtremePointSolution(NamedTuple):
    """Solved extremal configuration for a given (n, kappa).

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
    """Kurtosis interval attainable by the extremal configuration at size n.

    The lower endpoint n/(n-1) (exclusive) is the kurtosis of the degenerate
    configuration whose extreme point collapses into the centre; the upper
    endpoint (n**2 - 3n + 3)/(n-1) (inclusive) is the Samuelson
    configuration with all background mass at a single level.

    Raises:
        DomainError: for n < 5 (the quadratic degenerates at n = 3 and the
            background needs at least two points per level).
    """
    return KurtosisRange(n, *_kappa_bounds(n))


def _kappa_bounds(n: float) -> tuple[float, float]:
    """(kappa_min, kappa_max) of :func:`feasible_kurtosis_range`, unwrapped."""
    if not n >= 5:
        raise DomainError(f"sample size must be at least 5, got {n!r}")
    # an integral float n takes its int's exact, correctly rounded endpoints,
    # so n * n cannot overflow and a float n matches its int
    m = int(n) if isinstance(n, float) and n.is_integer() else n
    return m / (m - 1), (m * m - 3 * m + 3) / (m - 1)


def _first_true(pred, lo: int, guess: int) -> int:
    """Smallest integer n >= lo with pred(n), for a pred false then true on
    n >= lo.  Probes guess >= lo, then 1, 2, 4, ... away from it until pred
    changes, and bisects that bracket: O(log |guess - answer|) calls of pred."""
    if pred(guess):
        bad, good, step = lo - 1, guess, 1  # lo - 1 is never probed
        while guess - step >= lo:
            if not pred(guess - step):
                bad = guess - step
                break
            good, step = guess - step, 2 * step
    else:
        bad, step = guess, 1
        while not pred(guess + step):
            bad, step = guess + step, 2 * step
        good = guess + step
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if pred(mid) else (mid, good)
    return good


def feasible_floor(kappa: float) -> int:
    """Smallest integer n >= 5 whose feasible kurtosis range contains kappa.

    Feasibility in n is an up-set, so every larger n is feasible too.  The
    search from a float estimate costs time logarithmic in the estimate's
    error, which is large above kappa ~ 1e21 and within ~ 1e-12 of 1.

    Raises:
        DomainError: kappa not a finite number above 1.
    """
    if not 1.0 < kappa < math.inf:
        raise DomainError(f"kurtosis must be a finite number above 1, got {kappa!r}")
    # kappa <= kappa_max(n) is quadratic in n; its larger root, written with
    # s = kappa + 3 so that it cannot overflow, is s*(1 + sqrt(1 - 4/s))/2
    s = kappa + 3.0
    guess = max(5, math.ceil(s * (0.5 + 0.5 * math.sqrt(1.0 - 4.0 / s))))
    if kappa <= 1.25:  # lower endpoint n/(n-1) binds instead
        guess = max(guess, math.floor(kappa / (kappa - 1.0)) + 1)

    def feasible(n: int) -> bool:
        k_min, k_max = _kappa_bounds(n)
        return k_min < kappa <= k_max

    return _first_true(feasible, 5, guess)


def solve_extreme_point(n: float, kappa: float) -> ExtremePointSolution:
    """Solve the quadratic (*) for the extremal configuration at (n, kappa).

    Returns the canonical (larger) root; see the module docstring for the
    sign discussion.  The upper feasibility endpoint is evaluated in closed
    form so that a == sqrt(n-1) and b_squared == 0 exactly.

    Raises:
        DomainError: n < 5, or n*kappa past the float range.
        InfeasibleKurtosisError: kappa outside (kappa_min, kappa_max].
    """
    nf, g, a_sq, b_sq = _solve(n, kappa)
    a = math.sqrt(a_sq)
    theta3 = a / (nf - 1) * ((nf + 1) / (nf - 1) * (a * a) - 3.0)
    return ExtremePointSolution(n, kappa, g, a, b_sq, theta3, math.sqrt(n - 1))


def _solve(n: float, kappa: float) -> tuple[float, float, float, float]:
    """(float(n), G, a**2, b**2) of :func:`solve_extreme_point`, without its
    named tuple, for callers that need only a; raises as that function does."""
    k_min, k_max = _kappa_bounds(n)
    if not k_min < kappa <= k_max:
        raise InfeasibleKurtosisError(n, kappa, k_min, k_max)

    # ratios of a float n keep every intermediate near the size of the
    # result, so neither a huge int n nor (n-1)**2 overflows
    nf = float(n)
    r = (nf - 1) / (nf + 1)
    g = r * ((nf - 1) / (nf - 3)) * (nf - (nf - 1) * kappa)

    if kappa == k_max and g > -math.inf:
        # Samuelson endpoint (an overflowed g goes on to the DomainError
        # below): exact arithmetic avoids a root-cancellation wobble of
        # order 1e-16 that would make b_squared dip negative.
        return nf, g, nf - 1.0, 0.0
    a_sq = r + math.sqrt(r * r - g)
    b_sq = nf / (nf - 1) - a_sq / (nf - 1) * nf / (nf - 1)
    if b_sq < 0.0:
        if g == -math.inf:  # (n-1)*kappa overflowed, so a_sq is inf
            raise DomainError(f"n*kappa = {n!r}*{kappa!r} is past the float range")
        if b_sq < -1e-9:  # cannot happen inside the feasible range
            raise InfeasibleKurtosisError(n, kappa, k_min, k_max)
        b_sq = 0.0
    return nf, g, a_sq, b_sq


def third_moment(solution: ExtremePointSolution) -> float:
    """Population third moment -3a/(n-1) + (n+1)a**3/(n-1)**2 of a solved
    configuration."""
    return solution.theta3


def asymptotic_a(n: float, kappa: float) -> float:
    """Large-n approximation sqrt(1 + sqrt(1 + n*(kappa-1))) of the extreme
    deviation.

    Its leading order is (n*(kappa-1))**0.25.  The sign in front of the
    outer 1 is corrected from the printed form sqrt(-1 + sqrt(...)), which
    falls below the exact root; this one tracks it from above.

    Raises:
        DomainError: kappa <= 1 or n < 5.
    """
    if not n >= 5:
        raise DomainError(f"sample size must be at least 5, got {n!r}")
    if not kappa > 1.0:
        raise DomainError(f"kurtosis must exceed 1, got {kappa!r}")
    return math.sqrt(math.sqrt(1.0 + n * (kappa - 1.0)) + 1.0)


def samuelson_bound(n: float) -> float:
    """Kurtosis-free ceiling sqrt(n-1) on any standardised deviation.

    Raises:
        DomainError: n < 2.
    """
    if not n >= 2:
        raise DomainError(f"sample size must be at least 2, got {n!r}")
    return math.sqrt(n - 1)


def construct_distribution(n: int, kappa: float) -> list[float]:
    """Materialise the extremal configuration as an explicit n-point dataset.

    Requires odd integer n so the background splits into two equal halves;
    for even n the closed form remains available through
    :func:`solve_extreme_point`.

    The returned list has population mean 0, variance 1, kurtosis kappa,
    and maximum exactly equal to the solved a (same float).
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n % 2 == 0:
        raise DomainError(
            f"n must be odd to realise the two-level background (got {n}); "
            "use solve_extreme_point for the closed form at even n"
        )
    sol = solve_extreme_point(n, kappa)
    b = math.sqrt(sol.b_squared)
    shift = sol.a / (n - 1)
    half = (n - 1) // 2
    return [sol.a] + [b - shift] * half + [-b - shift] * half


def _binary_levels(values: list[float], counts: list[int] | None) -> tuple[list, list | None]:
    """Values with counts as (values, exps), one entry (v, k) per set bit 2**k
    of v's count, so 2**k * term is exact; (values, None) without counts."""
    if counts is None:
        return values, None
    pairs = zip(*((v, k) for v, c in zip(values, counts)
                  for k in range(c.bit_length()) if c >> k & 1))
    return tuple(map(list, pairs))


def _wsum(terms: Iterable[float], exps: list[int] | None) -> float:
    """fsum of terms, the i-th counted 2**exps[i] times when exps is given:
    correctly rounded, so equal to fsum over the repeated list."""
    if exps is None:
        return math.fsum(terms)
    return math.fsum(map(math.ldexp, terms, exps))


def _central_sums(
    values: Iterable[float], centre: float, exps: list[int] | None = None
) -> tuple[float, float, float]:
    """Compensated sums of (v - centre)**k over values, for k = 2, 3, 4; with
    exps, over the weighted points of :func:`_binary_levels`."""
    dev = list(map(sub, values, repeat(centre)))
    sq = list(map(mul, dev, dev))
    return _wsum(sq, exps), _wsum(map(mul, sq, dev), exps), _wsum(map(mul, sq, sq), exps)


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
    values = list(map(float, data))
    if not values:
        raise DomainError("cannot compute moments of an empty dataset")
    n = len(values)
    top = max(max(values), -min(values))
    if not top < math.inf:
        raise DomainError(f"cannot compute moments of non-finite data ({top!r})")
    # 2**-e brings max |x| into [0.5, 1); below 2**-1024 the variance cannot
    # fit a float anyway, and 2**1023 is the largest factor there is
    e = max(math.frexp(top)[1], -1023)
    scale = math.ldexp(1.0, -e)
    mean = math.fsum(map(mul, values, repeat(scale))) / n
    if mean != mean:  # a nan that max and min stepped over
        raise DomainError("cannot compute moments of non-finite data (nan)")
    s2, s3, s4 = _central_sums(map(mul, values, repeat(scale)), mean)
    variance = s2 / n
    if variance <= 0.0:
        raise DegenerateDataError("zero variance: higher moments are undefined")
    sd = math.sqrt(variance)
    skewness = s3 / n / sd**3
    kurtosis = s4 / n / variance**2
    # variance * 4**e lies in [2**(exponent - 1), 2**exponent)
    exponent = math.frexp(variance)[1] + 2 * e
    if not sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        raise DomainError(
            f"the variance of the data, about 2**{exponent}, does not fit a "
            "normal float; rescale the data"
        )
    return Moments(
        mean=math.ldexp(mean, e),
        variance=math.ldexp(variance, 2 * e),
        skewness=skewness,
        kurtosis=kurtosis,
    )
