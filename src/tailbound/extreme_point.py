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
from dataclasses import dataclass
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

#: forms accepted by :func:`asymptotic_a`
ASYMPTOTIC_FORMS = ("sign-corrected", "printed")


@dataclass(frozen=True)
class KurtosisRange:
    """Feasible kurtosis interval for a sample size: (kappa_min, kappa_max]."""

    n: float
    kappa_min: float  # exclusive
    kappa_max: float  # inclusive

    def __contains__(self, kappa: float) -> bool:
        return self.kappa_min < kappa <= self.kappa_max


@dataclass(frozen=True)
class ExtremePointSolution:
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
    if not n >= 5:
        raise DomainError(f"sample size must be at least 5, got {n!r}")
    return KurtosisRange(
        n=n,
        kappa_min=n / (n - 1),
        kappa_max=(n * n - 3 * n + 3) / (n - 1),
    )


def feasible_floor(kappa: float) -> int:
    """Smallest integer n >= 5 whose feasible kurtosis range contains kappa.

    Feasibility in n is an up-set, so every larger n is feasible too.

    Raises:
        DomainError: kappa not a finite number above 1.
    """
    if not 1.0 < kappa < math.inf:
        raise DomainError(f"kurtosis must be a finite number above 1, got {kappa!r}")
    # smallest n with kappa <= kappa_max(n): quadratic in n
    s = kappa + 3.0
    n = max(5, math.ceil(0.5 * (s + math.sqrt(s * s - 4.0 * s))))
    if kappa <= 1.25:  # lower endpoint n/(n-1) binds instead
        n = max(n, math.floor(kappa / (kappa - 1.0)) + 1)
    # feasibility in n is an up-set, so correct the ceil in both directions
    while kappa not in feasible_kurtosis_range(n):
        n += 1
    while n > 5 and kappa in feasible_kurtosis_range(n - 1):
        n -= 1
    return n


def solve_extreme_point(n: float, kappa: float) -> ExtremePointSolution:
    """Solve the quadratic (*) for the extremal configuration at (n, kappa).

    Returns the canonical (larger) root; see the module docstring for the
    sign discussion.  The upper feasibility endpoint is evaluated in closed
    form so that a == sqrt(n-1) and b_squared == 0 exactly.

    Raises:
        DomainError: n < 5.
        InfeasibleKurtosisError: kappa outside (kappa_min, kappa_max].
    """
    rng = feasible_kurtosis_range(n)
    if kappa not in rng:
        raise InfeasibleKurtosisError(n, kappa, rng.kappa_min, rng.kappa_max)

    r = (n - 1) / (n + 1)
    g = (n - 1) ** 2 * (n - (n - 1) * kappa) / ((n + 1) * (n - 3))

    if kappa == rng.kappa_max:
        # Samuelson endpoint: exact arithmetic avoids a root-cancellation
        # wobble of order 1e-16 that would make b_squared dip negative.
        a_sq = n - 1.0
        b_sq = 0.0
    else:
        a_sq = r + math.sqrt(r * r - g)
        b_sq = n / (n - 1) - a_sq * n / (n - 1) ** 2
        if b_sq < 0.0:
            if b_sq < -1e-9:  # cannot happen inside the feasible range
                raise InfeasibleKurtosisError(n, kappa, rng.kappa_min, rng.kappa_max)
            b_sq = 0.0

    a = math.sqrt(a_sq)
    return ExtremePointSolution(
        n=n,
        kappa=kappa,
        g_value=g,
        a=a,
        b_squared=b_sq,
        theta3=_third_moment(n, a),
        samuelson_bound=math.sqrt(n - 1),
    )


def _third_moment(n: float, a: float) -> float:
    return -3.0 * a / (n - 1) + (n + 1) * a**3 / (n - 1) ** 2


def third_moment(solution: ExtremePointSolution) -> float:
    """Population third moment implied by a solved configuration.

    Evaluates -3a/(n-1) + (n+1)a**3/(n-1)**2; both terms vanish at a = 0.
    """
    return _third_moment(solution.n, solution.a)


def asymptotic_a(n: float, kappa: float, form: str = "sign-corrected") -> float:
    """Large-n approximation of the extreme deviation.

    Two variants share the leading order (n*(kappa-1))**0.25:

        printed:        sqrt(-1 + sqrt(1 + n*(kappa-1)))
        sign-corrected: sqrt( 1 + sqrt(1 + n*(kappa-1)))

    The sign-corrected variant tracks the exact root; the printed variant is
    retained for documentation and comparison only.

    Raises:
        DomainError: kappa <= 1, n < 5, or an unknown form.
    """
    if form not in ASYMPTOTIC_FORMS:
        raise DomainError(f"form must be one of {ASYMPTOTIC_FORMS}, got {form!r}")
    if not n >= 5:
        raise DomainError(f"sample size must be at least 5, got {n!r}")
    if not kappa > 1.0:
        raise DomainError(f"kurtosis must exceed 1, got {kappa!r}")
    inner = math.sqrt(1.0 + n * (kappa - 1.0))
    if form == "printed":
        return math.sqrt(inner - 1.0)
    return math.sqrt(inner + 1.0)


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


def _central_sums(values: Iterable[float], centre: float) -> tuple[float, float, float]:
    """Compensated sums of (v - centre)**k over values, for k = 2, 3, 4."""
    dev = list(map(sub, values, repeat(centre)))
    sq = list(map(mul, dev, dev))
    return math.fsum(sq), math.fsum(map(mul, sq, dev)), math.fsum(map(mul, sq, sq))


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
