"""Outlier search over alternative background shapes.

The closed form in :mod:`tailbound.extreme_point` assumes a symmetric
two-level background.  To probe how much that choice matters, this module
grafts a single outlier onto several simple base shapes, tunes the outlier
until the full dataset hits a target kurtosis, and reports the outlier's
standardised deviation.  The base shapes (on [-1, 1], before the affine
normalisation implicit in the statistic) are:

    bimodal     half the points at -1, half at +1        kurtosis -> 1.0
    trimodal    equal thirds at -1, 0, +1                kurtosis -> 1.5
    two_thirds  two thirds at 0, one third at +1         kurtosis -> 1.5
    uniform     equally spaced grid on [-1, 1]           kurtosis -> 1.8

When the base size is not divisible by the shape's modality the remainder
goes to the modes in a fixed, documented way: bimodal sends the odd point
to +1; trimodal keeps symmetry by sending a single leftover to the centre
and a pair to the two outer modes; two_thirds rounds the +1 count to the
nearest third.  These choices are stable across runs and perturb the result
by O(1/m) only.

The bimodal search is an independent route to the closed form: a bimodal
base plus outlier is an affine image of the extremal configuration, so for
odd total size the searched statistic must match solve_extreme_point to
solver tolerance.

Kurtosis is strictly increasing in the outlier once it clears the base's
maximum; the search asserts this while expanding its bracket and fails
loudly if the data disagree.

Each search step costs O(1): the base's central power sums about its mean
are taken once, and the single outlier is merged in by expanding the
centred powers about the new mean, in the manner of the one-pass moment
updates of Pebay, "Formulas for robust, one-pass parallel computation of
covariances and arbitrary-order statistical moments", SAND2008-6212 (2008).
The reported statistic and kurtosis come from a direct compensated pass
over the final dataset, so they do not rest on the update formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, sub
from typing import Sequence

from .errors import BracketRangeError, DomainError, NonMonotoneError, SearchError
from .extreme_point import _central_sums

__all__ = [
    "BaseShape",
    "SHAPES",
    "KAPPA_TOL",
    "OutlierSearchResult",
    "ComparisonRow",
    "generate_base",
    "search_outlier",
    "search_outlier_on_points",
    "comparison_table",
]

#: absolute kurtosis tolerance the search drives the dataset to
KAPPA_TOL = 1e-9


@dataclass(frozen=True)
class BaseShape:
    """A named background shape and its limiting population kurtosis."""

    kind: str
    base_kurtosis: float


SHAPES = {
    "bimodal": BaseShape("bimodal", 1.0),
    "trimodal": BaseShape("trimodal", 1.5),
    "two_thirds": BaseShape("two_thirds", 1.5),
    "uniform": BaseShape("uniform", 1.8),
}


@dataclass(frozen=True)
class OutlierSearchResult:
    """Outcome of tuning one outlier against a base shape.

    a_statistic: standardised deviation (x - mean)/sigma of the outlier
    within the full dataset; outlier_value: the raw grafted point;
    achieved_kappa: the dataset kurtosis actually reached.
    """

    a_statistic: float
    outlier_value: float
    achieved_kappa: float


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the shape comparison: base size m, total n = m + 1."""

    base_m: int
    samuelson: float  # sqrt(n - 1) = sqrt(m), the kurtosis-free reference
    bimodal: float
    trimodal: float
    two_thirds: float
    uniform: float


def generate_base(kind: str, m: int) -> list[float]:
    """Generate the m-point base shape named by kind, in ascending order.

    The uniform grid is -1 + i*2/(m-1) for i < m - 1, closed by exactly +1.

    Raises:
        DomainError: unknown kind or m < 4.
    """
    if kind not in SHAPES:
        raise DomainError(f"unknown base shape {kind!r}; choose from {sorted(SHAPES)}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 4:
        raise DomainError(f"base size must be an integer >= 4, got {m!r}")
    if kind == "bimodal":
        neg = m // 2
        return [-1.0] * neg + [1.0] * (m - neg)
    if kind == "trimodal":
        third, rem = divmod(m, 3)
        neg = pos = zero = third
        if rem == 1:
            zero += 1
        elif rem == 2:
            neg += 1
            pos += 1
        return [-1.0] * neg + [0.0] * zero + [1.0] * pos
    if kind == "two_thirds":
        ones = round(m / 3)  # m mod 3 is never 1.5, so rounding is exact
        return [0.0] * (m - ones) + [1.0] * ones
    step = 2.0 / (m - 1)
    return [-1.0 + i * step for i in range(m - 1)] + [1.0]


def search_outlier_on_points(
    base_points: Sequence[float], target_kappa: float
) -> OutlierSearchResult:
    """Tune an outlier above max(base_points) until the dataset kurtosis hits
    target_kappa, to within KAPPA_TOL.

    Raises:
        DomainError: fewer than 4 base points, or a base with zero variance.
        BracketRangeError: target unreachable (at or below the kurtosis of
            the base with the outlier resting on its maximum, or above the
            supremum reachable by any finite outlier).
        NonMonotoneError: kurtosis failed to increase while the bracket
            expanded (would invalidate the bisection).
        SearchError: bisection stalled before reaching KAPPA_TOL.
    """
    base = list(map(float, base_points))
    m = len(base)
    if m < 4:
        raise DomainError(f"need at least 4 base points, got {m}")
    n = m + 1
    lo = max(base)
    c = math.fsum(base) / m
    s2, s3, s4 = _central_sums(base, c)
    # a constant base rarely has an exact float mean, so s2 alone misses it
    if lo == min(base) or not s2 > 0.0:
        raise DomainError("zero variance while evaluating kurtosis")
    # coefficients of the powers of d = x - c in the merged central sums
    b2 = m / n
    a1 = 4.0 * s3 / n
    a2 = 6.0 * s2 / (n * n)
    a4 = m * (m * m - m + 1) / n**3

    def kappa_at(x: float) -> float:
        # central sums of base + [x] about its own mean, from those of the
        # base about c; the base's first central sum is taken as zero
        d = x - c
        d2 = d * d
        t2 = s2 + b2 * d2
        t4 = s4 - a1 * d + a2 * d2 + a4 * d2 * d2
        return n * t4 / (t2 * t2)

    k_lo = kappa_at(lo)
    if target_kappa <= k_lo:
        raise BracketRangeError(
            f"target kurtosis {target_kappa!r} is not above the starting value "
            f"{k_lo!r}; nothing to search"
        )

    span = max(abs(lo), 1.0)
    hi = lo + span
    k_prev, k_hi = k_lo, kappa_at(lo + span)
    expansions = 0
    while k_hi < target_kappa:
        # rounding jitter on the saturation plateau is not a violation
        if k_hi < k_prev - 1e-12 * max(1.0, abs(k_prev)):
            raise NonMonotoneError(
                f"kurtosis decreased from {k_prev!r} to {k_hi!r} while expanding "
                f"the bracket at outlier {hi!r}"
            )
        expansions += 1
        if expansions > 200:
            raise BracketRangeError(
                f"target kurtosis {target_kappa!r} not reachable: still at "
                f"{k_hi!r} with outlier {hi!r} (supremum is below the target)"
            )
        span *= 2.0
        k_prev = k_hi
        hi = lo + span
        k_hi = kappa_at(hi)

    x = hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        k_mid = kappa_at(mid)
        if abs(k_mid - target_kappa) < KAPPA_TOL:
            x = mid
            break
        if k_mid < target_kappa:
            lo = mid
        else:
            hi = mid
        if hi - lo <= abs(mid) * 1e-15:
            raise SearchError(
                f"bisection exhausted float resolution at kurtosis {k_mid!r} "
                f"without reaching {target_kappa!r} +- {KAPPA_TOL}"
            )
    else:
        raise SearchError("outlier bisection did not converge")

    # report from a direct pass over the final dataset, not from the update
    mu = math.fsum(chain(base, (x,))) / n
    dev = list(map(sub, chain(base, (x,)), repeat(mu)))
    sq = list(map(mul, dev, dev))
    variance = math.fsum(sq) / n
    return OutlierSearchResult(
        a_statistic=(x - mu) / math.sqrt(variance),
        outlier_value=x,
        achieved_kappa=math.fsum(map(mul, sq, sq)) / n / (variance * variance),
    )


def search_outlier(kind: str, n: int, target_kappa: float) -> OutlierSearchResult:
    """Search the named base shape of size n - 1 plus one grafted outlier."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 5:
        raise DomainError(f"total size must be an integer >= 5, got {n!r}")
    return search_outlier_on_points(generate_base(kind, n - 1), target_kappa)


def comparison_table(
    base_sizes: Sequence[int], target_kappa: float = 16.0
) -> list[ComparisonRow]:
    """Run all four shape searches for each base size m (total n = m + 1).

    Errors from any individual search propagate unchanged; a row either
    completes in full or not at all.
    """
    rows = []
    for m in base_sizes:
        stats = {
            kind: search_outlier(kind, m + 1, target_kappa).a_statistic
            for kind in ("bimodal", "trimodal", "two_thirds", "uniform")
        }
        rows.append(
            ComparisonRow(
                base_m=m,
                samuelson=math.sqrt(m),
                bimodal=stats["bimodal"],
                trimodal=stats["trimodal"],
                two_thirds=stats["two_thirds"],
                uniform=stats["uniform"],
            )
        )
    return rows
