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
goes to the modes by fixed rules, stated once in ``_levels``; they perturb
the result by O(1/m) only.  The bimodal search is an independent route to
the closed form: a bimodal base plus outlier is an affine image of the
extremal configuration, so for odd total size the searched statistic must
match solve_extreme_point to solver tolerance.

Kurtosis need not rise as the outlier moves up from the base's maximum: for
the base [0, 0, 0.5, -1] it falls from 2.5 at 0.5 to about 2.22 at 1.  The
search checks that it rises at every bracket point while expanding, and
raises NonMonotoneError if it does not.  Each search step costs O(1): the
base's central power sums about its mean are taken once, and the single
outlier is merged in by expanding the centred powers about the new mean, in
the manner of the one-pass moment updates of Pebay, "Formulas for robust,
one-pass parallel computation of covariances and arbitrary-order statistical
moments", SAND2008-6212 (2008).  The reported statistic and kurtosis come
from a direct compensated pass over the final dataset, so they do not rest
on the update formula.  Both passes take the base as ascending (value,
count) levels and form each weighted sum as one exact integer, so their sums
equal those over the expanded list bit for bit, and cost O(1) in m for
bimodal, trimodal and two_thirds.
The uniform grid costs O(m), about 1 us and 115 bytes per point, so a
uniform base above UNIFORM_MAX_M points is rejected before it is built.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import mul, sub
from typing import NamedTuple, Sequence

from .errors import BracketRangeError, DomainError, NonMonotoneError, SearchError
from .extreme_point import _central_sums, _wsum

__all__ = ["SHAPES", "KAPPA_TOL", "OutlierSearchResult", "ComparisonRow", "generate_base",
           "search_outlier", "search_outlier_on_points", "comparison_table"]

#: kurtosis tolerance the search drives the dataset to: absolute up to a
#: target of 1000, relative above it (KAPPA_TOL * target/1000), where the
#: rounding error of the kurtosis itself outgrows an absolute 1e-9
KAPPA_TOL = 1e-9

#: largest uniform base: a search at the cap took 4.8 s and 588 MB peak RSS
#: (Python 3.11, 2-vCPU Xeon); 10**7 points did not fit in 1 GB of address space
UNIFORM_MAX_M = 5_000_000

#: the base shapes, each also a column of :class:`ComparisonRow`
SHAPES = ("bimodal", "trimodal", "two_thirds", "uniform")


class OutlierSearchResult(NamedTuple):
    """Outcome of tuning one outlier against a base shape.

    a_statistic: standardised deviation (x - mean)/sigma of the outlier
    within the full dataset; outlier_value: the raw grafted point;
    achieved_kappa: the dataset kurtosis actually reached.
    """

    a_statistic: float
    outlier_value: float
    achieved_kappa: float


class ComparisonRow(NamedTuple):
    """One row of the shape comparison: base size m, total n = m + 1."""

    base_m: int
    samuelson: float  # sqrt(n - 1) = sqrt(m), the kurtosis-free reference
    bimodal: float
    trimodal: float
    two_thirds: float
    uniform: float


def _levels(kind: str, m: int) -> tuple[list[float], list[int] | None]:
    """The m-point base named by kind as ascending values with their counts
    (None for the uniform grid, whose values each occur once).  Remainders:
    bimodal sends the odd point to +1; trimodal sends a single leftover to the
    centre and a pair to the outer modes; two_thirds rounds m/3 ones."""
    if kind not in SHAPES:
        raise DomainError(f"unknown base shape {kind!r}; choose from {sorted(SHAPES)}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 4:
        raise DomainError(f"base size must be an integer >= 4, got {m!r}")
    if kind == "bimodal":
        return [-1.0, 1.0], [m // 2, m - m // 2]
    if kind == "trimodal":
        third, rem = divmod(m, 3)
        return [-1.0, 0.0, 1.0], [third + (rem == 2), third + (rem == 1), third + (rem == 2)]
    if kind == "two_thirds":
        ones = (m + 1) // 3  # m/3 rounded to nearest; m mod 3 is never 1.5
        return [0.0, 1.0], [m - ones, ones]
    if m > UNIFORM_MAX_M:
        raise DomainError(f"uniform base size {m} is above the cap of {UNIFORM_MAX_M}")
    step = 2.0 / (m - 1)
    grid = [-1.0 + i * step for i in range(m - 1)]
    grid.append(1.0)
    return grid, None


def generate_base(kind: str, m: int) -> list[float]:
    """Generate the m-point base shape named by kind, in ascending order.

    The uniform grid is -1 + i*2/(m-1) for i < m - 1, closed by exactly +1.

    Raises:
        DomainError: unknown kind, m < 4, or a uniform m above UNIFORM_MAX_M.
    """
    values, counts = _levels(kind, m)
    return values if counts is None else list(chain.from_iterable(map(repeat, values, counts)))


def search_outlier_on_points(base_points: Sequence[float],
                             target_kappa: float) -> OutlierSearchResult:
    """Tune an outlier above max(base_points) until the dataset kurtosis hits
    target_kappa, to within KAPPA_TOL (relative above a target of 1000).

    Raises:
        DomainError: a non-finite target_kappa, fewer than 4 base points, or
            a base with zero variance.
        BracketRangeError: target unreachable (at or below the kurtosis of
            the base with the outlier resting on its maximum, or above the
            supremum reachable by any finite outlier).
        NonMonotoneError: kurtosis failed to increase while the bracket
            expanded (would invalidate the bisection).
        SearchError: bisection stalled before reaching KAPPA_TOL.
    """
    base = sorted(map(float, base_points))
    if len(base) < 4:
        raise DomainError(f"need at least 4 base points, got {len(base)}")
    return _search(base, None, target_kappa)


def search_outlier(kind: str, n: int, target_kappa: float) -> OutlierSearchResult:
    """Search the named base shape of size n - 1 plus one grafted outlier:
    bit for bit the result of search_outlier_on_points on generate_base."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 5:
        raise DomainError(f"total size must be an integer >= 5, got {n!r}")
    return _search(*_levels(kind, n - 1), target_kappa)


def _search(values, counts, target_kappa) -> OutlierSearchResult:
    """The search on the base of ascending values, the i-th counted counts[i]
    times, or once when counts is None."""
    if not -math.inf < target_kappa < math.inf:
        raise DomainError(f"target kurtosis must be a finite number, got {target_kappa!r}")
    m = len(values) if counts is None else sum(counts)
    n = m + 1
    c = _wsum(values, counts) / m
    s2, s3, s4 = _central_sums(values, c, counts)
    lo = values[-1]
    # a constant base rarely has an exact float mean, so s2 alone misses it
    if lo == values[0] or not s2 > 0.0:
        raise DomainError("zero variance while evaluating kurtosis")
    # kappa_at below forms t2 * t2 >= s2 * s2 and, at the target, n * t4 =
    # target * t2 * t2: past the float range every kurtosis reads inf or nan
    if not s2 * s2 * max(target_kappa, 1.0) < math.inf:
        raise DomainError(
            f"a base of {m} points is too large: its kurtosis near the target "
            f"{target_kappa!r} is past the float range"
        )
    # coefficients of the powers of d = x - c in the merged central sums
    b2 = m / n
    a1 = 4.0 * s3 / n
    a2 = 6.0 * s2 / (n * float(n))  # an int n * n past 2**1024 has no float
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
    k_prev, k_hi = k_lo, kappa_at(hi)
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
        k_prev, hi = k_hi, lo + span
        k_hi = kappa_at(hi)

    tol = KAPPA_TOL * max(1.0, target_kappa / 1000.0)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        k_mid = kappa_at(mid)
        if abs(k_mid - target_kappa) < tol:
            x = mid
            break
        lo, hi = (mid, hi) if k_mid < target_kappa else (lo, mid)
        if hi - lo <= abs(mid) * 1e-15:
            raise SearchError(
                f"bisection exhausted float resolution at kurtosis {k_mid!r} "
                f"without reaching {target_kappa!r} +- {tol}"
            )
    else:
        raise SearchError("outlier bisection did not converge")

    # report from a direct pass over the final dataset, not from the update
    counts = None if counts is None else counts + [1]
    mu = _wsum(chain(values, (x,)), counts) / n
    dev = list(map(sub, chain(values, (x,)), repeat(mu)))
    sq = list(map(mul, dev, dev))
    variance = _wsum(sq, counts) / n
    return OutlierSearchResult(
        a_statistic=(x - mu) / math.sqrt(variance),
        outlier_value=x,
        achieved_kappa=_wsum(map(mul, sq, sq), counts) / n / (variance * variance),
    )


def comparison_table(
    base_sizes: Sequence[int], target_kappa: float = 16.0
) -> list[ComparisonRow]:
    """Run all four shape searches for each base size m (total n = m + 1).

    Errors from any individual search propagate unchanged; a row either
    completes in full or not at all.
    """
    return [
        ComparisonRow(base_m=m, **{
            kind: _search(*_levels(kind, m), target_kappa).a_statistic for kind in SHAPES
        }, samuelson=math.sqrt(m))  # after _levels, which rejects an m below 4
        for m in base_sizes
    ]
