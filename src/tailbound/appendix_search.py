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
paper's equal-split configuration, so for odd total size the searched
statistic must match solve_extreme_point to a few ulps.

The base's central power sums about its mean are taken once, and the
outlier is merged in by expanding the centred powers about the new mean, in
the manner of Pebay, "Formulas for robust, one-pass parallel computation of
covariances and arbitrary-order statistical moments", SAND2008-6212 (2008).
The kurtosis then equals a target K where a depressed quartic in the
outlier vanishes, whose leading coefficient is positive exactly when K lies
below the supremum (m*m - m + 1)/m; that test is made in integers.  Newton
steps from Fujiwara's root bound return the largest root, since kurtosis
need not rise from the base's maximum: for [0, 0, 0.5, -1] it falls from
2.5 at 0.5 to about 2.22 at 1, so a target of 2.4 is met near 1.9.  A
direct compensated pass over the final dataset gives the reported figures
and checks the kurtosis against KAPPA_TOL.  Both passes take their centred
sums from extreme_point._central_sums, the kernel the empirical moments use
too, on the base as ascending (value, count) levels: each weighted sum is
one exact integer, equal to the sum over the expanded list bit for bit and
O(1) in m for the three level shapes.  The uniform grid's base sums are
Faulhaber's closed forms for the ideal grid instead, correctly rounded, so
only the final pass walks its m points: about 0.25 us and 80 bytes of peak
RSS per point (Python 3.11, 2-vCPU Xeon), and a uniform base above
UNIFORM_MAX_M points is rejected before it is built.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import NamedTuple, Sequence

from . import _EXPORTS
from .errors import BracketRangeError, DomainError, SearchError, check_int, check_real
from .extreme_point import _MAX_POINTS as UNIFORM_MAX_M
from .extreme_point import _central_sums, _check_points, _floats, _wsum

__all__ = list(_EXPORTS["appendix_search"])

#: largest miss of the target kurtosis a search returns: absolute up to a
#: target of 1000, relative above it (KAPPA_TOL * target/1000), where the
#: rounding error of the kurtosis itself outgrows an absolute 1e-9
KAPPA_TOL = 1e-9

_TOO_LARGE = ("a base of {} points is too large: its kurtosis near the target {!r} "
              "is past the float range")

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
    check_int(m, "base size", at_least=4)
    if kind == "bimodal":
        return [-1.0, 1.0], [m // 2, m - m // 2]
    if kind == "trimodal":
        third, rem = divmod(m, 3)
        return [-1.0, 0.0, 1.0], [third + (rem == 2), third + (rem == 1), third + (rem == 2)]
    if kind == "two_thirds":
        ones = (m + 1) // 3  # m/3 rounded to nearest; m mod 3 is never 1.5
        return [0.0, 1.0], [m - ones, ones]
    _check_points(m, "uniform base size")
    step = 2.0 / (m - 1)
    grid = [-1.0 + i * step for i in range(m - 1)]
    grid.append(1.0)
    return grid, None


def generate_base(kind: str, m: int) -> list[float]:
    """Generate the m-point base shape named by kind, in ascending order.

    The uniform grid is -1 + i*2/(m-1) for i < m - 1, closed by exactly +1.

    Raises:
        DomainError: unknown kind, m < 4, or m above UNIFORM_MAX_M.
    """
    values, counts = _levels(kind, m)  # checks a uniform m against the cap
    if counts is None:
        return values
    _check_points(m, f"{kind} base size")
    return list(chain.from_iterable(map(repeat, values, counts)))


def search_outlier_on_points(base_points: Sequence[float],
                             target_kappa: float) -> OutlierSearchResult:
    """Find the largest outlier at which the dataset kurtosis equals
    target_kappa, to within KAPPA_TOL (relative above a target of 1000).

    The search runs on the base scaled by the power of two that brings
    max |x| into [1, 2), the identity on every shape base, so a base of any
    finite magnitude is searched alike.

    Raises:
        DomainError: a non-finite target_kappa or base point, fewer than 4
            base points, a base with zero variance, kurtosis sums past the
            float range, or an outlier past it.
        BracketRangeError: target unreachable: no outlier above the base
            maximum reaches it, or it is not below the supremum
            (m*m - m + 1)/m that the kurtosis approaches as the outlier grows.
        SearchError: the kurtosis of the dataset found misses the target by
            more than KAPPA_TOL.
    """
    base = sorted(_floats(base_points, "base points"))
    if len(base) < 4:
        raise DomainError(f"need at least 4 base points, got {len(base)}")
    if not all(map(math.isfinite, base)):
        raise DomainError("base points must be finite numbers")
    e = math.frexp(max(-base[0], base[-1]))[1] - 1
    res = _search([math.ldexp(x, -e) for x in base], None, target_kappa)
    try:
        return res._replace(outlier_value=math.ldexp(res.outlier_value, e))
    except OverflowError:
        raise DomainError(
            f"the outlier at target kurtosis {target_kappa!r} is past the float range"
        ) from None


def search_outlier(kind: str, n: int, target_kappa: float) -> OutlierSearchResult:
    """Search the named base shape of size n - 1 plus one grafted outlier.

    On the three level shapes this is bit for bit the result of
    search_outlier_on_points on generate_base.  The uniform grid's base sums
    are the ideal grid's, in closed form, a few ulps from a pass over its
    float points; the outcome type is the same, and the fields agree to
    4e-13 relative up to a base of 3000 points (1.2e-15 for the kurtosis).
    The gap in the outlier grows about linearly in the base size for a
    target near the starting kurtosis, where the root is least well
    conditioned: 3e-12 at 100,000 points."""
    check_int(n, "total size", at_least=5, at_most=math.inf)  # _levels checks n - 1
    return _search(*_levels(kind, n - 1), target_kappa, kind == "uniform")


def _uniform_sums(m: int) -> tuple[float, float]:
    """(s2, s4), the central sums of squares and fourth powers of the ideal
    m-point grid y_i/(m - 1) on [-1, 1], y_i = 2i - (m - 1), correctly rounded:
    Faulhaber's sum(y**2) = m(m*m - 1)/3 and sum(y**4) = m(m*m - 1)(3m*m - 7)/15,
    each one exact int ratio that int true division rounds once.  Its mean and
    odd sums are 0."""
    return m * (m + 1) / (3 * (m - 1)), m * (m + 1) * (3 * m * m - 7) / (15 * (m - 1) ** 3)


def _search(values, counts, target_kappa, uniform=False) -> OutlierSearchResult:
    """The search on the base of ascending values, the i-th counted counts[i]
    times, or once when counts is None.  A uniform base takes its sums about
    0 from :func:`_uniform_sums`, not from a pass over the values."""
    m = len(values) if counts is None else sum(counts)
    n = m + 1
    if uniform:
        c, s3 = 0.0, 0.0
        s2, s4 = _uniform_sums(m)
    else:
        c = _wsum(values, counts) / m
        s2, s3, s4 = _central_sums(values, c, counts)
    # a constant base rarely has an exact float mean, so s2 alone misses it
    if values[-1] == values[0] or not s2 > 0.0:
        raise DomainError("zero variance while evaluating kurtosis")
    # every kurtosis lies below (m*m - m + 1)/m; compared with K = p/q in ints
    # ahead of the range check, so any target above it, 10**400 too, is out of
    # reach; nan and the infinities have no ratio and fail the range check
    try:
        p, q = target_kappa.as_integer_ratio()
    except (OverflowError, ValueError):
        p, q = 0, 1
    lead = q * (m * m - m + 1) - p * m
    if lead <= 0:
        raise BracketRangeError(
            f"target kurtosis {target_kappa!r} not reachable: it is not below the "
            f"supremum {(m * m - m + 1) / m!r} that the kurtosis approaches as the outlier grows"
        )
    check_real(target_kappa, "target kurtosis")
    # c0 below forms target * s2 * s2, and t2 >= s2 at every outlier: past
    # the float range every kurtosis reads inf or nan
    if not s2 * s2 * max(target_kappa, 1.0) < math.inf:
        raise DomainError(_TOO_LARGE.format(m, target_kappa))
    # with d = x - c the merged central sums are t2 = s2 + b2*d**2 and
    # t4 = s4 - 4*s3*d/n + 6*s2*d**2/n**2 + m*(m*m - m + 1)*d**4/n**3 (the
    # base's first central sum taken as zero), so the kurtosis n*t4/t2**2
    # exceeds K exactly where f = n*t4 - K*t2**2 = c4*d**4 + c2*d**2 + c1*d
    # + c0 is positive
    b2 = m / n
    c4 = m * lead / (q * n * n)
    c2 = 2.0 * s2 * (3.0 / n - target_kappa * b2)
    c1 = -4.0 * s3
    c0 = n * s4 - target_kappa * s2 * s2
    # f < 0 with the outlier on the base's maximum puts a root above it; else
    # one may still lie past a dip in the kurtosis, and the report decides
    d = values[-1] - c
    d2 = d * d
    f_start = (c4 * d2 + c2) * d2 + c1 * d + c0
    t2_start = s2 + b2 * d2

    # Newton steps fall from Fujiwara's bound, above every root and where f is
    # convex, to the largest root and stop when rounding halts them; one that
    # left the convex part could stop off a root, which the final check reports
    e2, e1, e0 = c2 / c4, c1 / c4, c0 / c4  # f / c4 = d**4 + e2*d**2 + e1*d + e0
    d = 2.0 * max(math.sqrt(abs(e2)), abs(e1) ** (1 / 3), math.sqrt(math.sqrt(abs(e0) / 2)))
    while True:
        d2 = d * d
        slope = (4.0 * d2 + 2.0 * e2) * d + e1
        d_next = d - ((d2 + e2) * d2 + e1 * d + e0) / slope if slope > 0.0 else d
        if not d_next < d:
            break
        d = d_next
    # the sums at a root near the supremum can pass the float range as well
    t2 = s2 + b2 * d * d
    if not target_kappa * t2 * t2 < math.inf:
        raise DomainError(_TOO_LARGE.format(m, target_kappa))
    x = c + d

    # report from a direct pass over the final dataset, not from f
    counts = None if counts is None else counts + [1]
    mu = _wsum(chain(values, (x,)), counts) / n
    t2, _, t4 = _central_sums(chain(values, (x,)), mu, counts, odd=False)
    variance = t2 / n
    kappa = t4 / n / (variance * variance)
    tol = KAPPA_TOL * max(1.0, target_kappa / 1000.0)
    missed = not abs(kappa - target_kappa) <= tol
    if not f_start < 0.0 and (missed or not x > values[-1]):
        raise BracketRangeError(
            f"target kurtosis {target_kappa!r} is not above the starting value "
            f"{target_kappa + f_start / (t2_start * t2_start)!r}; nothing to search"
        )
    if missed:
        raise SearchError(
            f"the outlier {x!r} gives kurtosis {kappa!r}, not {target_kappa!r} +- {tol}"
        )
    return OutlierSearchResult(
        a_statistic=(x - mu) / math.sqrt(variance), outlier_value=x, achieved_kappa=kappa
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
            kind: _search(*_levels(kind, m), target_kappa, kind == "uniform").a_statistic
            for kind in SHAPES
        }, samuelson=math.sqrt(m))  # after _levels, which rejects an m below 4
        for m in base_sizes
    ]
