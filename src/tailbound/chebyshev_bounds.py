"""Moment-based tail probability bounds of Chebyshev type.

Three inequalities for a standardised random variable X (mean 0, variance 1,
third moment theta3, fourth moment theta4 or kappa):

even-moment (two-sided, order 2k):
    P(|X - mean| >= t * m_{2k}**(1/2k)) <= 1/t**(2k)

Zelen (two-sided, uses the third and fourth moments):
    P(|X| >= t) <= 1 / (1 + t**2 + (t**2 - t*theta3 - 1)**2
                                   / (theta4 - theta3**2 - 1))
    valid for t >= (theta3 + sqrt(theta3**2 + 4))/2.

Bhattacharyya (one-sided upper tail):
    P(X >= t) <= (kappa - theta3**2 - 1)
                 / ((kappa - theta3**2 - 1)*(1 + t**2) + (t**2 - t*theta3 - 1))
    valid for t**2 - t*theta3 - 1 > 0.

Evaluations outside a validity region raise; nothing is clamped to the
boundary, because a silently saturated bound would hide exactly the regime
the validity analysis is about.  Moment combinations no distribution can
attain (theta4 - theta3**2 - 1 <= 0, or kappa - theta3**2 - 1 <= 0) raise
:class:`MomentInfeasibleError` instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DomainError,
    MomentInfeasibleError,
    SearchError,
    ThresholdTooSmallError,
)
from .extreme_point import feasible_floor, solve_extreme_point

__all__ = [
    "BoundEvaluation",
    "even_moment_bound",
    "even_moment_endpoint",
    "zelen_bound",
    "bhattacharyya_bound",
    "min_n_for_bhattacharyya_validity",
]


class _BoundEvaluationFields(NamedTuple):
    method: str  # "even_moment" | "zelen" | "bhattacharyya"
    threshold_t: float
    probability: float | None
    valid: bool


class BoundEvaluation(_BoundEvaluationFields):
    """Outcome of evaluating one tail inequality at one threshold.

    probability is None exactly when valid is False (the grid renderers use
    such instances to mark out-of-domain cells without inventing numbers).
    """

    __slots__ = ()

    def __new__(cls, method: str, threshold_t: float, probability: float | None,
                valid: bool = True):
        if valid and probability is None:
            raise DomainError("a valid evaluation must carry a probability")
        if not valid and probability is not None:
            raise DomainError("an invalid evaluation must not carry a probability")
        return super().__new__(cls, method, threshold_t, probability, valid)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: keep it checked
        return cls(*iterable)

    @property
    def one_in_n(self) -> float:
        """Reciprocal of the bound: 'one observation in N' scale."""
        if self.probability is None:
            raise DomainError("invalid evaluation has no probability")
        return 1.0 / self.probability

    @classmethod
    def invalid(cls, method: str, threshold_t: float) -> "BoundEvaluation":
        return cls(method=method, threshold_t=threshold_t, probability=None, valid=False)


def even_moment_bound(t: float, k: int, moment_2k: float) -> BoundEvaluation:
    """Markov bound on the 2k-th centred moment.

    The event threshold is expressed in units of the 2k-th moment's root,
    threshold_t = t * moment_2k**(1/(2k)), and the probability bound is
    1/t**(2k), capped at 1 (for t < 1 the inequality is vacuous).

    Raises:
        DomainError: t <= 0, k < 1 or non-integer, or moment_2k <= 0.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"moment order k must be a positive integer, got {k!r}")
    if not t > 0.0:
        raise DomainError(f"threshold multiplier t must be positive, got {t!r}")
    if not moment_2k > 0.0:
        raise DomainError(f"even moment must be positive, got {moment_2k!r}")
    return BoundEvaluation(
        method="even_moment",
        threshold_t=t * moment_2k ** (1.0 / (2 * k)),
        probability=min(1.0, t ** (-2 * k)),
    )


def even_moment_endpoint(n: float, kappa: float) -> BoundEvaluation:
    """Fourth-moment bound at the once-in-n point t = n**(1/4).

    For a standardised variable with kurtosis kappa this gives the event
    threshold (kappa*n)**(1/4) at probability exactly 1/n.

    Raises:
        DomainError: n < 1 or kappa <= 0.
    """
    if not n >= 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    return even_moment_bound(n ** 0.25, 2, kappa)


def zelen_bound(t: float, theta3: float, theta4: float) -> BoundEvaluation:
    """Two-sided Zelen bound using the third and fourth moments.

    Raises:
        MomentInfeasibleError: theta4 - theta3**2 - 1 <= 0 (no distribution
            has such moments).
        ThresholdTooSmallError: t below (theta3 + sqrt(theta3**2 + 4))/2,
            where the inequality does not hold.
    """
    denom = theta4 - theta3 * theta3 - 1.0
    if not denom > 0.0:
        raise MomentInfeasibleError(
            f"theta4 - theta3**2 - 1 must be positive, got {denom!r}"
        )
    t_min = 0.5 * (theta3 + math.sqrt(theta3 * theta3 + 4.0))
    if t < t_min:
        raise ThresholdTooSmallError(
            f"Zelen bound needs t >= {t_min!r}, got {t!r}"
        )
    u = t * t - t * theta3 - 1.0
    probability = 1.0 / (1.0 + t * t + u * u / denom)
    return BoundEvaluation(method="zelen", threshold_t=t, probability=probability)


def bhattacharyya_bound(t: float, theta3: float, kappa: float) -> BoundEvaluation:
    """One-sided upper-tail bound from the first four moments.

    Raises:
        MomentInfeasibleError: kappa - theta3**2 - 1 <= 0.
        ThresholdTooSmallError: t**2 - t*theta3 - 1 <= 0 (outside validity).
    """
    d = kappa - theta3 * theta3 - 1.0
    if not d > 0.0:
        raise MomentInfeasibleError(
            f"kappa - theta3**2 - 1 must be positive, got {d!r}"
        )
    s = t * t - t * theta3 - 1.0
    if not s > 0.0:
        raise ThresholdTooSmallError(
            f"Bhattacharyya bound needs t**2 - t*theta3 - 1 > 0, got {s!r}"
        )
    probability = d / (d * (1.0 + t * t) + s)
    return BoundEvaluation(method="bhattacharyya", threshold_t=t, probability=probability)


def min_n_for_bhattacharyya_validity(kappa: float, n_cap: int = 10**7) -> int:
    """Smallest sample size whose extreme-point threshold admits the bound.

    Scans integers n from the feasibility floor for the first n where the
    validity condition a**2 - a*theta3 - 1 > 0 holds at t = a(n, kappa).
    The condition equals zero exactly when kappa sits at the upper
    feasibility endpoint and is strictly positive inside the feasible range,
    so in practice this returns the feasibility floor in n.

    Raises:
        DomainError: kappa not a finite number above 1.
        SearchError: no admissible n up to n_cap.
    """
    n = feasible_floor(kappa)
    while n <= n_cap:
        sol = solve_extreme_point(n, kappa)
        if sol.a * sol.a - sol.a * sol.theta3 - 1.0 > 0.0:
            return n
        n += 1
    raise SearchError(
        f"no sample size up to {n_cap} admits the Bhattacharyya bound at kappa={kappa!r}"
    )
