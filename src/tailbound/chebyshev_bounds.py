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
    valid for t > 0 with t**2 - t*theta3 - 1 > 0.

The Bhattacharyya expression is the paper's, and on some inputs it is not
an upper bound.  Each dataset construct_distribution(n, kappa) builds has
exactly one point in n at a, yet at t = a with its theta3 and kappa the
expression gives 0.17614 at (n, kappa) = (5, 3.05), against 1/5; 0.10142
at (9, 7.07), against 1/9; and 0.0098538 at (101, 98.0), against 1/101.
ROADMAP.md item 11 tracks the formula.

At the extreme-point threshold t = a(n, kappa) of :mod:`tailbound.extreme_point`,
with A = a**2, the Bhattacharyya margin factors as

    A - a*theta3 - 1 = -(n+1)/(n-1)**2 * (A - (n-1)) * (A - (n-1)/(n+1)).

The feasible range of A is (2(n-1)/(n+1), n-1], so the margin is positive
inside it and exactly zero at the Samuelson endpoint A = n-1.  The smallest
n admitting the bound is therefore feasible_floor(kappa), or one more when
kappa equals kappa_max at that floor (3.25 at n = 5, 4.2 at n = 6).

Evaluations outside a validity region raise; nothing is clamped to the
boundary, because a silently saturated bound would hide exactly the regime
the validity analysis is about.  Moment combinations no distribution can
attain (theta4 - theta3**2 - 1 <= 0, or kappa - theta3**2 - 1 <= 0) raise
:class:`MomentInfeasibleError` instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _EXPORTS
from .errors import (DomainError, MomentInfeasibleError, ThresholdTooSmallError, check_int,
                     check_real)

__all__ = list(_EXPORTS["chebyshev_bounds"])


class BoundEvaluation(NamedTuple):
    """Outcome of evaluating one tail inequality at one threshold.

    Every bound raises outside its validity region rather than returning
    an evaluation, so each one carries a probability.
    """

    method: str  # "even_moment" | "zelen" | "bhattacharyya"
    threshold_t: float
    probability: float

    @property
    def one_in_n(self) -> float:
        """Reciprocal of the bound: 'one observation in N' scale; inf once the
        probability underflows to 0."""
        return 1.0 / self.probability if self.probability else math.inf


def even_moment_bound(t: float, k: int, moment_2k: float) -> BoundEvaluation:
    """Markov bound on the 2k-th centred moment.

    The event threshold is expressed in units of the 2k-th moment's root,
    threshold_t = t * moment_2k**(1/(2k)), and the probability bound is
    1/t**(2k), capped at 1 (for t < 1 the inequality is vacuous).

    Raises:
        DomainError: t or moment_2k not a finite positive number, k not an
            integer of at least 1 in the float range, or a threshold past the
            float range.
    """
    check_int(k, "moment order k", at_least=1)
    check_real(t, "threshold multiplier t", above=0.0)
    check_real(moment_2k, "even moment", above=0.0)
    threshold = t * moment_2k ** (0.5 / k)  # the root is at most moment_2k**0.5
    if threshold == math.inf:
        raise DomainError(
            f"event threshold t * moment_2k**(1/(2k)) = {t!r} * {moment_2k!r}**(1/{2 * k}) "
            "is past the float range")
    return BoundEvaluation(
        method="even_moment",
        threshold_t=threshold,
        # the power only where it is below 1: at a tiny t it would overflow
        probability=t ** (-2.0 * k) if t > 1.0 else 1.0,
    )


def even_moment_endpoint(n: float, kappa: float) -> BoundEvaluation:
    """Fourth-moment bound at the once-in-n point t = n**(1/4).

    For a standardised variable with kurtosis kappa this gives the event
    threshold (kappa*n)**(1/4) at probability exactly 1/n.

    Raises:
        DomainError: n not a finite number of at least 1, or kappa not a
            finite positive number.
    """
    return even_moment_bound(check_real(n, "n", at_least=1.0) ** 0.25, 2, kappa)


def zelen_bound(t: float, theta3: float, theta4: float) -> BoundEvaluation:
    """Two-sided Zelen bound using the third and fourth moments.

    Raises:
        DomainError: t, theta3 or theta4 not a finite number.
        MomentInfeasibleError: theta4 - theta3**2 - 1 <= 0 (no distribution
            has such moments).
        ThresholdTooSmallError: t below (theta3 + sqrt(theta3**2 + 4))/2,
            where the inequality does not hold.
    """
    check_real(t, "threshold t")
    check_real(theta3, "theta3")
    check_real(theta4, "theta4")
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

    This is the paper's expression, and on some inputs it is not an upper
    bound: at (n, kappa) = (5, 3.05) it gives 0.17614 against a realised 1/5.

    Raises:
        DomainError: t, theta3 or kappa not a finite number.
        MomentInfeasibleError: kappa - theta3**2 - 1 <= 0.
        ThresholdTooSmallError: t <= 0 or t**2 - t*theta3 - 1 <= 0 (outside
            validity).
    """
    check_real(t, "threshold t")
    check_real(theta3, "theta3")
    check_real(kappa, "kurtosis kappa")
    d = kappa - theta3 * theta3 - 1.0
    if not d > 0.0:
        raise MomentInfeasibleError(
            f"kappa - theta3**2 - 1 must be positive, got {d!r}"
        )
    s = t * t - t * theta3 - 1.0
    if not (s > 0.0 and t > 0.0):  # s > 0 below its negative root too, where no bound holds
        raise ThresholdTooSmallError(
            f"Bhattacharyya bound needs t > 0 and t**2 - t*theta3 - 1 > 0, got t = {t!r} "
            f"and {s!r}"
        )
    # d/(d*(1 + t**2) + s) divided through by d, so that a huge kappa cannot
    # overflow it: there it tends to 1/(1 + t**2)
    probability = 1.0 / ((1.0 + t * t) + s / d)
    return BoundEvaluation(method="bhattacharyya", threshold_t=t, probability=probability)
