"""Stress-test shock model validation against extreme-deviation bounds.

A shock model that quotes a tail factor of k sigmas is only self-consistent
if k covers the largest standardised deviation a(n, kappa) that its own
kurtosis admits over the n-point history used to estimate sigma.  This
module turns that comparison into verdict objects, locates the history
length at which a given tail factor is first breached, and applies the same
check to observed return series.

Population-moment conventions follow :mod:`tailbound.extreme_point`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distributions import blr_tail_factor
from .errors import DegenerateDataError, DomainError
from .extreme_point import (
    feasible_floor,
    feasible_kurtosis_range,
    oracle_moments,
    samuelson_bound,
    solve_extreme_point,
)

__all__ = [
    "ModelVerdict",
    "ReturnSeries",
    "EmpiricalVerdict",
    "required_tail_factor",
    "max_safe_history",
    "validate_model",
    "validate_blr",
    "empirical_validate",
    "DEFAULT_HISTORY_CEILING",
]

#: Search ceiling beyond which max_safe_history reports "unbounded" (None).
DEFAULT_HISTORY_CEILING = 10**9


@dataclass(frozen=True)
class ModelVerdict:
    """Outcome of checking a tail factor against the extreme-point bound.

    margin = tail_factor - required_a, and passed is exactly margin >= 0.
    max_safe_history is the largest history length that would still pass
    (None when no breach occurs below the search ceiling; 0 when even the
    smallest feasible history already fails).
    """

    tail_factor: float
    history_n: int
    kappa: float
    required_a: float
    margin: float
    passed: bool
    max_safe_history: int | None


def required_tail_factor(history_n: float, kappa: float) -> float:
    """Largest standardised deviation an (history_n, kappa) sample admits."""
    return solve_extreme_point(history_n, kappa).a


def _check_tail_factor(tail_factor: float) -> None:
    if not 0.0 < tail_factor < math.inf:
        raise DomainError(f"tail factor must be a finite positive number, got {tail_factor!r}")


def _crossing(tail_factor: float, kappa: float) -> float:
    """Real n at which a(n, kappa) = tail_factor, in floats.

    With m = n - 1 and A = tail_factor**2, the quadratic (*) of
    :mod:`tailbound.extreme_point` solved for n is the cubic

        (kappa-1)*m**3 - (A-1)**2*m**2 - 4*A*m + 4*A**2 = 0,

    and the crossing is its largest root.  Divided by kappa - 1 it reads
    m**3 - P*m**2 - Q*m + S.  At the root m*(m - P) = Q - S/m < Q, so
    P + Q/P lies above it; for a root m >= 4 the cubic is convex from the
    root on, so Newton steps from there descend to it monotonically and
    stop when rounding no longer lets them descend.
    """
    big_a = tail_factor * tail_factor
    p = (big_a - 1.0) ** 2 / (kappa - 1.0)
    q = 4.0 * big_a / (kappa - 1.0)
    s = big_a * q
    m = p + q / p
    while True:
        m_next = m - (((m - p) * m - q) * m + s) / ((3.0 * m - 2.0 * p) * m - q)
        if not m_next < m:
            return m + 1.0
        m = m_next


def max_safe_history(
    tail_factor: float, kappa: float, ceiling: int = DEFAULT_HISTORY_CEILING
) -> int | None:
    """Largest history length n whose bound still fits under tail_factor.

    The extreme deviation a(n, kappa) grows with n.  Inverting its closed
    form (a cubic in n) gives the real crossing; its floor, checked against
    a(n) at the neighbours, is the answer -- the integer an integer
    bisection between the feasibility floor and the ceiling would return.
    That takes four evaluations of a(n), the two endpoint checks included.

    Returns None when a(ceiling, kappa) <= tail_factor (no violation below
    the ceiling) and 0 when even the smallest feasible history violates.

    Raises:
        DomainError: tail_factor not a finite positive number, or kappa not
            a finite number above 1.
    """
    _check_tail_factor(tail_factor)
    lo = feasible_floor(kappa)
    if lo > ceiling:
        raise DomainError(
            f"no feasible history length at or below the ceiling {ceiling}"
        )
    if required_tail_factor(lo, kappa) > tail_factor:
        return 0
    if required_tail_factor(ceiling, kappa) <= tail_factor:
        return None
    # invariant: a(lo) <= tail_factor < a(ceiling); the float crossing lands
    # within a step of the integer one, so the walks below are short
    n = min(max(lo, math.floor(_crossing(tail_factor, kappa))), ceiling - 1)
    if required_tail_factor(n, kappa) <= tail_factor:
        while n + 1 < ceiling and required_tail_factor(n + 1, kappa) <= tail_factor:
            n += 1
    else:
        n -= 1
        while n > lo and required_tail_factor(n, kappa) > tail_factor:
            n -= 1
    return n


def validate_model(tail_factor: float, history_n: int, kappa: float) -> ModelVerdict:
    """Check a quoted tail factor against the bound for its own history.

    Raises:
        DomainError: tail factor not finite and positive, history below 5.
        InfeasibleKurtosisError: kappa infeasible at history_n.
    """
    _check_tail_factor(tail_factor)
    required = required_tail_factor(history_n, kappa)
    margin = tail_factor - required
    return ModelVerdict(
        tail_factor=tail_factor,
        history_n=int(history_n),
        kappa=kappa,
        required_a=required,
        margin=margin,
        passed=margin >= 0.0,
        max_safe_history=max_safe_history(tail_factor, kappa),
    )


def validate_blr(g_inverse_label: str, kappa: float, history_n: int) -> ModelVerdict:
    """Validate a published BLR tail factor for the given history length.

    Raises:
        TableLookupError: unknown mean-reversion label or kurtosis column.
    """
    return validate_model(blr_tail_factor(g_inverse_label, kappa), history_n, kappa)


@dataclass(frozen=True)
class ReturnSeries:
    """Observed return series with its population statistics.

    sigma is the population standard deviation (divisor n) and
    max_abs_deviation_in_sigmas the realised extreme |x - mean|/sigma.
    """

    values: tuple[float, ...]
    n: int
    mean: float
    sigma: float
    kurtosis: float
    max_abs_deviation_in_sigmas: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "ReturnSeries":
        vals = tuple(map(float, values))
        if len(vals) < 5:
            raise DegenerateDataError(
                f"too few observations: need at least 5, got {len(vals)}"
            )
        m = oracle_moments(vals)  # raises DegenerateDataError on zero spread
        sigma = math.sqrt(m.variance)
        # rounding is monotone, so this is max |x - mean| to the bit
        worst = max(max(vals) - m.mean, m.mean - min(vals)) / sigma
        return cls(
            values=vals,
            n=len(vals),
            mean=m.mean,
            sigma=sigma,
            kurtosis=m.kurtosis,
            max_abs_deviation_in_sigmas=worst,
        )


@dataclass(frozen=True)
class EmpiricalVerdict:
    """Verdict for a tail factor judged against an observed series.

    historical_breach flags a realised deviation already above the tail
    factor (hard fail); kurtosis_infeasible flags that the observed
    kurtosis fell outside the configuration's feasible range, in which case
    the kurtosis-free Samuelson bound sqrt(n-1) was used as the threshold
    and no max-safe-history is reported.
    """

    verdict: ModelVerdict
    series: ReturnSeries
    historical_breach: bool
    kurtosis_infeasible: bool

    @property
    def passed(self) -> bool:
        return self.verdict.passed and not self.historical_breach


def empirical_validate(
    series: ReturnSeries | Sequence[float], tail_factor: float
) -> EmpiricalVerdict:
    """Judge a tail factor against an observed return series.

    The threshold is a(n, observed kurtosis) when that kurtosis is feasible
    for the extremal configuration; otherwise the Samuelson bound is the
    fallback and the verdict is flagged kurtosis_infeasible.

    Raises:
        DomainError: tail factor not finite and positive.
        DegenerateDataError: fewer than 5 observations or zero variance.
    """
    if not isinstance(series, ReturnSeries):
        series = ReturnSeries.from_values(series)
    _check_tail_factor(tail_factor)

    rng = feasible_kurtosis_range(series.n)
    infeasible = series.kurtosis not in rng
    if infeasible:
        required = samuelson_bound(series.n)
        safe_history = None
    else:
        required = required_tail_factor(series.n, series.kurtosis)
        safe_history = max_safe_history(tail_factor, series.kurtosis)

    margin = tail_factor - required
    verdict = ModelVerdict(
        tail_factor=tail_factor,
        history_n=series.n,
        kappa=series.kurtosis,
        required_a=required,
        margin=margin,
        passed=margin >= 0.0,
        max_safe_history=safe_history,
    )
    return EmpiricalVerdict(
        verdict=verdict,
        series=series,
        historical_breach=series.max_abs_deviation_in_sigmas > tail_factor,
        kurtosis_infeasible=infeasible,
    )
