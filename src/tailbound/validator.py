"""Stress-test shock model validation against extreme-deviation bounds.

A shock model that quotes a tail factor of k sigmas is only self-consistent
if k covers the largest standardised deviation a(n, kappa) that its own
kurtosis admits over the n-point history used to estimate sigma.  This
module turns that comparison into verdict objects, reports the longest
history a given tail factor still covers, and applies the same check to
observed return series.  a(n, kappa) and its inverse in n, with their
population-moment conventions, live in :mod:`tailbound.extreme_point`.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import _EXPORTS
from .errors import DegenerateDataError, DomainError, check_int, check_real
from .extreme_point import _a, _floats, _kappa_bounds, _max_safe_size, _moments, samuelson_bound

__all__ = list(_EXPORTS["validator"])

#: Longest history validate_model accepts; max_safe_history reports None
#: ("unbounded") when a history of this length still passes.
DEFAULT_HISTORY_CEILING = 10**9


class ModelVerdict(NamedTuple):
    """Outcome of checking a tail factor against the extreme-point bound.

    margin = tail_factor - required_a, and passed is exactly margin >= 0.
    max_safe_history is the largest history length that would still pass:
    None when DEFAULT_HISTORY_CEILING, the longest history validate_model
    takes, still passes, and 0 when even the smallest feasible history fails.
    """

    tail_factor: float
    history_n: int
    kappa: float
    required_a: float
    margin: float
    passed: bool
    max_safe_history: int | None


def max_safe_history(tail_factor: float, kappa: float) -> int | None:
    """Largest history length n whose bound still fits under tail_factor.

    The extreme deviation a(n, kappa) grows with n, and the answer is its
    inverse in n (see :mod:`tailbound.extreme_point`), capped at
    DEFAULT_HISTORY_CEILING.

    Returns None when a(DEFAULT_HISTORY_CEILING, kappa) <= tail_factor and 0
    when even the smallest feasible history violates.

    Raises:
        DomainError: tail_factor not a finite positive number, kappa not a
            finite number above 1, or no feasible history length at or below
            the ceiling.
    """
    check_real(tail_factor, "tail factor", above=0.0)
    check_real(kappa, "kurtosis", above=1.0)
    return _max_safe_size(tail_factor, kappa, DEFAULT_HISTORY_CEILING)


def _verdict(tail_factor: float, history_n: int, kappa: float, required: float,
             safe_history: int | None) -> ModelVerdict:
    margin = tail_factor - required
    return ModelVerdict(tail_factor, int(history_n), kappa, required, margin,
                        margin >= 0.0, safe_history)


def validate_model(tail_factor: float, history_n: int, kappa: float) -> ModelVerdict:
    """Check a quoted tail factor against the bound for its own history.

    Raises:
        DomainError: tail factor not finite and positive, history not a
            finite number of at least 5, above DEFAULT_HISTORY_CEILING, or a
            float that is not a whole number.
        InfeasibleKurtosisError: kappa infeasible at history_n.
    """
    check_real(tail_factor, "tail factor", above=0.0)
    check_real(history_n, "history length", at_least=5.0)
    if history_n > DEFAULT_HISTORY_CEILING:  # past it max_safe_history reads None
        raise DomainError(f"history length above {DEFAULT_HISTORY_CEILING} is not "
                          f"supported, got {history_n!r}")
    # the verdict reports int(history_n), so a(history_n) must be taken there
    if isinstance(history_n, float) and not history_n.is_integer():
        raise DomainError(f"history length must be a whole number, got {history_n!r}")
    # kappa is inside the range at history_n, so it is a finite number above 1
    return _verdict(tail_factor, history_n, kappa, _a(history_n, kappa),
                    _max_safe_size(tail_factor, kappa, DEFAULT_HISTORY_CEILING))


class ReturnSeries(NamedTuple):
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
        vals = _floats(values, "data")
        if len(vals) < 5:
            raise DegenerateDataError(
                f"too few observations: need at least 5, got {len(vals)}"
            )
        mean, variance, _, kurtosis, lo, hi = _moments(vals)  # raises on zero spread
        sigma = math.sqrt(variance)
        # rounding is monotone, so this is max |x - mean| to the bit
        worst = max(hi - mean, mean - lo) / sigma
        return cls(
            values=vals,
            n=len(vals),
            mean=mean,
            sigma=sigma,
            kurtosis=kurtosis,
            max_abs_deviation_in_sigmas=worst,
        )


class EmpiricalVerdict(NamedTuple):
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
    for the equal-split configuration; otherwise the Samuelson bound is the
    fallback and the verdict is flagged kurtosis_infeasible.

    Raises:
        DomainError: tail factor not finite and positive, non-finite data,
            or a hand-built ReturnSeries whose n is not an integer of at
            least 5, whose kurtosis is not finite or whose maximum deviation
            is not a finite number of at least 0.
        DegenerateDataError: fewer than 5 observations or zero variance.
    """
    if not isinstance(series, ReturnSeries):
        series = ReturnSeries.from_values(series)
    check_real(tail_factor, "tail factor", above=0.0)
    # a ReturnSeries is a plain tuple, so its fields are checked here too:
    # n < 5 has no kurtosis range, and a nan would pass silently below
    check_int(series.n, "series length n", at_least=5)
    check_real(series.kurtosis, "series kurtosis")
    check_real(series.max_abs_deviation_in_sigmas, "series max_abs_deviation_in_sigmas",
               at_least=0.0)

    k_min, k_max = _kappa_bounds(series.n)
    infeasible = not k_min < series.kurtosis <= k_max
    if infeasible:
        verdict = _verdict(tail_factor, series.n, series.kurtosis,
                           samuelson_bound(series.n), None)
    else:
        verdict = validate_model(tail_factor, series.n, series.kurtosis)
    return EmpiricalVerdict(
        verdict=verdict,
        series=series,
        historical_breach=series.max_abs_deviation_in_sigmas > tail_factor,
        kurtosis_infeasible=infeasible,
    )
