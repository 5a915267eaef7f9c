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
from typing import Iterable, NamedTuple, Sequence

from . import _EXPORTS, distributions
from .errors import DegenerateDataError, DomainError, check_int, check_real
from .extreme_point import (
    _floats,
    _kappa_bounds,
    _moments,
    _quadratic,
    _solve,
    feasible_floor,
    samuelson_bound,
)

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


def required_tail_factor(history_n: float, kappa: float) -> float:
    """Largest standardised deviation an (history_n, kappa) sample admits.

    Raises:
        DomainError: history_n not a finite number of at least 5.
        InfeasibleKurtosisError: kappa infeasible at history_n.
    """
    return _required(check_real(history_n, "history length", at_least=5.0), kappa)


def _required(history_n: float, kappa: float) -> float:
    """:func:`required_tail_factor` at a checked history length."""
    return math.sqrt(_solve(history_n, kappa)[2])  # item 2 is a**2


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


def max_safe_history(tail_factor: float, kappa: float) -> int | None:
    """Largest history length n whose bound still fits under tail_factor.

    The extreme deviation a(n, kappa) grows with n.  Inverting its closed
    form (a cubic in n) gives the real crossing, within a step of the first
    breach.  So a(n) at the integers around it, clamped between the
    feasibility floor and DEFAULT_HISTORY_CEILING, settle the answer without
    a search.

    Returns None when a(DEFAULT_HISTORY_CEILING, kappa) <= tail_factor and 0
    when even the smallest feasible history violates.

    Raises:
        DomainError: tail_factor not a finite positive number, kappa not a
            finite number above 1, or no feasible history length at or below
            the ceiling.
    """
    check_real(tail_factor, "tail factor", above=0.0)
    check_real(kappa, "kurtosis", above=1.0)
    return _max_safe_history(tail_factor, kappa)


def _a(n: int, kappa: float) -> float:
    """a(n, kappa) for a kappa strictly inside the feasible range at n: the
    value _required gives there, bit for bit."""
    _, r, s = _quadratic(float(n), kappa)
    return math.sqrt(r + s)


def _max_safe_history(tail_factor: float, kappa: float) -> int | None:
    """:func:`max_safe_history` at checked arguments."""
    top = DEFAULT_HISTORY_CEILING
    crossing = _crossing(tail_factor, kappa)  # nan or inf once tail_factor**2 overflows
    n = min(math.floor(crossing), top) if math.isfinite(crossing) else top
    # The guard picks the evaluator.  With n <= 10**9, every size from n - 1
    # up is exact, and:
    # - fl(n - 1) > fl(kappa + 2) gives kappa < n - 3 exactly, and n - 2 is
    #   a float below kappa_max(n) = n - 2 + 1/(n - 1), so kappa is below the
    #   rounded kappa_max(n): no Samuelson endpoint at n;
    # - fl((n - 1)*(kappa - 1)) > 2 gives kappa > 2 or, with kappa - 1 exact,
    #   kappa - 1 > 2/(n - 1) > 1/(n - 1) + 2**-53, the most by which the
    #   rounded kappa_min(n) = 1 + 1/(n - 1) can exceed the exact one.
    # Both conditions hold at every larger size too, so kappa lies strictly
    # inside the rounded range from n up to the ceiling, n > 4 is at or above
    # the floor, and _a is _required there.  Below n, only _required is sure.
    lo = 0  # the feasibility floor, once the walk needs it
    if n - 1 > kappa + 2.0 and (n - 1) * (kappa - 1.0) > 2.0:
        a = _a
    else:
        lo = feasible_floor(kappa)
        if lo > top:
            raise DomainError(f"no feasible history length at or below the ceiling {top}")
        a, n = _required, max(n, lo)
    if a(n, kappa) <= tail_factor:  # step up to the first breach
        while n < top:
            n += 1
            if a(n, kappa) > tail_factor:
                return n - 1
        return None
    lo = lo or feasible_floor(kappa)  # at most n where the guard held
    while n > lo:  # step down to the last safe length
        n -= 1
        if _required(n, kappa) <= tail_factor:
            return n
    return 0


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
    return _verdict(tail_factor, history_n, kappa, _required(history_n, kappa),
                    _max_safe_history(tail_factor, kappa))


def validate_blr(g_inverse_label: str, kappa: float, history_n: int) -> ModelVerdict:
    """Validate a published BLR tail factor for the given history length.

    Raises:
        TableLookupError: unknown mean-reversion label or kurtosis column.
    """
    return validate_model(distributions.blr_tail_factor(g_inverse_label, kappa), history_n, kappa)


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
