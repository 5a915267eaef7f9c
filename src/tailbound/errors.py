"""Exception hierarchy shared across the package.

Every error raised by tailbound derives from :class:`TailboundError`, so
callers can catch the package's failures with a single except clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "TailboundError",
    "DomainError",
    "InfeasibleKurtosisError",
    "DegenerateDataError",
    "BoundValidityError",
    "ThresholdTooSmallError",
    "MomentInfeasibleError",
    "TableLookupError",
    "SearchError",
    "BracketRangeError",
]


class TailboundError(Exception):
    """Base class for all tailbound errors."""


class DomainError(TailboundError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleKurtosisError(DomainError):
    """Requested kurtosis cannot be realised by any n-point configuration.

    Carries the offending inputs and the feasible interval so callers can
    report actionable diagnostics.
    """

    def __init__(self, n: float, kappa: float, kappa_min: float, kappa_max: float):
        self.n = n
        self.kappa = kappa
        self.kappa_min = kappa_min
        self.kappa_max = kappa_max
        super().__init__(
            f"kurtosis {kappa!r} is infeasible for n={n!r}: "
            f"feasible interval is ({kappa_min!r}, {kappa_max!r}]"
        )


class DegenerateDataError(DomainError):
    """Data cannot support the requested statistic (too short, zero spread)."""


class BoundValidityError(DomainError):
    """A probability-bound evaluation was requested outside its validity set."""


class ThresholdTooSmallError(BoundValidityError):
    """The deviation threshold t sits below the inequality's validity region."""


class MomentInfeasibleError(BoundValidityError):
    """The supplied moments are not jointly attainable by any distribution."""


class TableLookupError(TailboundError, KeyError):
    """A key is absent from an embedded published table."""

    def __init__(self, key, available):
        self.key = key
        self.available = tuple(available)
        super().__init__(f"{key!r} not in table; available: {sorted(self.available)}")

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0]


class SearchError(TailboundError, RuntimeError):
    """A numerical search failed to complete."""


class BracketRangeError(SearchError):
    """The search target lies outside the range the search can reach."""
