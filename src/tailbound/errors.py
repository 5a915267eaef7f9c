"""Exception hierarchy shared across the package.

Every error raised by tailbound derives from :class:`TailboundError`, so
callers can catch the package's failures with a single except clause while
still being able to distinguish the individual failure modes.  Every public
numeric argument passes :func:`check_real` or :func:`check_int`, so each
out-of-domain number is a :class:`DomainError` of one wording.
"""

from __future__ import annotations

import math
import sys

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


#: the largest float; an int compares with it exactly, so 10**400 lies past it
_MAX = sys.float_info.max


def check_real(x, name: str, at_least=-_MAX, above=-math.inf, below=math.inf):
    """x when it is a number in [-MAX, MAX] that meets the bounds given, else
    a DomainError naming it.  nan fails every comparison, and an int past
    the float range fails the first, so neither reaches the caller."""
    if at_least <= x <= _MAX and above < x < below:
        return x
    bound = (f" of at least {at_least:g}" if at_least != -_MAX
             else f" above {above:g}" if above != -math.inf else "")
    if below != math.inf:
        bound += f" and below {below:g}"
    raise DomainError(f"{name} must be a finite number{bound}, got {x!r}")


def check_int(x, name: str, at_least: int, at_most=_MAX):
    """x when it is an int (not a bool) in [at_least, at_most], else a
    DomainError naming it.  The default at_most keeps x in the float range;
    math.inf lets any int through."""
    integer = isinstance(x, int) and not isinstance(x, bool)
    if integer and at_least <= x <= at_most:
        return x
    if integer and x > at_most:
        raise DomainError(f"{name} above {at_most!r} is not supported, got {x!r}")
    raise DomainError(f"{name} must be an integer >= {at_least!r}, got {x!r}")
