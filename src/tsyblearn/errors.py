"""Exception hierarchy shared across the package.

Errors fall into three groups that the CLI maps to distinct exit codes:
configuration problems (the caller's input is malformed), honest inability
(a search or sampling stage could not produce what was asked of it, which the
one-sided certificate contract treats as a legitimate outcome), and contract
violations (an internal invariant was observed to fail).
"""

from __future__ import annotations


class TsyblearnError(Exception):
    """Base class for all package errors."""


class InvalidConfig(TsyblearnError):
    """A configuration value is out of range or inconsistent."""


class UnsupportedFamily(InvalidConfig):
    """The requested marginal family is not one of the shipped families."""


class DegenerateDirection(TsyblearnError):
    """A direction operation received (near-)parallel vectors or a zero sum."""


class DivisionNearZero(TsyblearnError):
    """Perspective projection hit |<w, x>| below the safe threshold."""


class EmptyBand(TsyblearnError):
    """Band conditioning left zero surviving samples."""


class SourceExhausted(TsyblearnError):
    """A sample source ran out before the requested count was reached."""


class SingularCovariance(TsyblearnError):
    """Empirical covariance is not positive definite enough to whiten."""


class EmptySubspace(TsyblearnError):
    """No moment signal survived the spectral cutoff; lower the cutoff."""


class Nonconvergence(TsyblearnError):
    """Projected SGD failed to reach the requested stationarity tolerance.

    Carries the best iterate found so the caller may retry or accept it.
    """

    def __init__(self, message: str, r=None, g_norm: float | None = None):
        super().__init__(message)
        self.r = r
        self.g_norm = g_norm
