"""Exception hierarchy shared across the package.

Errors fall into three groups: configuration problems (the caller's input is
malformed), honest inability (a search or sampling stage could not produce
what was asked of it, which the one-sided certificate contract treats as a
legitimate outcome), and contract violations (an internal invariant was
observed to fail).  The CLI's ``main`` exits 2 on ``InvalidConfig`` and 4 on
any other package error; an honest Fail exits 3 only because a certificate
query catches its stages' errors and returns no witness.
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
    """The tilt fit stopped above ten times its stationarity target.

    Carries the best iterate's ``RejectionReweighter`` for the caller to use.
    """

    def __init__(self, message: str, reweighter):
        super().__init__(message)
        self.reweighter = reweighter
