"""Exception types shared across the engine.

Every error raised deliberately by this package derives from
:class:`ChainOptError`, so callers can catch one base class at the
CLI boundary and translate it into an exit code. The ones that derive
from :class:`InputError` are the caller's to fix (config, schema or
input shape) and exit 1; every other error is a runtime failure and
exits 2.
"""

from __future__ import annotations


class ChainOptError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ChainOptError):
    """An error in the config or the inputs, not in the run."""


# ---------------------------------------------------------------------------
# Market data / parsing


class MissingColumn(InputError):
    """A required column is absent from an input file header."""


class MalformedRow(InputError):
    """A row could not be interpreted (bad timestamp, unparseable number)."""


class ExpiredContract(InputError):
    """Quote timestamp is on or after the contract maturity."""


class NoSpot(InputError):
    """No underlying price is available for the requested timestamp."""


class NoMid(InputError):
    """Neither a mid close nor a bid/ask pair is available for a bar."""


class NonPositiveMid(InputError):
    """Mid price is zero or negative and cannot be inverted or priced."""


class InvalidConfig(InputError):
    """A configuration value is missing, of the wrong type, or out of range."""


# ---------------------------------------------------------------------------
# Pricing lattice


class DegenerateProbability(ChainOptError):
    """Risk-neutral up probability fell outside (0, 1).

    Happens when the drift term dominates the volatility term for the
    chosen step size, i.e. |r - q| * sqrt(dt) >= sigma.
    """


class NotEuropean(ChainOptError):
    """A European-only code path was asked to price an American contract."""


# ---------------------------------------------------------------------------
# Greeks


class InvalidBump(ChainOptError):
    """Finite-difference bump is zero, negative, or otherwise unusable."""


class BumpExceedsMaturity(ChainOptError):
    """Calendar bump for theta is at least as large as the remaining life."""


class NegativeVolAfterBump(ChainOptError):
    """Downward vega bump would push volatility to zero or below."""


# ---------------------------------------------------------------------------
# Implied volatility


class ArbitrageViolation(ChainOptError):
    """Market price sits outside the static no-arbitrage band."""


class CurveTooShort(InputError):
    """Not enough quotes to build the requested curve or surface."""


# ---------------------------------------------------------------------------
# Universe selection


class EmptySnapshot(InputError):
    """A ranking was requested on a snapshot with no usable contracts."""


class InsufficientContracts(InputError):
    """Fewer contracts than the requested top/bottom count."""


# ---------------------------------------------------------------------------
# Optimization


class DimensionMismatch(ChainOptError):
    """Mean vector and covariance matrix shapes do not agree."""


class SingularCovariance(ChainOptError):
    """Covariance matrix is singular and the target is not attainable."""


class NoExcessReturn(ChainOptError):
    """All assets earn the risk-free rate; tangency direction is undefined."""


class InfeasibleConstraints(InputError):
    """Box bounds and the budget constraint admit no feasible weights."""


class InfeasibleIvCap(InputError):
    """No weights inside the box satisfy the portfolio IV cap."""


# ---------------------------------------------------------------------------
# Backtest


class WindowTooLarge(InputError):
    """Estimation window exceeds the available return history."""


class DegenerateWindow(InputError):
    """Estimation window has fewer than two observations."""


class InvalidIntensity(InputError):
    """Shrinkage intensity lies outside [0, 1]."""
