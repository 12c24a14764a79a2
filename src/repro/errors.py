"""Exception hierarchy for the FlashFlow reproduction."""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class AllocationError(ReproError):
    """The measurement team cannot supply the requested measurer capacity."""


class MeasurementFailure(ReproError):
    """A measurement slot was aborted (e.g. a failed echo-cell check)."""

    def __init__(self, message: str, relay_fingerprint: str | None = None):
        super().__init__(message)
        self.relay_fingerprint = relay_fingerprint


class VerificationFailure(MeasurementFailure):
    """A sampled echo cell came back with incorrect contents (paper §4.1)."""


class AuthenticationError(ReproError):
    """A protocol message failed authentication (paper §4.1 setup)."""


class ScheduleError(ReproError):
    """The measurement schedule could not be constructed or was violated."""


class ProtocolError(ReproError):
    """A peer violated the measurement protocol state machine."""


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A finite ``int`` or ``float`` that is not a ``bool``.

    NaN compares false both ways, so a NaN that slips past a range check
    like ``x < 1`` flows on into every estimate; infinities turn
    products into NaN further down. Config classes check this first.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_record(record, allowed, what: str) -> None:
    """Raise :class:`ConfigurationError` naming the offending key unless
    ``record`` (a loaded JSON object) is a dict with keys in ``allowed``.

    ``cls(**record)`` would raise a bare ``TypeError`` instead.
    """
    if not isinstance(record, dict):
        raise ConfigurationError(f"{what} must be an object, got {record!r}")
    unknown = sorted(set(record) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s): {', '.join(map(repr, unknown))}"
        )
