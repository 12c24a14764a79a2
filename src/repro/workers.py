"""The ``FLASHFLOW_WORKERS`` worker-count override.

Operators pin the kernel's worker-pool size with this environment
variable instead of touching call sites. :meth:`repro.core.engine.\
MeasurementEngine.run_many` reads it (validated) whenever neither the
call nor the engine sets ``max_workers``, whatever the backend; the
``process`` backend clamps any request to the machine's core count.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

#: Environment variable overriding the worker count everywhere.
WORKERS_ENV = "FLASHFLOW_WORKERS"


def workers_from_env() -> int | None:
    """The validated ``FLASHFLOW_WORKERS`` override, or None when unset.

    Fails fast with :class:`ConfigurationError` on non-integer or
    non-positive values so a typo'd deployment knob cannot silently fall
    back to the default.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be positive, got {value}"
        )
    return value
