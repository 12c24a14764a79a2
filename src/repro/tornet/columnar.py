"""Relay jitter rows as arrays: :func:`noise_row`.

Only this one function is left of the module's old columnar network
state; every generated network is now a plain
:class:`~repro.tornet.network.TorNetwork`. :func:`noise_row` stays at
this path because :func:`repro.kernel.compile.compile_measurement` calls
it and the benchmark's layer table (``bench/layers.py``) imports it from
here as its ``tornet.predraw`` row. ROADMAP item 6 moves it and deletes
this module.
"""

from __future__ import annotations

import numpy as np

from repro.tornet.relay import Relay


def noise_row(relay: Relay, n: int) -> np.ndarray:
    """``relay.draw_noise_series(n)`` as a float64 array.

    Advances the relay's jitter stream by ``n`` draws, exactly like the
    call it wraps.
    """
    return np.array(relay.draw_noise_series(n), dtype=np.float64)
