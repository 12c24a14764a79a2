"""Random echo-cell verification (paper §4.1, §5).

"To ensure that the target is correctly decrypting and forwarding cells,
the measurer records the contents of each cell sent with probability p
(e.g., p = 1e-5) and checks that the returned content of such cells is
correct, reporting failure from the measurement if not."

The kernel replays verification from each walk's measurement series
(:mod:`repro.kernel.supply`): :func:`sample_cell_count` draws how many of
a second's cells get checked, and each checked cell costs one real
decryption with the circuit key. A relay that forges k responses evades
detection with probability (1-p)^k (paper §5);
:func:`detection_probability` exposes the closed form used by the
security analysis benches.
"""

from __future__ import annotations

import math
import random


def detection_probability(p_check: float, forged_cells: int) -> float:
    """Probability at least one of ``forged_cells`` forgeries is checked.

    Each sent cell is recorded with probability p; a forged response that
    is checked is detected with overwhelming probability (random 509-byte
    payloads collide with probability 2^-4072). The paper's §5 evasion
    bound is (1-p)^k; detection is its complement.
    """
    if not 0 <= p_check <= 1:
        raise ValueError("p_check must be a probability")
    if forged_cells < 0:
        raise ValueError("forged cell count cannot be negative")
    return 1.0 - (1.0 - p_check) ** forged_cells


def sample_cell_count(
    rng: random.Random, cells_sent: int, p_check: float
) -> int:
    """How many of ``cells_sent`` cells get recorded for checking.

    Binomial(n, p) with tiny p, sampled via Poisson inversion (normal
    approximation above expected 50). The kernel's verification replay
    (:mod:`repro.kernel.supply`) calls it once per walked second, and the
    stateful reference verifier draws through it too, so both consume
    the ``verify-*`` stream draw for draw.
    """
    if cells_sent <= 0:
        return 0
    expected = cells_sent * p_check
    # Poisson via inversion; expected is ~2.5 even at 1 Gbit/s.
    if expected > 50:
        return max(0, round(rng.gauss(expected, expected ** 0.5)))
    threshold = rng.random()
    term = math.exp(-expected)
    cumulative = term
    k = 0
    while cumulative < threshold and k < cells_sent:
        k += 1
        term *= expected / k
        cumulative += term
    return k
