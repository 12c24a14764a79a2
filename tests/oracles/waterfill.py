"""The shadow simulator's historical waterfill, kept as an oracle.

Before :func:`repro.shadow.flows.waterfill` kept the active flows' rate
as one water level and their caps sorted once per call, every round
re-gathered the active flows' paths, recounted every relay's active
flows with ``bincount`` and boolean-indexed caps and rates.
``reference_waterfill`` is that loop; the exactness test and the
reference shadow walk compare against it.
"""

import numpy as np

_EPS = 1e-6


def reference_waterfill(
    path_idx: np.ndarray, caps: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Exact max-min fair rates for flows over 3-relay paths, round by round."""
    n_flows = path_idx.shape[0]
    n_relays = capacity.shape[0]
    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates
    active = caps > 0
    remaining = capacity.astype(float).copy()

    for _ in range(2 * (n_flows + n_relays) + 8):
        if not active.any():
            break
        act_paths = path_idx[active]
        counts = np.bincount(act_paths.ravel(), minlength=n_relays)
        used = counts > 0
        with np.errstate(divide="ignore"):
            levels = np.where(used, remaining / np.maximum(counts, 1), np.inf)
        level = levels.min()

        residual = caps[active] - rates[active]
        if np.isinf(level) or (residual > level + _EPS).sum() == 0:
            # Every remaining flow fits under the tightest resource level:
            # give each its full residual and finish.
            np.subtract.at(
                remaining,
                act_paths.ravel(),
                np.repeat(residual, 3),
            )
            rates[active] = caps[active]
            active[:] = False
            break

        batch = residual <= level + _EPS
        if batch.any():
            # Freeze all cap-limited flows below the level in one shot.
            batch_paths = act_paths[batch]
            np.subtract.at(
                remaining,
                batch_paths.ravel(),
                np.repeat(residual[batch], 3),
            )
            idx = np.flatnonzero(active)[batch]
            rates[idx] = caps[idx]
            active[idx] = False
            continue

        # Advance everyone by the level; at least one relay saturates.
        rates[active] += level
        remaining -= level * counts
        saturated = remaining <= _EPS
        if saturated.any():
            crossing = saturated[path_idx].any(axis=1) & active
            active &= ~crossing

    return rates
