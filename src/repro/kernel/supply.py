"""The vectorized per-second measurement walk.

:func:`execute_batch` runs a whole round of compiled measurements as one
numpy array walk: at each second, capacity (token-bucket availability
under the KIST/CPU/link base cap, times jitter and environment),
measurement/background split via the ratio-r clamp, bucket settlement,
and the BWAuth-side clamp are elementwise float64 operations across all
measurements at once. Every operation mirrors the exact arithmetic of
:meth:`repro.tornet.relay.Relay.measured_second` +
:meth:`repro.core.engine.MeasurementEngine.execute`, in the same order,
so each element of the walk is bit-identical to the stateful path.

Adversarial behaviours compiled through
:class:`repro.tornet.relay.BehaviorProgram` run in the same walk as
separate lanes: non-ratio-enforcing relays take the
``measured_second`` else-branch split, liars scale the reported
background, and ratio cheaters derive their claim from measurement
traffic -- each lane's op chain mirrors the stateful behaviour hook
exactly, selected per measurement with ``np.where``.

Echo-cell verification is replayed afterwards from the walk's
measurement series: the per-second sample counts consume the
measurement's ``verify-*`` RNG stream exactly as
:class:`repro.core.verification.EchoVerifier` would, and each sampled
cell performs the honest encrypt/echo/compare round trip with the real
circuit key, so ``cells_checked`` (and the simulated crypto work) match
the stateful path. Honest relays by construction never fail the check;
forging relays replay their forge decisions from the behaviour's
compiled RNG state, and the first forged checked cell fails the
measurement exactly as the stateful :class:`EchoVerifier` would
(truncated series, zero estimate, the same failure message).

The walk returns, besides the outcome, the relay-state deltas (final
bucket tokens, per-second forwarded bytes) the caller settles back onto
the live relay via :meth:`Relay.settle_measured_walk` -- the walk
itself never touches a live relay.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.engine import MeasurementOutcome
from repro.core.verification import sample_cell_count
from repro.kernel.compile import CompiledMeasurement
from repro.tornet.cell import PAYLOAD_LEN
from repro.tornet.relaycrypto import CircuitKey
from repro.tornet.tokenbucket import available_second_array, take_second_array
from repro.units import CELL_LEN, bits_to_bytes

#: One CircuitKey per distinct key bytes per process: keeps the keystream
#: block cache warm across measurements (cell indices restart at zero
#: every slot, so later slots verify almost entirely from cache).
_KEY_CACHE: dict[bytes, CircuitKey] = {}


def _circuit_key(key_bytes: bytes) -> CircuitKey:
    key = _KEY_CACHE.get(key_bytes)
    if key is None:
        key = CircuitKey(key_bytes)
        if len(_KEY_CACHE) > 64:
            _KEY_CACHE.clear()
        _KEY_CACHE[key_bytes] = key
    return key


_EMPTY = np.zeros(0)


@dataclass
class KernelResult:
    """Result of one compiled measurement plus relay-state deltas.

    Per-second series stay numpy arrays out of the walk and are
    materialised into a :class:`MeasurementOutcome` by
    :meth:`to_outcome` on the consuming side.
    """

    index: int
    estimate: float = 0.0
    cells_checked: int = 0
    duration: int = 0
    total_allocated: float = 0.0
    #: Per-second series (bit/s): measurement x_j, reported background,
    #: clamped background, totals z_j, and relay capacity (the
    #: SecondReport.capacity_bits oracle series).
    measurement: np.ndarray = field(default_factory=lambda: _EMPTY)
    background_reported: np.ndarray = field(default_factory=lambda: _EMPTY)
    background_clamped: np.ndarray = field(default_factory=lambda: _EMPTY)
    totals: np.ndarray = field(default_factory=lambda: _EMPTY)
    capacity_bits: np.ndarray = field(default_factory=lambda: _EMPTY)
    #: Bytes the relay forwarded each second (observed-bandwidth
    #: settlement).
    total_bytes: np.ndarray = field(default_factory=lambda: _EMPTY)
    #: Final token-bucket fill (bytes); None when the relay is unlimited
    #: or the measurement never executed (admission refusal).
    final_bucket_tokens: float | None = None
    #: Pass-through outcome (admission refusal): no walk was executed.
    outcome: MeasurementOutcome | None = None
    #: Verification replay failed the slot (a forged checked cell).
    failed: bool = False
    failure_reason: str | None = None
    #: Forged cells detected by the replay (settled back onto the
    #: behaviour together with its advanced RNG state).
    cells_forged: int = 0
    behavior_rng_state: tuple | None = None

    def to_outcome(self) -> MeasurementOutcome:
        """Materialise the walk into the engine's outcome type."""
        if self.outcome is not None:
            return self.outcome
        return MeasurementOutcome(
            estimate=self.estimate,
            per_second_measurement=self.measurement.tolist(),
            per_second_background_reported=self.background_reported.tolist(),
            per_second_background_clamped=self.background_clamped.tolist(),
            per_second_total=self.totals.tolist(),
            total_allocated=self.total_allocated,
            duration=self.duration,
            failed=self.failed,
            failure_reason=self.failure_reason,
            cells_checked=self.cells_checked,
        )


@dataclass
class _ReplayResult:
    """What the verification replay observed for one measurement."""

    cells_checked: int = 0
    #: Second of the first forged checked cell; None = slot passed.
    fail_second: int | None = None
    failure_reason: str | None = None
    cells_forged: int = 0
    #: Behaviour RNG state after the replay (forgers only).
    behavior_rng_state: tuple | None = None


def _verify_replay(
    cm: CompiledMeasurement, measurement_bits: Sequence[float]
) -> _ReplayResult:
    """Replay per-second echo-cell verification.

    Consumes the ``verify-*`` stream exactly like
    ``EchoVerifier.verify_second`` + ``check_cells``: one sample-count
    draw sequence per second, then the relay-side decryption per sampled
    cell, whose payload comes from the measurement's dedicated
    ``verify-payload-*`` stream (the same bytes, in the same order, the
    stateful verifier's ``payload_rng`` draws -- never ambient entropy). An honest relay's echo is *defined* as the local decryption,
    so the measurer-side comparison would compare the decryption against
    itself; the replay performs the decryption work once and counts the
    cell as checked -- same cells checked, no possible failure.

    Forging behaviours draw their per-cell forge decision from the
    behaviour RNG state compiled into the measurement, in the stateful
    stream order (one ``random()`` per checked cell, plus the forged
    payload's ``randbytes`` on a forge). A forged 509-byte payload
    collides with the expected decryption with probability 2^-4072, so
    the replay treats detection as certain -- the same rounding the
    paper's (1-p)^k evasion bound makes -- and fails the slot at that
    cell with the stateful verifier's message.
    """
    if cm.p_check is None:
        return _ReplayResult()
    rng = random.Random(cm.verify_seed)
    payload_rng = random.Random(cm.payload_seed)
    key = _circuit_key(cm.key_bytes)
    forge_fraction = cm.program.forge_fraction
    behavior_rng: random.Random | None = None
    if forge_fraction is not None and cm.behavior_rng_state is not None:
        behavior_rng = random.Random()
        behavior_rng.setstate(cm.behavior_rng_state)
    cells_checked = 0
    next_cell_index = 0
    for second, x_bits in enumerate(list(measurement_bits)):
        cells_sent = int(bits_to_bytes(x_bits) // CELL_LEN)
        count = sample_cell_count(rng, cells_sent, cm.p_check)
        for _ in range(count):
            index = next_cell_index
            next_cell_index += 1
            key.process(payload_rng.randbytes(PAYLOAD_LEN), index)
            cells_checked += 1
            if (
                behavior_rng is not None
                and behavior_rng.random() < forge_fraction
            ):
                behavior_rng.randbytes(PAYLOAD_LEN)
                return _ReplayResult(
                    cells_checked=cells_checked,
                    fail_second=second,
                    failure_reason=(
                        f"echo cell {index} failed content check"
                    ),
                    cells_forged=1,
                    behavior_rng_state=behavior_rng.getstate(),
                )
    return _ReplayResult(
        cells_checked=cells_checked,
        behavior_rng_state=(
            behavior_rng.getstate() if behavior_rng is not None else None
        ),
    )


def _walk_group(
    cms: list[CompiledMeasurement], duration: int
) -> list[KernelResult]:
    """Walk same-duration measurements as one vectorized array walk."""
    n = len(cms)
    supply = np.stack([cm.supply_series() for cm in cms])
    bg_demand = np.stack([cm.background for cm in cms])
    noise_env = np.stack([cm.noise_env for cm in cms])
    base = np.array([cm.base_capacity for cm in cms], dtype=np.float64)
    ratio = np.array([cm.ratio for cm in cms], dtype=np.float64)
    one_minus_r = 1.0 - ratio
    has_bucket = np.array([cm.bucket is not None for cm in cms])
    any_bucket = bool(has_bucket.any())
    tokens = np.array(
        [cm.bucket[0] if cm.bucket else 0.0 for cm in cms], dtype=np.float64
    )
    rate = np.array(
        [cm.bucket[1] if cm.bucket else 0.0 for cm in cms], dtype=np.float64
    )
    burst = np.array(
        [cm.bucket[2] if cm.bucket else 0.0 for cm in cms], dtype=np.float64
    )

    # Behaviour-program lanes. The all-defaults case keeps the historical
    # honest walk untouched; mixed groups compute both splits and select
    # per lane with np.where (each lane's op chain is bit-identical to
    # its stateful behaviour hook).
    enforces = np.array([cm.program.enforces_ratio for cm in cms])
    bg_scale = np.array(
        [cm.program.background_report_scale for cm in cms], dtype=np.float64
    )
    has_claim = np.array(
        [cm.program.measurement_claim_factor is not None for cm in cms]
    )
    claim_factor = np.array(
        [cm.program.measurement_claim_factor or 0.0 for cm in cms],
        dtype=np.float64,
    )
    honest_split = bool(enforces.all())
    any_claim = bool(has_claim.any())

    xs = np.empty((n, duration))
    ys_raw = np.empty((n, duration))
    ys_clamped = np.empty((n, duration))
    zs = np.empty((n, duration))
    caps_out = np.empty((n, duration))
    total_bytes = np.empty((n, duration))
    # Per-second bucket-fill history: a verification failure truncates
    # the slot mid-walk, and the relay's final token level is the fill
    # after the failing second's settlement.
    tokens_history = np.empty((n, duration)) if any_bucket else None

    for second in range(duration):
        # Relay.measured_second: capacity = min(base, bucket peek), then
        # *= noise * external_factor.
        if any_bucket:
            avail_bits = available_second_array(tokens, rate) * 8.0
            capacity = np.where(
                has_bucket, np.minimum(base, avail_bits), base
            )
        else:
            capacity = base
        capacity = capacity * noise_env[:, second]

        # Capacity split between measurement and background traffic.
        demand = bg_demand[:, second]
        supply_s = supply[:, second]
        if honest_split:
            # Honest ratio-r split (the enforces_ratio() branch).
            background = np.minimum(demand, ratio * capacity)
            measurement = np.minimum(supply_s, capacity - background)
            background = np.minimum(
                background, measurement * ratio / one_minus_r
            )
            measurement = np.minimum(supply_s, capacity - background)
        else:
            bg_h = np.minimum(demand, ratio * capacity)
            meas_h = np.minimum(supply_s, capacity - bg_h)
            bg_h = np.minimum(bg_h, meas_h * ratio / one_minus_r)
            meas_h = np.minimum(supply_s, capacity - bg_h)
            # Ratio-ignoring lanes: everything to measurement traffic
            # (measured_second's else-branch).
            meas_n = np.minimum(supply_s, capacity)
            bg_n = np.minimum(
                demand, np.maximum(0.0, capacity - meas_n)
            )
            measurement = np.where(enforces, meas_h, meas_n)
            background = np.where(enforces, bg_h, bg_n)

        total_bits = measurement + background
        if any_bucket:
            _, new_tokens = take_second_array(
                tokens, rate, burst, total_bits / 8.0
            )
            tokens = np.where(has_bucket, new_tokens, tokens)
            tokens_history[:, second] = tokens

        # Engine-side accounting: byte round trips, the behaviour's
        # background report, and the BWAuth clamp, op for op (the /8*8
        # chains and the honest *1.0 report scale are exact in IEEE-754
        # but are kept anyway so every intermediate matches the stateful
        # path: reported = report_background(background/8.0) * 8.0).
        meas_bytes = measurement / 8.0
        reported = (background / 8.0) * bg_scale
        if any_claim:
            # Ratio cheaters report the full claimed allowance derived
            # from the measurement traffic they forwarded.
            reported = np.where(
                has_claim, meas_bytes * claim_factor, reported
            )
        reported_bytes = (reported * 8.0) / 8.0
        x_bits = meas_bytes * 8.0
        y_bits = reported_bytes * 8.0
        y_clamped = np.minimum(y_bits, x_bits * ratio / one_minus_r)

        xs[:, second] = x_bits
        ys_raw[:, second] = y_bits
        ys_clamped[:, second] = y_clamped
        zs[:, second] = x_bits + y_clamped
        caps_out[:, second] = capacity
        total_bytes[:, second] = total_bits / 8.0

    # The stateful clamp_background choke point rejects non-finite
    # claimed reports; mirror it here so a bad program can't smuggle
    # inf/NaN past the vectorized clamp.
    if not np.isfinite(ys_raw).all():
        raise ValueError(
            "non-finite background report in compiled walk: a relay's "
            "claimed normal traffic must be a finite byte count"
        )

    results = []
    for i, cm in enumerate(cms):
        replay = _verify_replay(cm, xs[i])
        if replay.fail_second is not None:
            # The BWAuth ends the measurement early (paper §4.1): series
            # truncate after the failing second, the estimate is zero,
            # and the relay's bucket settles at that second's fill.
            end = replay.fail_second + 1
            results.append(
                KernelResult(
                    index=cm.index,
                    estimate=0.0,
                    cells_checked=replay.cells_checked,
                    duration=end,
                    total_allocated=cm.total_allocated,
                    measurement=xs[i, :end],
                    background_reported=ys_raw[i, :end],
                    background_clamped=ys_clamped[i, :end],
                    totals=zs[i, :end],
                    capacity_bits=caps_out[i, :end],
                    total_bytes=total_bytes[i, :end],
                    final_bucket_tokens=(
                        float(tokens_history[i, end - 1])
                        if cm.bucket is not None
                        else None
                    ),
                    failed=True,
                    failure_reason=replay.failure_reason,
                    cells_forged=replay.cells_forged,
                    behavior_rng_state=replay.behavior_rng_state,
                )
            )
            continue
        results.append(
            KernelResult(
                index=cm.index,
                estimate=float(statistics.median(zs[i].tolist())),
                cells_checked=replay.cells_checked,
                duration=duration,
                total_allocated=cm.total_allocated,
                measurement=xs[i],
                background_reported=ys_raw[i],
                background_clamped=ys_clamped[i],
                totals=zs[i],
                capacity_bits=caps_out[i],
                total_bytes=total_bytes[i],
                final_bucket_tokens=(
                    float(tokens[i]) if cm.bucket is not None else None
                ),
                behavior_rng_state=replay.behavior_rng_state,
            )
        )
    return results


def execute_batch(
    compiled: Sequence[CompiledMeasurement],
) -> list[KernelResult]:
    """Execute compiled measurements as vectorized array walks.

    Measurements are grouped by duration (one array walk per group);
    results come back in input order. Admission refusals pass their
    compiled-in outcome through without executing.
    """
    results: dict[int, KernelResult] = {}
    groups: dict[int, list[CompiledMeasurement]] = {}
    order: list[int] = []
    for cm in compiled:
        order.append(cm.index)
        if cm.outcome is not None:
            results[cm.index] = KernelResult(index=cm.index, outcome=cm.outcome)
        else:
            groups.setdefault(cm.duration, []).append(cm)
    for duration, cms in groups.items():
        for result in _walk_group(cms, duration):
            results[result.index] = result
    return [results[index] for index in order]


def execute_compiled(cm: CompiledMeasurement) -> KernelResult:
    """Execute one compiled measurement (a batch of one)."""
    return execute_batch([cm])[0]
