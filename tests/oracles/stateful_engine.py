"""The stateful references the measurement kernels are proven against.

Production runs every full-simulation measurement through the vectorized
kernel (``MeasurementEngine.run_many`` -> ``repro.kernel.run_specs``;
``run`` is a batch of one) and every analytic round through the analytic
array walk. This module keeps the stateful twins they must equal, bit
for bit:

- :func:`stateful_run` walks one measurement slot second by second: the
  supply noise drawn in one pass, the relay's :func:`measured_second`,
  the BWAuth clamp, a transcript session's signed reports, and
  :class:`EchoVerifier`'s per-second echo-cell checks;
- :func:`analytic_estimate` (with its :func:`analytic_inputs` /
  :func:`analytic_finish` halves) is the scalar closed form behind
  analytic campaigns.

:func:`use_stateful_reference` patches both into a ``monkeypatch``
scope, so an oracle test runs one scenario twice -- once patched, once
not -- and compares the reports.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Sequence

import repro.api.campaign
from repro.core.allocation import MeasurerAssignment, total_allocated
from repro.core.engine import (
    MeasurementEngine,
    MeasurementOutcome,
    MeasurementSpec,
    assignment_caps,
    clamp_background,
)
from repro.core.params import FlashFlowParams
from repro.core.verification import sample_cell_count
from repro.errors import VerificationFailure
from repro.kernel.analytic import AnalyticRoundResult
from repro.rng import fork, seed_from
from repro.tornet.cell import PAYLOAD_LEN, Cell
from repro.tornet.relay import Relay
from repro.tornet.relaycrypto import CircuitKey, establish_circuit_key
from repro.units import CELL_LEN, bits_to_bytes

# ---------------------------------------------------------------------------
# The relay's side of one measured second
# ---------------------------------------------------------------------------


@dataclass
class SecondReport:
    """What happened at a relay during one second of a measurement slot."""

    #: Measurement bytes the relay echoed (ground truth, observed by
    #: measurers as received bytes).
    measurement_bytes: float
    #: Normal (client) bytes actually forwarded.
    background_actual_bytes: float
    #: Normal bytes the relay *reported* to the BWAuth (may be a lie).
    background_reported_bytes: float
    #: The relay's total forwarding capacity this second (diagnostics).
    capacity_bits: float


def measured_second(
    relay: Relay,
    measurement_supply_bits: float,
    background_demand_bits: float,
    ratio_r: float,
    n_measurement_sockets: int,
    n_background_sockets: int = 20,
    t: int | None = None,
    external_factor: float = 1.0,
    noise: float | None = None,
) -> SecondReport:
    """One second of a measurement slot at ``relay``.

    ``measurement_supply_bits`` is what the measurers can push this
    second (after their own TCP/link constraints); the relay echoes as
    much as its capacity allows while reserving at most ``r`` of total
    for normal traffic. ``external_factor`` scales capacity for
    environment effects outside the relay's control, sampled per
    measurement by the caller. ``noise`` substitutes a pre-drawn jitter
    factor (from :meth:`Relay.draw_noise_series`) for the stateful draw.
    """
    if not 0 <= ratio_r < 1:
        raise ValueError("ratio r must be in [0, 1)")
    capacity = relay.forwarding_capacity(
        n_measurement_sockets=n_measurement_sockets,
        n_background_sockets=n_background_sockets,
        being_measured=True,
    )
    bucket = relay.bucket
    if bucket is not None:
        # Peek: the bucket bounds this second's forwarding; tokens are
        # settled below against bytes actually forwarded, so an
        # under-supplied second leaves the burst allowance intact.
        capacity = min(capacity, bucket.available_second() * 8.0)
    capacity *= (relay._noise() if noise is None else noise) * external_factor

    # Allocate capacity between measurement and normal traffic.
    behavior = relay.behavior
    if behavior.enforces_ratio():
        background = min(background_demand_bits, ratio_r * capacity)
        measurement = min(measurement_supply_bits, capacity - background)
        if ratio_r < 1:
            background = min(
                background, measurement * ratio_r / (1.0 - ratio_r)
            )
        measurement = min(measurement_supply_bits, capacity - background)
    else:
        # A relay ignoring the ratio gives everything to measurement
        # traffic (maximising its estimate) -- see attacks.relays.
        measurement = min(measurement_supply_bits, capacity)
        background = min(
            background_demand_bits, max(0.0, capacity - measurement)
        )

    behavior.note_measurement(measurement / 8.0, relay)
    reported = behavior.report_background(background / 8.0, relay) * 8.0
    total_bits = measurement + background
    if bucket is not None:
        bucket.consume_second(total_bits / 8.0)
    relay.observed_bw.record_second(total_bits / 8.0, t)
    return SecondReport(
        measurement_bytes=measurement / 8.0,
        background_actual_bytes=background / 8.0,
        background_reported_bytes=reported / 8.0,
        capacity_bits=capacity,
    )


def process_measurement_cell(
    relay: Relay, cell: Cell, key: CircuitKey, cell_index: int
) -> Cell:
    """Decrypt a measurement cell at ``relay`` and return the echo.

    An honest relay returns the proper decryption; a forging behaviour
    substitutes whatever it likes and is caught by the measurer's random
    content checks with overwhelming probability.
    """
    correct = key.process(cell.payload, cell_index)
    return cell.with_payload(relay.behavior.echo_payload(correct, relay))


# ---------------------------------------------------------------------------
# The measurer's side: random echo-cell verification (paper §4.1, §5)
# ---------------------------------------------------------------------------

#: Fallback seed for the sampled-cell payload stream when a verifier is
#: built without an explicit ``payload_rng`` (direct unit-test use).
#: :func:`stateful_run` always passes the measurement's
#: ``verify-payload-*`` fork.
_DEFAULT_PAYLOAD_SEED = seed_from(0, "verify-payload")


class EchoVerifier:
    """Per-measurement verification state for one measuring process.

    For each sampled cell it builds a random-payload MEASURE cell, asks
    the relay to process it (decrypt + echo), and compares the result
    against the locally computed decryption.
    """

    def __init__(self, p_check: float, rng: random.Random,
                 key: CircuitKey | None = None,
                 payload_rng: random.Random | None = None):
        if not 0 <= p_check <= 1:
            raise ValueError("p_check must be a probability")
        self.p_check = p_check
        self._rng = rng
        # Sampled-cell payloads come from their own seeded stream, not
        # ``rng`` (the ``verify-*`` sample-count stream's positions must
        # not move -- the kernel replay consumes that stream draw-for-draw).
        if payload_rng is None:
            payload_rng = random.Random(_DEFAULT_PAYLOAD_SEED)
        self._payload_rng = payload_rng
        if key is None:
            key, _ = establish_circuit_key()
        self.key = key
        self.cells_checked = 0
        self.cells_failed = 0
        self._next_cell_index = 0

    def sample_count(self, cells_sent: int) -> int:
        """How many of ``cells_sent`` cells get recorded this second."""
        return sample_cell_count(self._rng, cells_sent, self.p_check)

    def check_cells(self, relay: Relay, n_cells: int, circ_id: int = 1) -> int:
        """Send ``n_cells`` sampled cells through the relay and verify.

        Returns the number of cells checked; raises
        :class:`VerificationFailure` on the first mismatch (the BWAuth
        ends the measurement early, paper §4.1).
        """
        for _ in range(n_cells):
            index = self._next_cell_index
            self._next_cell_index += 1
            payload = self._payload_rng.randbytes(PAYLOAD_LEN)
            cell = Cell.measurement(circ_id, payload)
            expected = self.key.process(payload, index)
            echoed = process_measurement_cell(relay, cell, self.key, index)
            self.cells_checked += 1
            if echoed.payload != expected:
                self.cells_failed += 1
                raise VerificationFailure(
                    f"echo cell {index} failed content check",
                    relay_fingerprint=relay.fingerprint,
                )
        return n_cells

    def verify_second(self, relay: Relay, measurement_bytes: float) -> int:
        """Run this second's sampled checks for ``measurement_bytes`` echoed."""
        cells_sent = int(measurement_bytes // CELL_LEN)
        return self.check_cells(relay, self.sample_count(cells_sent))


# ---------------------------------------------------------------------------
# One measurement slot, walked second by second
# ---------------------------------------------------------------------------


def stateful_run(engine: MeasurementEngine, spec: MeasurementSpec) -> MeasurementOutcome:
    """Run one measurement slot on the stateful per-second walk.

    Draws on the same streams, in the same order, as the kernel:
    ``engine.prepare_inputs`` (admission, environment, path qualities),
    then all supply noise in one pass, then the relay's jitter for the
    whole slot (so the relay's stream advances by ``duration`` draws even
    when verification ends the slot early). Each second the relay splits
    its capacity, the BWAuth clamps the claimed background, a transcript
    session records the second's reports, and the verifier checks its
    sampled echo cells.
    """
    inputs = engine.prepare_inputs(spec)
    if inputs.outcome is not None:
        return inputs.outcome
    params, duration, target = inputs.params, inputs.duration, spec.target

    # Per-assignment invariants: min(a_i, TCP cap * sockets * quality,
    # link) * socket efficiency -- everything but the per-second noise.
    cap_arrays = [
        assignment_caps(
            path,
            a.measurer.host.kernel,
            inputs.target_kernel,
            duration,
            a.allocated,
            a.measurer.host.link_capacity,
            inputs.socket_share,
            quality,
            inputs.efficiency,
        )
        for a, path, quality in inputs.entries
    ]
    measurer_names = [a.measurer.name for a, _, _ in inputs.entries]
    verifier = (
        EchoVerifier(
            params.p_check,
            fork(spec.seed, f"verify-{target.fingerprint}"),
            key=engine._verifier_key(),
            payload_rng=fork(spec.seed, f"verify-payload-{target.fingerprint}"),
        )
        if spec.verify
        else None
    )
    background = spec.background_demand
    bg_of = (
        background
        if callable(background)
        else (lambda _t, v=float(background): v)
    )

    gauss = inputs.rng.gauss
    noise_std = inputs.noise.supply_noise_std
    draws = [
        max(0.3, gauss(1.0, noise_std))
        for _ in range(duration * len(cap_arrays))
    ]
    relay_noise = target.draw_noise_series(duration)
    session = spec.session

    xs: list[float] = []
    ys_raw: list[float] = []
    ys_clamped: list[float] = []
    zs: list[float] = []

    draw_index = 0
    for second in range(duration):
        supply_total = 0.0
        contributions: list[float] = []
        for caps in cap_arrays:
            part = caps[second] * draws[draw_index]
            draw_index += 1
            supply_total += part
            contributions.append(part)

        report = measured_second(
            target,
            measurement_supply_bits=supply_total,
            background_demand_bits=bg_of(second),
            ratio_r=params.ratio,
            n_measurement_sockets=params.n_sockets,
            external_factor=inputs.env,
            noise=relay_noise[second],
        )
        x_bits = report.measurement_bytes * 8.0
        y_bits = report.background_reported_bytes * 8.0
        y_clamped = clamp_background(x_bits, y_bits, params.ratio)

        xs.append(x_bits)
        ys_raw.append(y_bits)
        ys_clamped.append(y_clamped)
        zs.append(x_bits + y_clamped)

        if session is not None:
            # Received measurement bytes split by each measurer's share
            # of the offered supply.
            share = (
                report.measurement_bytes / supply_total
                if supply_total > 0
                else 0.0
            )
            session.record_second(
                second,
                {
                    name: part * share
                    for name, part in zip(measurer_names, contributions)
                },
                report.background_reported_bytes,
            )

        if verifier is not None:
            try:
                verifier.verify_second(target, bits_to_bytes(x_bits))
            except VerificationFailure as failure:
                # The BWAuth ends the measurement early (paper §4.1).
                return MeasurementOutcome(
                    estimate=0.0,
                    per_second_measurement=xs,
                    per_second_background_reported=ys_raw,
                    per_second_background_clamped=ys_clamped,
                    per_second_total=zs,
                    total_allocated=inputs.total_allocated,
                    duration=second + 1,
                    failed=True,
                    failure_reason=str(failure),
                    cells_checked=verifier.cells_checked,
                )

    return MeasurementOutcome(
        estimate=float(statistics.median(zs)),
        per_second_measurement=xs,
        per_second_background_reported=ys_raw,
        per_second_background_clamped=ys_clamped,
        per_second_total=zs,
        total_allocated=inputs.total_allocated,
        duration=duration,
        cells_checked=verifier.cells_checked if verifier is not None else 0,
    )


# ---------------------------------------------------------------------------
# The scalar analytic estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticInputs:
    """The gathered scalars behind one analytic estimate.

    ``capacity`` is the relay's ground-truth Tor capacity, ``allocated``
    the sum of the a_i in assignment order, ``multiplier`` the team's m.
    """

    capacity: float
    allocated: float
    multiplier: float


def analytic_inputs(
    engine: MeasurementEngine,
    target: Relay,
    assignments: Sequence[MeasurerAssignment],
    params: FlashFlowParams | None = None,
) -> AnalyticInputs:
    """Gather the analytic estimate's inputs (the prepare half)."""
    params = params or engine.params or FlashFlowParams()
    return AnalyticInputs(
        capacity=target.true_capacity,
        allocated=total_allocated(list(assignments)),
        multiplier=params.multiplier,
    )


def analytic_finish(inputs: AnalyticInputs, wobble: float = 1.0) -> float:
    """The pure half: supply-limited wobbled true capacity."""
    return min(inputs.capacity * wobble, inputs.allocated / inputs.multiplier)


def analytic_estimate(
    engine: MeasurementEngine,
    target: Relay,
    assignments: Sequence[MeasurerAssignment],
    params: FlashFlowParams | None = None,
    wobble: float = 1.0,
) -> float:
    """Closed-form estimate: supply-limited true capacity.

    The measurers can push ``sum(a_i) / m`` of goodput; an honest relay
    echoes up to its true capacity scaled by ``wobble`` (the caller's
    pre-drawn measurement-error factor).
    """
    return analytic_finish(
        analytic_inputs(engine, target, assignments, params), wobble
    )


def reference_analytic_round(engine, jobs, params=None) -> AnalyticRoundResult:
    """One :func:`analytic_estimate` call and one accept decision per job."""
    params = params or engine.params or FlashFlowParams()
    estimates, thresholds, accepted = [], [], []
    for job in jobs:
        z = analytic_estimate(
            engine, job.relay, job.assignments, params, job.wobble
        )
        threshold = params.acceptance_threshold(
            total_allocated(job.assignments)
        )
        estimates.append(z)
        thresholds.append(threshold)
        accepted.append(z < threshold or job.capped)
    return AnalyticRoundResult(estimates, thresholds, accepted)


# ---------------------------------------------------------------------------
# Whole campaigns on the references
# ---------------------------------------------------------------------------


def _stateful_run_many(engine, specs):
    return [stateful_run(engine, spec) for spec in specs]


def use_stateful_reference(monkeypatch) -> None:
    """Route measurements and campaign rounds through the references.

    ``MeasurementEngine.run_many`` walks each spec with
    :func:`stateful_run`, in spec order (``run`` follows, being a batch
    of one), and analytic rounds call :func:`analytic_estimate` per job.
    """
    monkeypatch.setattr(MeasurementEngine, "run_many", _stateful_run_many)
    monkeypatch.setattr(
        repro.api.campaign, "run_analytic_round", reference_analytic_round
    )
