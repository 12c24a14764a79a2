"""The batched measurement engine (paper §4.1, §4.3, §7).

This module is the execution core behind every simulated FlashFlow
measurement. The original hot path re-derived per-socket TCP caps and
noise socket-by-socket, second-by-second in pure Python; the engine
splits a measurement into

1. a **prepare** phase that computes all per-assignment invariants once
   per measurement -- resolved network paths, per-second TCP ramp
   profiles (:func:`repro.netsim.tcp.tcp_ramp_profile`), socket shares,
   the measurer-side socket-efficiency factor, and the binding
   link/allocation caps -- collapsing everything that does not change
   second-to-second into one effective-cap array per assignment; and
2. an **execute** phase that draws all per-second supply noise in a
   single RNG pass and walks the slot with nothing but a handful of
   multiply-adds per second plus the stateful relay and verifier calls.

Both phases consume the measurement's forked RNG stream
(:func:`repro.rng.fork`) in exactly the order the historical serial loop
did, so estimates are bit-identical to pre-engine results.
:meth:`MeasurementEngine.run_many` lowers batches of independent specs
through :mod:`repro.kernel` into compiled measurements whose per-second
walk runs as one numpy array walk for the whole batch; the stateful
per-second path below (:meth:`MeasurementEngine.execute`) remains the
reference semantics the kernel is tested against, and the fallback for
uncompilable relay behaviours (cross-relay collusion), transcript
sessions, and batches that share a target relay.

The engine also hosts the **analytic fast path**
(:meth:`MeasurementEngine.analytic_estimate`) used by campaign code that
only cares about slot accounting, and shares one Diffie-Hellman circuit
key across verifiers (the handshake is pure simulation overhead --
estimates and forgery detection are independent of the key bits; pass
``reuse_circuit_keys=False`` to recover a fresh handshake per slot).
"""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.allocation import MeasurerAssignment, total_allocated
from repro.core.measurer import measurer_socket_efficiency
from repro.core.params import FlashFlowParams
from repro.core.verification import EchoVerifier
from repro.errors import MeasurementFailure, VerificationFailure
from repro.netsim.latency import NetworkModel, Path, internet_loss_for_rtt
from repro.netsim.socketbuf import KernelConfig
from repro.netsim.tcp import tcp_ramp_profile
from repro.rng import fork
from repro.tornet.relay import Relay
from repro.tornet.relaycrypto import CircuitKey, establish_circuit_key
from repro.units import bits_to_bytes

#: Median Internet RTT used when no explicit topology is given
#: (the tmodel dataset median the paper cites in Appendix D).
DEFAULT_RTT_SECONDS = 0.118


@dataclass(frozen=True)
class MeasurementNoise:
    """Stochastic environment knobs for a measurement.

    ``target_env_mean``/``target_env_std`` model cross-traffic and
    time-of-day variation at the target host over a whole measurement;
    per-second relay jitter lives in :class:`repro.tornet.relay.Relay`.
    The defaults reproduce the paper's Figure 6 spread (95% of
    measurements within 11% of ground truth) on dedicated Internet hosts;
    the Shadow experiments use a lower mean (shared congested topology).
    """

    target_env_mean: float = 1.0
    target_env_std: float = 0.035
    target_env_min: float = 0.85
    target_env_max: float = 1.03
    #: Per-second multiplicative noise on each measurer's supply.
    supply_noise_std: float = 0.03


@dataclass
class MeasurementOutcome:
    """Result of one measurement slot."""

    #: Capacity estimate z = median(z_j), bit/s. Zero if the slot failed.
    estimate: float
    #: Per-second measurement traffic x_j, bit/s.
    per_second_measurement: list[float] = field(default_factory=list)
    #: Per-second normal traffic as reported by the relay (bit/s).
    per_second_background_reported: list[float] = field(default_factory=list)
    #: Per-second normal traffic after the r-ratio clamp (bit/s).
    per_second_background_clamped: list[float] = field(default_factory=list)
    #: Per-second totals z_j (bit/s).
    per_second_total: list[float] = field(default_factory=list)
    #: Sum of the a_i allocated for this slot (bit/s).
    total_allocated: float = 0.0
    duration: int = 0
    failed: bool = False
    failure_reason: str | None = None
    cells_checked: int = 0

    def estimate_with_duration(self, seconds: int) -> float:
        """Re-aggregate as if the slot had lasted only ``seconds``.

        Used by the Appendix E.3 duration-strategy analysis: a 60-second
        run can be truncated to emulate 10/20/30-second median strategies.
        """
        if seconds <= 0:
            raise ValueError("duration must be positive")
        if not self.per_second_total:
            return 0.0
        window = self.per_second_total[: min(seconds, len(self.per_second_total))]
        return float(statistics.median(window))


def clamp_background(x_bits: float, y_bits: float, ratio: float) -> float:
    """The BWAuth's normal-traffic clamp: y <= x * r / (1 - r) (§4.1).

    ``y_bits`` is relay-controlled input (the claimed normal traffic), so
    a non-finite claim is rejected outright rather than multiplied or
    compared raw -- ``min(inf, 0 * r/(1-r))`` would quietly produce 0.0
    while ``inf`` could leak through any x > 0 comparison as NaN fodder
    downstream.
    """
    if ratio >= 1:
        raise ValueError("ratio must be < 1")
    if not math.isfinite(y_bits):
        raise ValueError(
            f"non-finite background report ({y_bits!r}): a relay's claimed "
            "normal traffic must be a finite byte count"
        )
    if ratio <= 0:
        return 0.0
    return min(y_bits, x_bits * ratio / (1.0 - ratio))


def socket_share_for(params: FlashFlowParams, n_active: int) -> int:
    """Each participating measurer's share of the ``s`` sockets (§4.1)."""
    return max(1, params.n_sockets // n_active)


def assignment_caps(
    path: Path,
    sender_kernel,
    target_kernel,
    duration: int,
    allocated: float,
    link_capacity: float,
    socket_share: int,
    quality: float,
    efficiency: float,
) -> list[float]:
    """One assignment's effective per-second supply caps.

    min(a_i, TCP ramp cap * sockets * quality, link) * socket efficiency
    -- everything about the assignment that does not change with the
    per-second noise draw. Pure (no RNG, no shared state): the kernel
    recomputes it from compiled inputs, and
    :meth:`MeasurementEngine.prepare` uses the same code, so both paths
    produce bit-identical caps.
    """
    ramp = tcp_ramp_profile(path, sender_kernel, target_kernel, duration)
    return [
        min(allocated, per_socket * socket_share * quality, link_capacity)
        * efficiency
        for per_socket in ramp
    ]


def _resolve_path(
    network: NetworkModel | None,
    measurer_host: str,
    target_location: str | None,
    default_rtt: float,
) -> Path:
    if network is not None and target_location is not None:
        try:
            return network.path(measurer_host, target_location)
        except Exception:
            pass
    return Path(
        src=measurer_host,
        dst=target_location or "target",
        rtt_seconds=default_rtt,
        loss=internet_loss_for_rtt(default_rtt),
    )


@dataclass(frozen=True)
class MeasurementSpec:
    """Everything needed to run one measurement slot.

    A spec is a pure description: building one draws no randomness and
    touches no shared state, so lists of specs can be handed to
    :meth:`MeasurementEngine.run_many` for batched execution. Fields
    left ``None`` fall back to the engine's defaults.
    """

    target: Relay
    assignments: Sequence[MeasurerAssignment]
    params: FlashFlowParams | None = None
    network: NetworkModel | None = None
    target_location: str | None = None
    background_demand: float | Callable[[int], float] = 0.0
    duration: int | None = None
    seed: int = 0
    bwauth_id: str = "bwauth0"
    period_index: int = 0
    verify: bool = True
    enforce_admission: bool = True
    noise: MeasurementNoise | None = None
    default_rtt: float | None = None
    #: Optional :class:`repro.core.session.MeasurementSession` (or any
    #: object with a compatible ``record_second``) receiving signed
    #: per-second reports as the slot runs.
    session: object | None = None


@dataclass
class _AssignmentProfile:
    """Per-assignment invariants, precomputed once per measurement."""

    assignment: MeasurerAssignment
    #: Effective per-second supply cap: min(a_i, TCP cap * sockets *
    #: quality, link) * socket efficiency -- everything but the
    #: per-second noise draw.
    caps: list[float]


@dataclass
class _PlanInputs:
    """The stochastic half of a prepared measurement.

    Everything that must be resolved *in order* on the measurement's
    forked RNG stream (environment factor, per-assignment path
    qualities) plus the admission decision -- and nothing that is pure
    computation. The kernel compiler consumes these directly and defers
    the heavy pure half (TCP ramp profiles) to the walk.
    """

    spec: MeasurementSpec
    params: FlashFlowParams
    noise: MeasurementNoise
    duration: int
    rng: object
    env: float
    socket_share: int
    efficiency: float
    target_kernel: KernelConfig
    #: (assignment, resolved path, drawn quality) per active assignment.
    entries: list[tuple[MeasurerAssignment, Path, float]]
    total_allocated: float
    #: Early result (admission refusal); skips execution entirely.
    outcome: MeasurementOutcome | None = None


@dataclass(frozen=True)
class AnalyticInputs:
    """The gathered scalars behind one analytic estimate.

    ``capacity`` is the relay's ground-truth Tor capacity, ``allocated``
    the sum of the a_i in assignment order, ``multiplier`` the team's
    m. :meth:`MeasurementEngine.analytic_finish` (scalar) and the
    analytic kernel's array walk (one round at a time) consume the same
    three numbers, so both produce the same bits.
    """

    capacity: float
    allocated: float
    multiplier: float


@dataclass
class _Plan:
    """A prepared measurement, ready for the batched per-second walk."""

    spec: MeasurementSpec
    params: FlashFlowParams
    noise: MeasurementNoise
    duration: int
    rng: object
    env: float
    profiles: list[_AssignmentProfile]
    verifier: EchoVerifier | None
    bg_of: Callable[[int], float]
    total_allocated: float
    #: Early result (admission refusal); skips execution entirely.
    outcome: MeasurementOutcome | None = None


class MeasurementEngine:
    """Prepares and executes measurement slots, one at a time or in batches.

    One engine instance is safe to share across threads: per-measurement
    state lives in the plan, and the only shared mutable is the lazily
    established circuit key, which is created under a lock and immutable
    afterwards.
    """

    def __init__(
        self,
        params: FlashFlowParams | None = None,
        network: NetworkModel | None = None,
        noise: MeasurementNoise | None = None,
        default_rtt: float = DEFAULT_RTT_SECONDS,
        reuse_circuit_keys: bool = True,
    ):
        self.params = params
        self.network = network
        self.noise = noise
        self.default_rtt = default_rtt
        self.reuse_circuit_keys = reuse_circuit_keys
        self._shared_key: CircuitKey | None = None
        self._key_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Circuit keys
    # ------------------------------------------------------------------

    def _verifier_key(self) -> CircuitKey | None:
        """One DH handshake per engine instead of per measurement.

        The 2048-bit modular exponentiations of
        :func:`establish_circuit_key` dominated the pre-engine profile
        while contributing nothing to the simulation: estimates and the
        (1-p)^k forgery-detection bound are independent of the key bits.
        """
        if not self.reuse_circuit_keys:
            return None  # EchoVerifier runs its own handshake.
        if self._shared_key is None:
            with self._key_lock:
                if self._shared_key is None:
                    self._shared_key = establish_circuit_key()[0]
        return self._shared_key

    # ------------------------------------------------------------------
    # Prepare: per-measurement invariants
    # ------------------------------------------------------------------

    def prepare_inputs(self, spec: MeasurementSpec) -> _PlanInputs:
        """Resolve the spec's stochastic half.

        RNG draws happen in the exact order of the historical serial
        loop's setup phase: environment factor first, then one path
        quality per participating assignment. No pure computation (TCP
        ramps) happens here -- that is :meth:`finish_plan` (in-process)
        or the kernel's compile step.
        """
        params = spec.params or self.params or FlashFlowParams()
        noise = spec.noise or self.noise or MeasurementNoise()
        network = spec.network if spec.network is not None else self.network
        default_rtt = (
            spec.default_rtt if spec.default_rtt is not None else self.default_rtt
        )
        duration = params.slot_seconds if spec.duration is None else spec.duration
        target = spec.target
        rng = fork(
            spec.seed,
            f"measurement-{spec.bwauth_id}-{target.fingerprint}"
            f"-{spec.period_index}",
        )

        active = [a for a in spec.assignments if a.participates]
        if not active:
            raise MeasurementFailure(
                "no measurer allocated any capacity", target.fingerprint
            )

        target_kernel = (
            target.host.kernel if target.host is not None else KernelConfig.default()
        )
        if spec.enforce_admission and not target.accept_measurement(
            spec.bwauth_id, spec.period_index
        ):
            return _PlanInputs(
                spec=spec, params=params, noise=noise, duration=duration,
                rng=rng, env=1.0, socket_share=1, efficiency=1.0,
                target_kernel=target_kernel, entries=[],
                total_allocated=total_allocated(list(spec.assignments)),
                outcome=MeasurementOutcome(
                    estimate=0.0,
                    total_allocated=total_allocated(list(spec.assignments)),
                    failed=True,
                    failure_reason="relay refused: already measured this period",
                ),
            )

        # Slot-constant behaviour decisions (the selective-capacity roll)
        # fire once per admitted measurement, before anything snapshots
        # capacity; both the stateful and compiled paths pass through
        # here, so behaviour RNG streams stay aligned by construction.
        target.behavior.begin_measurement(target)

        socket_share = socket_share_for(params, len(active))
        env = min(
            noise.target_env_max,
            max(
                noise.target_env_min,
                rng.gauss(noise.target_env_mean, noise.target_env_std),
            ),
        )

        efficiency = measurer_socket_efficiency(socket_share)
        entries = []
        for a in active:
            path = _resolve_path(
                network, a.measurer.host.name, spec.target_location, default_rtt
            )
            quality = (
                network.sample_path_quality(rng)
                if network is not None
                else max(0.45, min(1.0, rng.gauss(0.92, 0.10)))
            )
            entries.append((a, path, quality))

        return _PlanInputs(
            spec=spec, params=params, noise=noise, duration=duration,
            rng=rng, env=env, socket_share=socket_share,
            efficiency=efficiency, target_kernel=target_kernel,
            entries=entries,
            total_allocated=total_allocated(list(spec.assignments)),
        )

    def finish_plan(self, inputs: _PlanInputs) -> _Plan:
        """Do the pure half of preparation: ramps, caps, verifier."""
        spec = inputs.spec
        if inputs.outcome is not None:
            return _Plan(
                spec=spec, params=inputs.params, noise=inputs.noise,
                duration=inputs.duration, rng=inputs.rng, env=inputs.env,
                profiles=[], verifier=None, bg_of=lambda _t: 0.0,
                total_allocated=inputs.total_allocated,
                outcome=inputs.outcome,
            )

        profiles = []
        for a, path, quality in inputs.entries:
            # a_i is enforced by the processes' BandwidthRate; the TCP cap
            # by the path; the measurer's own link by its capacity;
            # managing many sockets costs measurer CPU.
            caps = assignment_caps(
                path,
                a.measurer.host.kernel,
                inputs.target_kernel,
                inputs.duration,
                a.allocated,
                a.measurer.host.link_capacity,
                inputs.socket_share,
                quality,
                inputs.efficiency,
            )
            profiles.append(_AssignmentProfile(assignment=a, caps=caps))

        verifier = (
            EchoVerifier(
                inputs.params.p_check,
                fork(spec.seed, f"verify-{spec.target.fingerprint}"),
                key=self._verifier_key(),
                payload_rng=fork(
                    spec.seed, f"verify-payload-{spec.target.fingerprint}"
                ),
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

        return _Plan(
            spec=spec, params=inputs.params, noise=inputs.noise,
            duration=inputs.duration, rng=inputs.rng, env=inputs.env,
            profiles=profiles, verifier=verifier, bg_of=bg_of,
            total_allocated=inputs.total_allocated,
        )

    def prepare(self, spec: MeasurementSpec) -> _Plan:
        """Resolve the spec and precompute all per-assignment invariants."""
        return self.finish_plan(self.prepare_inputs(spec))

    # ------------------------------------------------------------------
    # Execute: batched per-second walk
    # ------------------------------------------------------------------

    def execute(self, plan: _Plan) -> MeasurementOutcome:
        """Walk the slot using the precomputed caps.

        All supply noise is drawn in a single pass up front (same stream
        positions as drawing inside the loop: the measurement RNG feeds
        nothing else once the plan exists); the per-second work is then
        one multiply-add per assignment plus the stateful relay report
        and echo-cell verification.
        """
        if plan.outcome is not None:
            return plan.outcome
        spec, params, noise = plan.spec, plan.params, plan.noise
        target, duration = spec.target, plan.duration
        profiles, verifier = plan.profiles, plan.verifier
        n_profiles = len(profiles)
        cap_arrays = [p.caps for p in profiles]

        gauss = plan.rng.gauss
        noise_std = noise.supply_noise_std
        draws = [
            max(0.3, gauss(1.0, noise_std))
            for _ in range(duration * n_profiles)
        ]
        # Relay jitter is pre-drawn for the whole slot too, so the relay's
        # RNG stream advances by exactly `duration` draws whether or not
        # verification ends the slot early -- the same consumption as the
        # compiled kernel walk, keeping both paths bit-aligned afterwards.
        relay_noise = target.draw_noise_series(duration)

        session = spec.session
        measurer_names = [p.assignment.measurer.name for p in profiles]

        xs: list[float] = []
        ys_raw: list[float] = []
        ys_clamped: list[float] = []
        zs: list[float] = []

        draw_index = 0
        for second in range(duration):
            supply_total = 0.0
            contributions: list[float] | None = [] if session is not None else None
            for caps in cap_arrays:
                part = caps[second] * draws[draw_index]
                draw_index += 1
                supply_total += part
                if contributions is not None:
                    contributions.append(part)

            report = target.measured_second(
                measurement_supply_bits=supply_total,
                background_demand_bits=plan.bg_of(second),
                ratio_r=params.ratio,
                n_measurement_sockets=params.n_sockets,
                external_factor=plan.env,
                noise=relay_noise[second],
            )
            x_bits = report.measurement_bytes * 8.0
            y_bits = report.background_reported_bytes * 8.0
            y_clamped = clamp_background(x_bits, y_bits, params.ratio)

            xs.append(x_bits)
            ys_raw.append(y_bits)
            ys_clamped.append(y_clamped)
            zs.append(x_bits + y_clamped)

            if session is not None and contributions is not None:
                # Received measurement bytes split by each measurer's
                # share of the offered supply.
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
                        total_allocated=plan.total_allocated,
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
            total_allocated=plan.total_allocated,
            duration=duration,
            cells_checked=verifier.cells_checked if verifier is not None else 0,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, spec: MeasurementSpec) -> MeasurementOutcome:
        """Run one measurement slot."""
        return self.execute(self.prepare(spec))

    def run_many(
        self, specs: Sequence[MeasurementSpec]
    ) -> list[MeasurementOutcome]:
        """Run independent measurements through the kernel.

        Every spec's randomness comes from its own forked stream (seed +
        per-measurement label) and every stateful object (target relay,
        verifier) is per-spec, so outcomes are bit-identical to running
        each spec through :meth:`run` in spec order.

        Specs are lowered to :class:`repro.kernel.compile.\
CompiledMeasurement` objects and executed as one vectorized array walk
        (:func:`repro.kernel.run_specs`). Specs the kernel cannot compile
        (uncompilable relay behaviours, transcript sessions) run on the
        stateful :meth:`run` path, still in deterministic spec order.

        Single-spec batches and batches whose specs share a target
        relay run entirely on the stateful path: the relay's token
        bucket and RNG are stateful and draw in slot order.
        """
        specs = list(specs)
        distinct_targets = len({id(s.target) for s in specs})
        if len(specs) <= 1 or distinct_targets < len(specs):
            from repro.obs.metrics import get_registry
            from repro.obs.trace import get_tracer

            # Whole-round stateful fallback (shared targets draw RNG in
            # slot order): counted so campaigns that silently lose
            # vectorization show up in metrics output.
            if len(specs) > 1:
                get_registry().counter("engine.stateful_rounds").inc()
            with get_tracer().span("round.stateful", n_specs=len(specs)):
                return [self.run(spec) for spec in specs]
        from repro.kernel import run_specs

        return run_specs(self, specs)

    # ------------------------------------------------------------------
    # Analytic fast path (subsumes the old full_simulation=False branch)
    # ------------------------------------------------------------------

    def analytic_inputs(
        self,
        target: Relay,
        assignments: Sequence[MeasurerAssignment],
        params: FlashFlowParams | None = None,
    ) -> "AnalyticInputs":
        """Gather the analytic estimate's inputs (the prepare half).

        Mirrors the :meth:`prepare_inputs` / :meth:`finish_plan` split of
        the full-simulation path: this half touches live objects (relay,
        assignments, params fallback chain) and the finish half
        (:meth:`analytic_finish`) is pure arithmetic over the gathered
        scalars -- exactly what :mod:`repro.kernel.analytic` lowers into
        arrays for a whole round at once.
        """
        params = params or self.params or FlashFlowParams()
        return AnalyticInputs(
            capacity=target.true_capacity,
            allocated=total_allocated(list(assignments)),
            multiplier=params.multiplier,
        )

    @staticmethod
    def analytic_finish(inputs: "AnalyticInputs", wobble: float = 1.0) -> float:
        """The pure half: supply-limited wobbled true capacity."""
        return min(inputs.capacity * wobble, inputs.allocated / inputs.multiplier)

    def analytic_estimate(
        self,
        target: Relay,
        assignments: Sequence[MeasurerAssignment],
        params: FlashFlowParams | None = None,
        wobble: float = 1.0,
    ) -> float:
        """Closed-form estimate: supply-limited true capacity.

        The measurers can push ``sum(a_i) / m`` of goodput; an honest
        relay echoes up to its true capacity scaled by ``wobble`` (the
        caller's pre-drawn measurement-error factor). Used by campaign
        code where only accept/retry accounting matters, not per-second
        traffic. This is the stateful reference semantics; whole rounds
        of analytic estimates run vectorized through
        :func:`repro.kernel.analytic.run_analytic_round`, bit-identical
        to calling this in a loop.
        """
        return self.analytic_finish(
            self.analytic_inputs(target, assignments, params), wobble
        )


#: Process-wide engine used by the thin compatibility wrappers.
_default_engine: MeasurementEngine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> MeasurementEngine:
    """The shared engine behind :func:`repro.core.measurement.run_measurement`."""
    global _default_engine
    if _default_engine is None:
        with _default_engine_lock:
            if _default_engine is None:
                _default_engine = MeasurementEngine()
    return _default_engine
