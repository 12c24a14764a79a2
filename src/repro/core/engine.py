"""The measurement engine (paper §4.1, §4.3, §7).

This module is the entry point behind every simulated FlashFlow
measurement. A :class:`MeasurementSpec` describes one slot;
:meth:`MeasurementEngine.prepare_inputs` resolves its stochastic half --
admission, the environment factor, and each participating assignment's
path and quality -- on the measurement's forked RNG stream
(:func:`repro.rng.fork`) in the order the historical serial loop drew
them, and :func:`assignment_caps` collapses everything about an
assignment that does not change second to second (TCP ramp, socket
share, link, socket efficiency) into one per-second cap series.

:meth:`MeasurementEngine.run_many` lowers a batch of specs through
:mod:`repro.kernel` into compiled measurements whose per-second walk runs
as one numpy array walk; :meth:`MeasurementEngine.run` is a batch of one.
That is the only execution path. The stateful per-second walk the kernel
is proven bit-identical against lives in the test suite
(``tests/oracles/stateful_engine.py``), together with the scalar
analytic estimate that :mod:`repro.kernel.analytic` reproduces.

Every verified measurement in the process shares one Diffie-Hellman
circuit key, established by a single handshake on first use (the
handshake is pure simulation overhead -- estimates and forgery detection
are independent of the key bits).
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
from repro.errors import ConfigurationError, MeasurementFailure, _is_finite_number
from repro.netsim.latency import NetworkModel, Path, internet_loss_for_rtt
from repro.netsim.socketbuf import KernelConfig
from repro.netsim.tcp import tcp_ramp_profile
from repro.rng import fork
from repro.tornet.relay import Relay
from repro.tornet.relaycrypto import CircuitKey, establish_circuit_key

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

    def __post_init__(self) -> None:
        # A NaN std pins every draw at its clamp floor (the env factor at
        # target_env_min, supply at 0.3) and inverted bounds pin it at
        # target_env_max: every estimate skews without an error.
        for name in (
            "target_env_mean", "target_env_std", "target_env_min",
            "target_env_max", "supply_noise_std",
        ):
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        for name in ("target_env_std", "supply_noise_std"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
        if not 0 < self.target_env_min <= self.target_env_max:
            raise ConfigurationError(
                "need 0 < target_env_min <= target_env_max, got "
                f"target_env_min={self.target_env_min!r}, "
                f"target_env_max={self.target_env_max!r}"
            )


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
    per-second noise draw. Pure (no RNG, no shared state): the kernel's
    compile step and the stateful reference walk both call it, so both
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
    #: object with a compatible ``record_second``) receiving the slot's
    #: signed per-second reports after the walk, in second order.
    session: object | None = None


@dataclass
class _PlanInputs:
    """The stochastic half of a prepared measurement.

    Everything that must be resolved *in order* on the measurement's
    forked RNG stream (environment factor, per-assignment path
    qualities) plus the admission decision -- and nothing that is pure
    computation. The kernel compiler consumes these, draws the supply
    noise from ``rng`` and computes the cap series itself.
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


#: The circuit key every verified measurement in this process shares;
#: :func:`_process_circuit_key` establishes it on first use.
_process_key: CircuitKey | None = None
_handshake_lock = threading.Lock()


def _process_circuit_key() -> CircuitKey:
    """The process's circuit key, from one DH handshake on first use."""
    global _process_key
    if _process_key is None:
        with _handshake_lock:
            if _process_key is None:
                _process_key = establish_circuit_key()[0]
    return _process_key


class MeasurementEngine:
    """Prepares measurement slots and runs them on the kernel.

    One engine instance is safe to share across threads: per-measurement
    state lives in the compiled measurement, and the only state shared
    between measurements is the process's circuit key, which is
    established once under a lock and whose keystream cache only
    memoises deterministic bytes.
    """

    def __init__(
        self,
        params: FlashFlowParams | None = None,
        network: NetworkModel | None = None,
        noise: MeasurementNoise | None = None,
        default_rtt: float = DEFAULT_RTT_SECONDS,
    ):
        self.params = params
        self.network = network
        self.noise = noise
        self.default_rtt = default_rtt

    # ------------------------------------------------------------------
    # Circuit keys
    # ------------------------------------------------------------------

    def _verifier_key(self) -> CircuitKey:
        """One DH handshake per process instead of per measurement.

        The 2048-bit modular exponentiations of
        :func:`establish_circuit_key` dominated the pre-engine profile
        while contributing nothing to the simulation: estimates and the
        (1-p)^k forgery-detection bound are independent of the key bits.
        So every engine hands out the process's one key, and a process
        running many campaigns pays for a single handshake.
        """
        return _process_circuit_key()

    # ------------------------------------------------------------------
    # Prepare: per-measurement invariants
    # ------------------------------------------------------------------

    def prepare_inputs(self, spec: MeasurementSpec) -> _PlanInputs:
        """Resolve the spec's stochastic half.

        RNG draws happen in the exact order of the historical serial
        loop's setup phase: environment factor first, then one path
        quality per participating assignment. No pure computation (TCP
        ramps) happens here -- that is the kernel's compile step.
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
        # capacity; the stateful reference walk passes through here too,
        # so behaviour RNG streams stay aligned by construction.
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

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, spec: MeasurementSpec) -> MeasurementOutcome:
        """Run one measurement slot: a kernel batch of one."""
        return self.run_many([spec])[0]

    def run_many(
        self, specs: Sequence[MeasurementSpec]
    ) -> list[MeasurementOutcome]:
        """Run measurement specs through the kernel, in spec order.

        Every spec's randomness comes from its own forked stream (seed +
        per-measurement label), so outcomes are bit-identical to walking
        each spec statefully, one after the other, in spec order.

        Specs are lowered to :class:`repro.kernel.compile.\
CompiledMeasurement` objects and executed as vectorized array walks
        (:func:`repro.kernel.run_specs`). Specs that share a target
        relay or a behaviour's ledger run in ordered waves, each
        compiled after the previous one settled, so token buckets,
        jitter streams and ledgers advance in spec order. A relay whose
        behaviour publishes no kernel program raises
        :class:`~repro.errors.ConfigurationError` before any spec runs.
        """
        from repro.kernel import run_specs

        return run_specs(self, specs)


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
