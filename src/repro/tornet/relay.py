"""The Tor relay model (paper §2, §4.1, §6).

A relay's forwarding capacity each second is the minimum of:

- its single-threaded CPU cell-processing capacity (socket-count aware),
- its access-link capacity,
- any operator-configured rate limit (token bucket, 1-second burst),
- the active schedulers' caps (KIST-style for normal traffic; FlashFlow's
  separate measurement scheduler for measurement circuits).

During a FlashFlow measurement the relay enforces the normal-traffic ratio
``r``: cells sent by the normal scheduler may be at most a fraction ``r``
of all cells sent, and the relay sends as much normal traffic as that
allows (paper §4.1). Relay misbehaviour (lying about background traffic,
forging echo cells, showing capacity only when measured) plugs in through
:class:`RelayBehavior`; the honest behaviour is the default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.hosts import Host
from repro.tornet.cpu import CpuModel
from repro.tornet.kist import kist_rate_cap
from repro.tornet.meassched import measurement_rate_cap
from repro.tornet.observedbw import ObservedBandwidth
from repro.tornet.tokenbucket import TokenBucket
from repro.rng import fork


@dataclass(frozen=True)
class BehaviorProgram:
    """A behaviour's per-measurement walk, reduced to closed form.

    The vectorized kernel (``repro.kernel``) cannot call back into a
    behaviour object per second, so behaviours that are *stateless within
    one measurement slot* describe themselves as a small set of scalars
    the array walk applies lane-wise. The defaults encode the honest
    behaviour; each scalar maps to one hook:

    - ``enforces_ratio`` -- :meth:`RelayBehavior.enforces_ratio`;
    - ``background_report_scale`` -- an honest-shaped
      :meth:`RelayBehavior.report_background` returning
      ``actual_bytes * scale``;
    - ``measurement_claim_factor`` -- a report derived from measurement
      traffic instead: ``measurement_bytes * factor`` (overrides the
      scale when set; the ratio-cheater's claimed allowance);
    - ``background_report_offset`` -- bytes added to every second's
      report after the scale or claim: other relays' measurement traffic
      read from the behaviour's :attr:`RelayBehavior.ledger` when the
      slot is compiled (a colluder's pooled claim). Exact because no
      ledger peer is walked during the slot;
    - ``forge_fraction`` -- :meth:`RelayBehavior.echo_payload` forging
      with this probability per checked cell, drawn from the behaviour's
      seeded RNG (replayed by the kernel's verification pass).

    Capacity shaping (:meth:`RelayBehavior.capacity_factor`) needs no
    field: it is slot-constant, so it folds into the compiled base
    capacity. Per-slot decisions (the selective-capacity roll) happen in
    :meth:`RelayBehavior.begin_measurement` before compilation snapshots
    the relay.
    """

    enforces_ratio: bool = True
    background_report_scale: float = 1.0
    measurement_claim_factor: float | None = None
    background_report_offset: float = 0.0
    forge_fraction: float | None = None


#: The honest program -- shared so compiled measurements of honest relays
#: don't allocate a fresh (identical) instance each.
HONEST_PROGRAM = BehaviorProgram()


class RelayBehavior:
    """Hooks a relay's implementation can override; defaults are honest."""

    #: Human-readable label used in experiment output.
    name = "honest"

    #: The object through which this behaviour's reports read other
    #: relays' measurements (a colluding clique's shared ledger), or
    #: ``None``. The kernel runs specs that share a ledger in separate
    #: waves, in spec order, so each slot reads its peers' settled state.
    ledger: object | None = None

    def report_background(self, actual_bytes: float, relay: "Relay") -> float:
        """Background bytes the relay *claims* to have forwarded."""
        return actual_bytes

    def echo_payload(self, correct_payload: bytes, relay: "Relay") -> bytes:
        """Payload returned for a measurement cell (honest: the decryption)."""
        return correct_payload

    def capacity_factor(self, being_measured: bool, relay: "Relay") -> float:
        """Multiplier on true capacity (used for selective-capacity attacks)."""
        return 1.0

    def enforces_ratio(self) -> bool:
        """Whether the relay honours the normal-traffic ratio ``r``."""
        return True

    # ------------------------------------------------------------------
    # Kernel-compilation protocol (repro.kernel)
    # ------------------------------------------------------------------

    def kernel_program(self) -> Optional[BehaviorProgram]:
        """This behaviour's closed-form walk, or ``None`` if it has none.

        The base class answers for the *exact* honest type only: an
        unknown subclass inheriting this implementation must never
        silently compile as honest, so anything other than a plain
        ``RelayBehavior`` returns ``None`` unless it overrides this hook
        itself, and the kernel refuses to measure such a relay with a
        :class:`~repro.errors.ConfigurationError`.
        """
        return HONEST_PROGRAM if type(self) is RelayBehavior else None

    def begin_measurement(self, relay: "Relay") -> None:
        """Per-slot setup, called once when a measurement is admitted.

        Runs before the kernel snapshots relay state, so slot-constant
        decisions (e.g. the selective-capacity coin flip) land in the
        compiled base capacity.
        """

    def note_measurement(self, measurement_bytes: float, relay: "Relay") -> None:
        """Observe this second's measurement traffic (before reporting).

        Called with the bytes of measurement traffic the relay forwarded
        in a slot's last walked second (only the last note survives as
        state); behaviours whose background report is derived from
        measurement traffic (the ratio cheater, colluders) record it here.
        """

    def settle_verify_replay(
        self, rng_state: object, cells_forged: int
    ) -> None:
        """Apply the state effects of a kernel-side verification replay.

        The kernel replays echo-cell forgery decisions on a copy of the
        behaviour's RNG; this hook writes back the advanced RNG state and
        the forged-cell count, so the behaviour ends the slot exactly as
        a stateful per-cell walk would have left it.
        """


@dataclass
class Relay:
    """A Tor relay.

    Use :meth:`with_capacity` for the common case where a single intrinsic
    Tor-forwarding capacity is known (e.g. relays sampled from a consensus);
    construct directly to model CPU/link/rate-limit components separately
    (the §6 Internet-experiment targets).
    """

    fingerprint: str
    nickname: str = ""
    host: Host | None = None
    cpu: CpuModel = field(default_factory=CpuModel)
    #: Operator rate limit in bit/s (RelayBandwidthRate); None = unlimited.
    rate_limit: float | None = None
    flags: frozenset[str] = frozenset({"Running", "Valid"})
    behavior: RelayBehavior = field(default_factory=RelayBehavior)
    #: Fractional per-second capacity jitter.
    jitter: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        self.observed_bw = ObservedBandwidth()
        self._bucket: TokenBucket | None = None
        if self.rate_limit is not None:
            self._bucket = TokenBucket(rate=self.rate_limit / 8.0)
        # Forked on first use of ``_rng``: campaign-scale networks create
        # tens of thousands of relays, most never measured in a given run,
        # and each fork seeds a fresh ``random.Random``.
        self._lazy_rng: random.Random | None = None
        #: (bwauth_id, period_index) pairs already measured; the relay only
        #: accepts one measurement per BWAuth per period (paper §4.1).
        self._measured_in: set[tuple[str, int]] = set()

    @property
    def _rng(self) -> random.Random:
        if self._lazy_rng is None:
            self._lazy_rng = fork(self.seed, f"relay-{self.fingerprint}")
        return self._lazy_rng

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def with_capacity(
        cls,
        fingerprint: str,
        capacity_bits: float,
        nickname: str = "",
        flags: frozenset[str] | None = None,
        behavior: RelayBehavior | None = None,
        seed: int = 0,
        jitter: float = 0.02,
    ) -> "Relay":
        """A relay whose intrinsic Tor capacity is ``capacity_bits``.

        The CPU model is made the binding constraint; link capacity is set
        comfortably above it.
        """
        host = Host(
            name=f"host-{fingerprint}",
            link_capacity=capacity_bits * 2.0,
            cpu_cores=4,
        )
        relay = cls(
            fingerprint=fingerprint,
            nickname=nickname or fingerprint[:8],
            host=host,
            cpu=CpuModel(max_forward_bits=capacity_bits),
            flags=flags or frozenset({"Running", "Valid", "Fast"}),
            behavior=behavior or RelayBehavior(),
            seed=seed,
            jitter=jitter,
        )
        return relay

    def set_rate_limit(self, rate_bits: float | None) -> None:
        """Set or clear RelayBandwidthRate (burst = one second of rate).

        The Appendix E.2 experiments approximate relays of varied
        capacities exactly this way.
        """
        self.rate_limit = rate_bits
        self._bucket = (
            TokenBucket(rate=rate_bits / 8.0) if rate_bits is not None else None
        )

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def true_capacity(self) -> float:
        """Ground-truth Tor capacity (bit/s) at the reference socket count.

        Defined as the forwarding rate achievable at the CPU's
        overhead-free socket count, bounded by link and rate limit -- the
        quantity the paper calls *Tor ground truth* (§2).
        """
        # Chained comparisons instead of min([...]): this property is on
        # the analytic campaign path's per-job hot loop, and the list
        # build + min() call dominated its cost. Same minimum, same bits.
        cap = self.cpu.max_forward_bits
        host = self.host
        if host is not None and host.link_capacity < cap:
            cap = host.link_capacity
        rate = self.rate_limit
        if rate is not None and rate < cap:
            cap = rate
        return cap

    def forwarding_capacity(
        self,
        n_measurement_sockets: int = 0,
        n_background_sockets: int = 0,
        being_measured: bool = False,
    ) -> float:
        """Instantaneous forwarding capacity (bit/s) before the rate limit.

        The scheduler caps apply per traffic class: KIST for background
        sockets, the measurement scheduler for measurement sockets; CPU and
        link bound their sum.
        """
        scheduler_cap = 0.0
        if n_background_sockets:
            scheduler_cap += kist_rate_cap(n_background_sockets)
        if n_measurement_sockets:
            scheduler_cap += measurement_rate_cap(n_measurement_sockets)
        caps = [
            self.cpu.effective_capacity(
                n_normal_sockets=n_background_sockets,
                n_measurement_sockets=n_measurement_sockets,
            ),
            scheduler_cap,
        ]
        if self.host is not None:
            caps.append(self.host.link_capacity)
        capacity = min(caps)
        capacity *= self.behavior.capacity_factor(being_measured, self)
        return max(0.0, capacity)

    def _noise(self) -> float:
        return max(0.5, self._rng.gauss(1.0, self.jitter))

    # ------------------------------------------------------------------
    # Kernel compilation hooks (repro.kernel)
    # ------------------------------------------------------------------

    @property
    def bucket(self) -> TokenBucket | None:
        """The operator rate-limit bucket, if configured."""
        return self._bucket

    def draw_noise_series(self, n: int) -> list[float]:
        """Pre-draw ``n`` per-second jitter factors.

        Consumes the relay's RNG stream exactly as ``n`` successive
        :meth:`_noise` calls would, so a walk over the returned series is
        bit-identical to drawing the jitter second by second.
        """
        gauss = self._rng.gauss
        jitter = self.jitter
        return [max(0.5, gauss(1.0, jitter)) for _ in range(n)]

    def settle_measured_walk(
        self,
        total_bytes_per_second: list[float],
        final_bucket_tokens: float | None = None,
    ) -> None:
        """Apply the state effects of an externally executed walk.

        The kernel runs the per-second measurement walk over compiled
        arrays and never touches the relay; this settles the walk's side
        effects: observed-bandwidth history and the token bucket's final
        fill level.
        """
        if self._bucket is not None and final_bucket_tokens is not None:
            self._bucket.tokens = final_bucket_tokens
        for forwarded in total_bytes_per_second:
            self.observed_bw.record_second(forwarded)

    # ------------------------------------------------------------------
    # Measurement admission (paper §4.1)
    # ------------------------------------------------------------------

    def accept_measurement(self, bwauth_id: str, period_index: int) -> bool:
        """Accept a measurement from a BWAuth, once per period."""
        key = (bwauth_id, period_index)
        if key in self._measured_in:
            return False
        self._measured_in.add(key)
        return True

    # ------------------------------------------------------------------
    # Per-second forwarding
    # ------------------------------------------------------------------

    def idle_second(
        self,
        background_demand_bits: float,
        n_background_sockets: int = 20,
        t: int | None = None,
    ) -> float:
        """Forward normal traffic for one second; returns bits forwarded."""
        capacity = self.forwarding_capacity(
            n_background_sockets=n_background_sockets
        )
        if self._bucket is not None:
            capacity = min(capacity, self._bucket.available_second() * 8.0)
        capacity *= self._noise()
        forwarded_bits = min(background_demand_bits, capacity)
        if self._bucket is not None:
            self._bucket.consume_second(forwarded_bits / 8.0)
        self.observed_bw.record_second(forwarded_bits / 8.0, t)
        return forwarded_bits
