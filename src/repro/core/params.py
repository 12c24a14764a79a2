"""FlashFlow protocol parameters (paper §6.1, Appendix E).

The paper derives its defaults experimentally:

- ``s`` = 160 measurement sockets across the team (Appendix E.1: the
  count at which the slowest host stops improving),
- ``m`` = 2.25 measurer-capacity multiplier (Appendix E.2: the smallest
  multiplier that avoids results below 80% of ground truth),
- ``t`` = 30 s measurement slots with the median per-second throughput as
  the result (Appendix E.3),
- ``eps1`` = 0.20, ``eps2`` = 0.05 error bounds (Appendix E.5),
- ``r`` = 0.25 background-traffic ratio (§6.2: bounds malicious inflation
  to 1/(1-r) = 1.33 while letting most relays keep serving clients),
- ``p_check`` = 1e-5 echo-cell verification probability (§4.1),
- ``period`` = 24 h measurement period (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, _is_finite_number, _is_int
from repro.units import DAY, mbit


@dataclass(frozen=True)
class FlashFlowParams:
    """All FlashFlow parameters, with paper defaults."""

    #: Total TCP measurement sockets across all measurers (Appendix E.1).
    n_sockets: int = 160
    #: Measurer-capacity multiplier m (Appendix E.2).
    multiplier: float = 2.25
    #: Measurement slot duration t, seconds (Appendix E.3).
    slot_seconds: int = 30
    #: Lower error bound eps1 (estimates above (1-eps1)x, Appendix E.5).
    epsilon1: float = 0.20
    #: Upper error bound eps2 (estimates below (1+eps2)x).
    epsilon2: float = 0.05
    #: Maximum normal-traffic ratio r during measurement (§4.1/§6.2).
    ratio: float = 0.25
    #: Per-cell verification sampling probability p (§4.1).
    p_check: float = 1e-5
    #: Measurement period length, seconds (§4.3).
    period_seconds: int = DAY
    #: Capacity estimate seed for never-seen relays: the 75th-percentile
    #: measured capacity over the past month (§4.2); the paper's July 2019
    #: value was 51 Mbit/s.
    new_relay_seed: float = mbit(51)

    def __post_init__(self) -> None:
        # Types first, naming the field: a bool or fractional count, or a
        # NaN/inf float, passes the range checks below (NaN compares
        # false both ways) and fails deep in the kernel or skews every
        # estimate instead.
        for name in ("n_sockets", "slot_seconds", "period_seconds"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in (
            "multiplier", "epsilon1", "epsilon2", "ratio", "p_check",
            "new_relay_seed",
        ):
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.n_sockets <= 0:
            raise ConfigurationError("need at least one measurement socket")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier m must be >= 1")
        if self.slot_seconds <= 0:
            raise ConfigurationError("slot duration must be positive")
        if not 0 <= self.epsilon1 < 1:
            raise ConfigurationError("eps1 must be in [0, 1)")
        if self.epsilon2 < 0:
            raise ConfigurationError("eps2 must be >= 0")
        if not 0 <= self.ratio < 1:
            raise ConfigurationError("ratio r must be in [0, 1)")
        if not 0 <= self.p_check <= 1:
            raise ConfigurationError("p_check must be a probability")
        if self.period_seconds < self.slot_seconds:
            raise ConfigurationError("period must hold at least one slot")
        if self.new_relay_seed <= 0:
            raise ConfigurationError(
                f"new_relay_seed must be > 0 bit/s, got {self.new_relay_seed!r}"
            )

    @property
    def allocation_factor(self) -> float:
        """f = m (1 + eps2) / (1 - eps1) (paper §4.2).

        With the paper defaults this is 2.25 * 1.05 / 0.80 = 2.953; §7
        quotes 2.84 after rounding intermediate values, so both are within
        the protocol's tolerance. We use the exact formula.
        """
        return self.multiplier * (1.0 + self.epsilon2) / (1.0 - self.epsilon1)

    @property
    def inflation_bound(self) -> float:
        """Maximum estimate inflation for a lying relay: 1/(1-r) (§5)."""
        return 1.0 / (1.0 - self.ratio)

    @property
    def slots_per_period(self) -> int:
        return self.period_seconds // self.slot_seconds

    def acceptance_threshold(self, total_allocated: float) -> float:
        """Accept estimate z if z < sum(a_i) (1 - eps1) / m (paper §4.2)."""
        return total_allocated * (1.0 - self.epsilon1) / self.multiplier

    def accuracy_interval(self, true_capacity: float) -> tuple[float, float]:
        """The ((1-eps1)x, (1+eps2)x) interval an accurate estimate lands in."""
        return (
            (1.0 - self.epsilon1) * true_capacity,
            (1.0 + self.epsilon2) * true_capacity,
        )
