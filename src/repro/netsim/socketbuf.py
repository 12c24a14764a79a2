"""Kernel socket-buffer configurations (paper Appendix D).

Linux sizes TCP socket buffers automatically up to per-boot maxima chosen
from available memory; on every host the authors used, those maxima were
4 MiB (read) and 6 MiB (write). Their "tuned" configuration raises both to
64 MiB. The effective window a single connection can sustain is bounded by
``min(sender write buffer, receiver read buffer)``, and throughput by
``window / RTT`` -- the bandwidth-delay-product limit the paper's Figure 12
explores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MIB


@dataclass(frozen=True)
class KernelConfig:
    """TCP-relevant kernel parameters of a host.

    ``read_buf_max`` / ``write_buf_max`` are the maximum socket buffer sizes
    in bytes. The paper's two configurations are exposed as the
    :meth:`default` and :meth:`tuned` constructors.
    """

    read_buf_max: int
    write_buf_max: int
    name: str = "custom"

    @classmethod
    def default(cls) -> "KernelConfig":
        """The stock configuration on all paper hosts: 4 MiB / 6 MiB.

        The config is frozen, so every host shares one instance.
        """
        return _DEFAULT

    @classmethod
    def tuned(cls) -> "KernelConfig":
        """The tuned configuration: 64 MiB for both directions."""
        return cls(read_buf_max=64 * MIB, write_buf_max=64 * MIB, name="tuned")

    def window_limit_bytes(self, peer: "KernelConfig") -> int:
        """Max in-flight bytes from ``self`` (sender) to ``peer`` (receiver)."""
        return min(self.write_buf_max, peer.read_buf_max)

    def window_rate_cap(self, peer: "KernelConfig", rtt_seconds: float) -> float:
        """BDP-limited throughput (bit/s) from ``self`` to ``peer``.

        A connection cannot move more than one window per round trip, so
        throughput is capped at ``window * 8 / RTT``.
        """
        if rtt_seconds <= 0:
            return float("inf")
        return self.window_limit_bytes(peer) * 8.0 / rtt_seconds


_DEFAULT = KernelConfig(read_buf_max=4 * MIB, write_buf_max=6 * MIB, name="default")
