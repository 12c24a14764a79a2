"""Bandwidth files: the BWAuth's output (paper §7).

A bandwidth file carries one line per measured relay with its capacity
estimate and derived consensus weight, plus a small header. The format is
modelled on Tor's bandwidth-file spec (key=value pairs, one relay per
line) so the files are human-readable and diffable:

    version=1.0 generator=flashflow timestamp=1719500000
    node_id=relay00001 bw=12500000 capacity_bps=100000000 measured_at=100
    ...
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BandwidthLine:
    """One relay's entry."""

    fingerprint: str
    #: Consensus weight (dimensionless; Tor convention: bytes/sec scale).
    bw: float
    #: Capacity estimate in bit/s (FlashFlow provides true capacity values,
    #: one of its advantages over TorFlow -- Table 2 "Capacity Values").
    capacity_bps: float | None = None
    measured_at: int = 0

    def serialize(self) -> str:
        parts = [f"node_id={self.fingerprint}", f"bw={self.bw:.0f}"]
        if self.capacity_bps is not None:
            parts.append(f"capacity_bps={self.capacity_bps:.0f}")
        parts.append(f"measured_at={self.measured_at}")
        return " ".join(parts)

    @classmethod
    def parse(cls, line: str) -> "BandwidthLine":
        parts = line.split()
        fields = {}
        for part in parts:
            key, sep, value = part.partition("=")
            if not sep:
                raise ConfigurationError(f"malformed bandwidth line: {line!r}")
            fields[key] = value
        # Checked after the loop, so a part without "=" anywhere in the
        # line is reported as malformed before any duplicate key.
        if len(fields) != len(parts):
            raise ConfigurationError(
                f"duplicate key in bandwidth line: {line!r}"
            )
        if "node_id" not in fields or "bw" not in fields:
            raise ConfigurationError(f"malformed bandwidth line: {line!r}")
        try:
            return cls(
                fingerprint=fields["node_id"],
                bw=float(fields["bw"]),
                capacity_bps=(
                    float(fields["capacity_bps"])
                    if "capacity_bps" in fields
                    else None
                ),
                measured_at=int(fields.get("measured_at", 0)),
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed bandwidth line: {line!r} ({exc})"
            ) from None


@dataclass
class BandwidthFile:
    """A complete bandwidth file."""

    timestamp: int
    generator: str = "flashflow"
    version: str = "1.0"
    lines: dict[str, BandwidthLine] = field(default_factory=dict)

    def add(self, line: BandwidthLine) -> None:
        self.lines[line.fingerprint] = line

    def __len__(self) -> int:
        return len(self.lines)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.lines

    def weights(self) -> dict[str, float]:
        return {fp: line.bw for fp, line in self.lines.items()}

    def capacities(self) -> dict[str, float]:
        return {
            fp: line.capacity_bps
            for fp, line in self.lines.items()
            if line.capacity_bps is not None
        }

    def serialize(self) -> str:
        header = (
            f"version={self.version} generator={self.generator} "
            f"timestamp={self.timestamp}"
        )
        body = "\n".join(
            self.lines[fp].serialize() for fp in sorted(self.lines)
        )
        return header + ("\n" + body if body else "") + "\n"

    @classmethod
    def parse(cls, text: str) -> "BandwidthFile":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise ConfigurationError("empty bandwidth file")
        header = dict(
            part.split("=", 1) for part in rows[0].split() if "=" in part
        )
        if "timestamp" not in header:
            raise ConfigurationError("bandwidth file missing timestamp")
        try:
            timestamp = int(header["timestamp"])
        except ValueError:
            raise ConfigurationError(
                f"bandwidth file timestamp {header['timestamp']!r} "
                f"is not an integer"
            ) from None
        bwfile = cls(
            timestamp=timestamp,
            generator=header.get("generator", "unknown"),
            version=header.get("version", "1.0"),
        )
        for row in rows[1:]:
            line = BandwidthLine.parse(row)
            if line.fingerprint in bwfile.lines:
                # Silent last-write-wins would let a corrupt (or tampered)
                # file drop relays without a trace; daemons republishing
                # parsed files must round-trip exactly.
                raise ConfigurationError(
                    f"duplicate fingerprint {line.fingerprint!r} "
                    f"in bandwidth file"
                )
            bwfile.add(line)
        return bwfile

    @classmethod
    def from_estimates(
        cls, estimates: dict[str, float], timestamp: int = 0,
        generator: str = "flashflow",
    ) -> "BandwidthFile":
        """Build a file where weights are the capacity estimates themselves.

        FlashFlow's weights are proportional to measured capacity; Tor
        convention expresses bw in KiB/s-ish units, but only relative
        weight matters for load balancing, so we keep bit/s.
        """
        bwfile = cls(timestamp=timestamp, generator=generator)
        for fp, capacity in estimates.items():
            bwfile.add(
                BandwidthLine(
                    fingerprint=fp,
                    bw=capacity,
                    capacity_bps=capacity,
                    measured_at=timestamp,
                )
            )
        return bwfile
