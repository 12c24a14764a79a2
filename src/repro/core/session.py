"""Authenticated measurement sessions (paper §4.1 setup).

Drives the signed coordination message flow around a measurement:

1. the BWAuth ANNOUNCEs the measurement to the target, listing the
   participating measurers' public keys;
2. the relay ACCEPTs (or REFUSEs -- one measurement per BWAuth per
   period) over the authenticated channel;
3. the BWAuth INSTRUCTs each measurer with its allocation a_i and socket
   share;
4. per-second MEASURER_REPORT / RELAY_REPORT messages carry x_i^j / y_j;
5. MEASUREMENT_END closes the session (normally or on a verification
   failure).

Every message is Schnorr-signed and replay-protected; the session
records the transcript so tests (and audits) can replay and verify it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.core.allocation import MeasurerAssignment, total_allocated
from repro.core.engine import (
    MeasurementEngine,
    MeasurementOutcome,
    MeasurementSpec,
    default_engine,
    socket_share_for,
)
from repro.core.params import FlashFlowParams
from repro.core.messages import (
    MessageChannel,
    MessageType,
    ProtocolMessage,
    SigningIdentity,
)
from repro.errors import AuthenticationError, ProtocolError


@dataclass
class SessionTranscript:
    """The ordered, signed message log of one measurement session."""

    messages: list[ProtocolMessage] = field(default_factory=list)

    def append(self, message: ProtocolMessage) -> None:
        self.messages.append(message)

    def of_type(self, msg_type: MessageType) -> list[ProtocolMessage]:
        return [m for m in self.messages if m.msg_type == msg_type]

    def verify_all(self, keys: dict[str, int]) -> None:
        """Re-verify every signature against the senders' public keys."""
        channels = {
            name: MessageChannel(name, public) for name, public in keys.items()
        }
        for message in self.messages:
            if message.sender not in channels:
                raise AuthenticationError(
                    f"unknown sender {message.sender!r} in transcript"
                )
            channels[message.sender].receive(message)


class MeasurementSession:
    """One BWAuth-coordinated, fully authenticated measurement session."""

    def __init__(
        self,
        bwauth: SigningIdentity,
        measurer_identities: dict[str, SigningIdentity],
        relay_identity: SigningIdentity,
        period_index: int = 0,
    ):
        self.bwauth = bwauth
        self.measurers = measurer_identities
        self.relay = relay_identity
        self.period_index = period_index
        self.transcript = SessionTranscript()
        self._nonces = itertools.count(1)
        self._accepted = False
        self._ended = False

    # ------------------------------------------------------------------
    # Message helpers
    # ------------------------------------------------------------------

    def _send(
        self, identity: SigningIdentity, msg_type: MessageType, payload: dict
    ) -> ProtocolMessage:
        message = ProtocolMessage(
            msg_type=msg_type,
            sender=identity.name,
            nonce=next(self._nonces),
            payload=payload,
        ).signed_by(identity)
        self.transcript.append(message)
        return message

    # ------------------------------------------------------------------
    # Lifecycle (paper §4.1)
    # ------------------------------------------------------------------

    def announce(self) -> ProtocolMessage:
        """BWAuth -> relay: the measurement and its measurers' keys."""
        if self._accepted:
            raise ProtocolError("measurement already announced and accepted")
        return self._send(
            self.bwauth,
            MessageType.MEASUREMENT_ANNOUNCE,
            {
                "period": self.period_index,
                "measurer_keys": {
                    name: str(identity.public)
                    for name, identity in self.measurers.items()
                },
            },
        )

    def relay_accept(self, accept: bool = True) -> ProtocolMessage:
        """Relay -> BWAuth: admit or refuse the measurement."""
        message = self._send(
            self.relay,
            MessageType.RELAY_ACCEPT if accept else MessageType.RELAY_REFUSE,
            {"period": self.period_index},
        )
        self._accepted = accept
        return message

    def instruct(
        self, assignments: list[MeasurerAssignment], socket_share: int
    ) -> list[ProtocolMessage]:
        """BWAuth -> each participating measurer: allocation + sockets."""
        if not self._accepted:
            raise ProtocolError("relay has not accepted the measurement")
        messages = []
        for assignment in assignments:
            if not assignment.participates:
                continue
            name = assignment.measurer.name
            if name not in self.measurers:
                raise ProtocolError(f"measurer {name!r} has no identity")
            messages.append(
                self._send(
                    self.bwauth,
                    MessageType.MEASURER_INSTRUCT,
                    {
                        "measurer": name,
                        "allocation_bits": assignment.allocated,
                        "sockets": socket_share,
                    },
                )
            )
        return messages

    def record_second(
        self, second: int, measurer_bytes: dict[str, float],
        relay_reported_bytes: float,
    ) -> None:
        """Per-second signed reports from measurers and the relay."""
        if not self._accepted or self._ended:
            raise ProtocolError("session is not in the measuring state")
        for name, x_bytes in measurer_bytes.items():
            self._send(
                self.measurers[name],
                MessageType.MEASURER_REPORT,
                {"second": second, "bytes": x_bytes},
            )
        self._send(
            self.relay,
            MessageType.RELAY_REPORT,
            {"second": second, "bytes": relay_reported_bytes},
        )

    def end(self, outcome: MeasurementOutcome) -> ProtocolMessage:
        """BWAuth -> all: close the session."""
        if self._ended:
            raise ProtocolError("session already ended")
        self._ended = True
        return self._send(
            self.bwauth,
            MessageType.MEASUREMENT_END,
            {
                "failed": outcome.failed,
                "reason": outcome.failure_reason or "",
                "estimate_bits": outcome.estimate,
                "seconds": outcome.duration,
            },
        )

    # ------------------------------------------------------------------
    # Engine-driven execution (paper §4.1, end to end)
    # ------------------------------------------------------------------

    def run_measurement(
        self,
        spec: MeasurementSpec,
        engine: MeasurementEngine | None = None,
    ) -> MeasurementOutcome:
        """Run one measurement with full protocol choreography.

        Drives the signed message flow (ANNOUNCE / ACCEPT / INSTRUCT /
        per-second reports / END) around an engine execution: after the
        walk, the engine replays each second's per-measurer received
        bytes and the relay's report into this session's transcript, so
        the result is a complete, verifiable log of the measurement that
        produced the returned outcome.
        """
        engine = engine or default_engine()
        params = spec.params or engine.params or FlashFlowParams()
        target = spec.target

        self.announce()
        accepted = not spec.enforce_admission or target.accept_measurement(
            spec.bwauth_id, spec.period_index
        )
        self.relay_accept(accepted)
        if not accepted:
            outcome = MeasurementOutcome(
                estimate=0.0,
                total_allocated=total_allocated(list(spec.assignments)),
                failed=True,
                failure_reason="relay refused: already measured this period",
            )
            self.end(outcome)
            return outcome

        active = [a for a in spec.assignments if a.participates]
        if active:
            self.instruct(
                list(spec.assignments), socket_share_for(params, len(active))
            )
        # Admission was already negotiated over this session's channel.
        outcome = engine.run(
            replace(spec, enforce_admission=False, session=self)
        )
        self.end(outcome)
        return outcome

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def public_keys(self) -> dict[str, int]:
        keys = {self.bwauth.name: self.bwauth.public,
                self.relay.name: self.relay.public}
        keys.update(
            {name: identity.public for name, identity in self.measurers.items()}
        )
        return keys

    def verify_transcript(self) -> None:
        """Check every signature and nonce in order (audit path)."""
        self.transcript.verify_all(self.public_keys())
