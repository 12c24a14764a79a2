"""Authenticated coordination protocol (paper §4.1).

"A BWAuth initiates a single measurement by creating an authenticated
connection to each measurer and to the target relay. Authentication is
performed using the public key of the BWAuth, which we assume is
distributed in the Tor network consensus. The BWAuth sends the target the
public keys of each measurer involved in the measurement."

Identities sign with Schnorr signatures over the RFC 3526 2048-bit safe
prime (a real asymmetric scheme, dependency-free). Messages carry a type,
sender, monotonically increasing nonce (replay protection), a payload dict,
and a signature over the canonical serialisation.
"""

from __future__ import annotations

import enum
import hashlib
import json
import secrets
from dataclasses import dataclass, field

from repro.errors import AuthenticationError, ProtocolError
from repro.tornet.relaycrypto import MODP_2048_PRIME, MODP_GENERATOR

#: Order of the quadratic-residue subgroup of the safe-prime group.
GROUP_ORDER = (MODP_2048_PRIME - 1) // 2
#: Generator of the subgroup (g^2 is always a quadratic residue).
SUBGROUP_GENERATOR = pow(MODP_GENERATOR, 2, MODP_2048_PRIME)


def _hash_to_int(*parts: bytes) -> int:
    digest = hashlib.sha256(b"||".join(parts)).digest()
    return int.from_bytes(digest, "big") % GROUP_ORDER


class SigningIdentity:
    """A Schnorr keypair used by BWAuths and measurers."""

    def __init__(self, name: str, private: int | None = None):
        self.name = name
        if private is None:
            # ff-lint: allow[FF003] reason=a private key drawn from a seeded stream is known to anyone who knows the seed; key material must come from OS entropy
            private = secrets.randbelow(GROUP_ORDER - 1) + 1
        self._private = private
        self.public = pow(SUBGROUP_GENERATOR, self._private, MODP_2048_PRIME)

    def sign(self, message: bytes) -> tuple[int, int]:
        """Produce a Schnorr signature (e, s) over ``message``."""
        # ff-lint: allow[FF003] reason=a predictable Schnorr nonce k gives away the private key from one signature (x = (s - k) / e); it must come from OS entropy
        k = secrets.randbelow(GROUP_ORDER - 1) + 1
        r = pow(SUBGROUP_GENERATOR, k, MODP_2048_PRIME)
        e = _hash_to_int(r.to_bytes(256, "big"), message)
        s = (k + self._private * e) % GROUP_ORDER
        return (e, s)

    @staticmethod
    def verify(public: int, message: bytes, signature: tuple[int, int]) -> bool:
        """Check a Schnorr signature against a public key."""
        e, s = signature
        if not (0 <= e < GROUP_ORDER and 0 <= s < GROUP_ORDER):
            return False
        # g^s = r * y^e  =>  r = g^s * y^-e
        gv = pow(SUBGROUP_GENERATOR, s, MODP_2048_PRIME)
        yv = pow(public, GROUP_ORDER - e, MODP_2048_PRIME)
        r = (gv * yv) % MODP_2048_PRIME
        return _hash_to_int(r.to_bytes(256, "big"), message) == e


class MessageType(enum.Enum):
    """Coordination message types in a measurement's lifecycle."""

    #: BWAuth -> relay: announce measurement, list measurer public keys.
    MEASUREMENT_ANNOUNCE = "announce"
    #: BWAuth -> measurer: capacity allocation and socket share.
    MEASURER_INSTRUCT = "instruct"
    #: Relay -> BWAuth: accept (or refuse -- once per period) the measurement.
    RELAY_ACCEPT = "accept"
    RELAY_REFUSE = "refuse"
    #: Measurer -> BWAuth: per-second measurement bytes x_i^j.
    MEASURER_REPORT = "measurer-report"
    #: Relay -> BWAuth: per-second normal-traffic bytes y_j.
    RELAY_REPORT = "relay-report"
    #: Measurer -> BWAuth: a sampled echo cell failed its content check.
    VERIFY_FAILURE = "verify-failure"
    #: BWAuth -> all: measurement over (normal end or early abort).
    MEASUREMENT_END = "end"


@dataclass
class ProtocolMessage:
    """One signed coordination message."""

    msg_type: MessageType
    sender: str
    nonce: int
    payload: dict
    signature: tuple[int, int] | None = None

    def canonical_bytes(self) -> bytes:
        body = {
            "type": self.msg_type.value,
            "sender": self.sender,
            "nonce": self.nonce,
            "payload": self.payload,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()

    def signed_by(self, identity: SigningIdentity) -> "ProtocolMessage":
        if identity.name != self.sender:
            raise ProtocolError("identity does not match message sender")
        self.signature = identity.sign(self.canonical_bytes())
        return self

    def verify(self, public_key: int) -> None:
        if self.signature is None:
            raise AuthenticationError("message is unsigned")
        if not SigningIdentity.verify(
            public_key, self.canonical_bytes(), self.signature
        ):
            raise AuthenticationError(
                f"bad signature on {self.msg_type.value} from {self.sender}"
            )


class MessageChannel:
    """An authenticated, replay-protected message stream from one sender."""

    def __init__(self, sender: str, public_key: int):
        self.sender = sender
        self.public_key = public_key
        self._last_nonce = -1

    def receive(self, message: ProtocolMessage) -> ProtocolMessage:
        """Verify signature, sender, and nonce monotonicity."""
        if message.sender != self.sender:
            raise AuthenticationError(
                f"message from {message.sender!r} on {self.sender!r} channel"
            )
        message.verify(self.public_key)
        if message.nonce <= self._last_nonce:
            raise AuthenticationError(
                f"replayed or out-of-order nonce {message.nonce}"
            )
        self._last_nonce = message.nonce
        return message
