"""Deterministic randomness plumbing.

Every stochastic component in the reproduction draws from a
:class:`random.Random` (or numpy generator) derived from an explicit seed,
so experiments are exactly repeatable. ``fork`` derives independent child
streams from a parent seed and a label, which keeps component randomness
decoupled (adding draws in one component does not perturb another).

``gauss_block`` draws ``n`` values of :meth:`random.Random.gauss` at
once, byte for byte and leaving the generator in the same state, for
hot loops that would otherwise call ``gauss`` once per value.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np


def seed_from(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a string ``label``.

    Uses SHA-256 so the derivation is stable across platforms and Python
    versions (unlike ``hash``).
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def fork(parent_seed: int, label: str) -> random.Random:
    """Return a fresh ``random.Random`` seeded from ``(parent_seed, label)``."""
    return random.Random(seed_from(parent_seed, label))


def fork_numpy(parent_seed: int, label: str) -> np.random.Generator:
    """Return a fresh numpy generator seeded from ``(parent_seed, label)``."""
    return np.random.default_rng(seed_from(parent_seed, label))


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, from one bit draw.

    ``getrandbits`` fills its result 32-bit word by word, least
    significant first, from the same Mersenne Twister stream that
    ``random()`` reads two words at a time, so its little-endian bytes
    are the words ``random()`` would have used, in order. Each double is
    CPython's ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, exact in
    float64.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4"
    )
    high = (words[0::2] >> 5).astype(np.float64)
    low = (words[1::2] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def gauss_block(
    rng: random.Random, n: int, mu: float, sigma: float
) -> np.ndarray:
    """``[rng.gauss(mu, sigma) for _ in range(n)]`` as one float64 array.

    The values are the same bytes, and ``rng.getstate()`` afterwards is
    what that loop leaves: a pending ``gauss_next`` is used first, and
    an odd count leaves the last pair's sine pending. The Box-Muller
    transform is CPython's: ``log``, ``cos`` and ``sin`` go through
    :mod:`math` (numpy's SIMD versions need not match libm; ``np.log``
    differs in the last bit for some inputs); ``sqrt``, ``*`` and ``+``
    are correctly rounded either way, so they run on arrays. Slower
    than the loop for a few dozen draws, faster from a few hundred.
    """
    out = np.empty(n)
    start = 0
    if n and rng.gauss_next is not None:
        out[0] = rng.gauss_next
        rng.gauss_next = None
        start = 1
    pairs = (n - start + 1) // 2
    if pairs:
        u = _uniforms(rng, 2 * pairs)
        x2pi = u[0::2] * random.TWOPI
        g2rad = np.sqrt(
            -2.0
            * np.fromiter(
                map(math.log, (1.0 - u[1::2]).tolist()), np.float64, pairs
            )
        )
        normals = np.empty(2 * pairs)
        normals[0::2] = (
            np.fromiter(map(math.cos, x2pi.tolist()), np.float64, pairs)
            * g2rad
        )
        normals[1::2] = (
            np.fromiter(map(math.sin, x2pi.tolist()), np.float64, pairs)
            * g2rad
        )
        if (n - start) % 2:
            rng.gauss_next = float(normals[-1])
        out[start:] = normals[: n - start]
    return mu + out * sigma
