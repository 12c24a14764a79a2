"""Tests for deterministic randomness derivation and batched draws.

The ``gauss_block`` oracle compares against :class:`random.Random`
itself. Tier-1 runs a small example budget; ``DIFFERENTIAL_EXAMPLES``
raises it (the ``differential`` CI job runs ten times as many).
"""

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import fork, fork_numpy, gauss_block, seed_from

#: Generated examples per run: the shared differential budget.
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "40"))


def test_seed_from_is_deterministic():
    assert seed_from(42, "label") == seed_from(42, "label")


def test_seed_from_differs_by_label():
    assert seed_from(42, "a") != seed_from(42, "b")


def test_seed_from_differs_by_parent():
    assert seed_from(1, "a") != seed_from(2, "a")


def test_fork_reproducible_streams():
    a, b = fork(7, "x"), fork(7, "x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_fork_independent_streams():
    a, b = fork(7, "x"), fork(7, "y")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_fork_numpy_reproducible():
    a, b = fork_numpy(7, "x"), fork_numpy(7, "x")
    assert (a.random(5) == b.random(5)).all()


def test_fork_numpy_independent():
    a, b = fork_numpy(7, "x"), fork_numpy(7, "y")
    assert not (a.random(5) == b.random(5)).all()


def _loop(rng: random.Random, n: int, mu: float, sigma: float) -> np.ndarray:
    return np.array([rng.gauss(mu, sigma) for _ in range(n)], dtype=np.float64)


def _pair(seed: int, pending: bool) -> tuple[random.Random, random.Random]:
    """Two generators in one state; ``pending`` leaves a sine waiting."""
    reference, batched = random.Random(seed), random.Random(seed)
    if pending:
        reference.gauss()
        batched.gauss()
        assert batched.gauss_next is not None
    return reference, batched


@pytest.mark.parametrize("pending", (False, True), ids=("fresh", "pending"))
@pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 30, 31, 300, 1201))
def test_gauss_block_matches_gauss_loop(n, pending):
    for seed in range(20):
        reference, batched = _pair(seed, pending)
        expected = _loop(reference, n, 0.0, 0.24)
        assert gauss_block(batched, n, 0.0, 0.24).tobytes() == expected.tobytes()
        assert batched.getstate() == reference.getstate()


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    pending=st.booleans(),
    sizes=st.lists(st.integers(min_value=0, max_value=1300), min_size=1,
                   max_size=6),
    mu=st.floats(min_value=-1e3, max_value=1e3),
    sigma=st.floats(min_value=0.0, max_value=1e3),
)
def test_gauss_block_interleaved_streams_match(seed, pending, sizes, mu, sigma):
    """Two streams drawn in alternation, blocks of any size, any offset."""
    streams = [_pair(seed, pending), _pair(seed + 1, not pending)]
    for k, n in enumerate(sizes):
        reference, batched = streams[k % 2]
        expected = _loop(reference, n, mu, sigma)
        assert gauss_block(batched, n, mu, sigma).tobytes() == expected.tobytes()
    for reference, batched in streams:
        assert batched.getstate() == reference.getstate()
        # The streams continue identically after the blocks.
        assert batched.random() == reference.random()
