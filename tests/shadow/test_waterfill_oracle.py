"""Oracle test: ``waterfill`` is byte-identical to the round-by-round loop.

:func:`repro.shadow.flows.waterfill` keeps the active flows' rate as
one water level, sorts their caps once and decrements relay counts as
flows freeze. :func:`tests.oracles.waterfill.reference_waterfill`
recounts everything each round. Their results must be the same bytes,
not merely close: the goldens compare at ``rel=1e-6`` and the property
suite by tolerance, so a reordered freeze subtraction (a
``bincount``-summed one, say) passes both and still moves the seed-0
bench digests.

Hypothesis generates ties, zero, negative, NaN and infinite caps,
zero-capacity relays, relays repeated within one path, and empty
inputs. Tier-1 runs a small example budget; ``DIFFERENTIAL_EXAMPLES``
raises it (the ``differential`` CI job runs ten times as many).
"""

import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shadow.flows import waterfill
from tests.oracles.waterfill import reference_waterfill

#: Examples per run: five per unit of the shared differential budget.
EXAMPLES = 5 * int(os.environ.get("DIFFERENTIAL_EXAMPLES", "40"))

_CAPS = st.one_of(
    st.floats(min_value=0.0, max_value=200.0),
    # Tied caps, including ties with a level's round numbers.
    st.sampled_from([5.0, 10.0, 12.5, 40.0]),
    st.sampled_from([0.0, -0.0, -1.0, 1e-7, math.nan, math.inf, -math.inf]),
)
_CAPACITIES = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.sampled_from([0.0, 10.0, 30.0, 60.0]),
)


@st.composite
def instances(draw):
    n_relays = draw(st.integers(min_value=1, max_value=12))
    n_flows = draw(st.integers(min_value=0, max_value=40))
    # Entries drawn independently, so a path may repeat a relay.
    paths = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_relays - 1),
            min_size=3 * n_flows,
            max_size=3 * n_flows,
        )
    )
    caps = draw(st.lists(_CAPS, min_size=n_flows, max_size=n_flows))
    capacity = draw(
        st.lists(_CAPACITIES, min_size=n_relays, max_size=n_relays)
    )
    return (
        np.array(paths, dtype=np.int64).reshape(n_flows, 3),
        np.array(caps, dtype=np.float64),
        np.array(capacity, dtype=np.float64),
    )


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(instance=instances())
def test_waterfill_matches_reference_bytes(instance):
    path_idx, caps, capacity = instance
    expected = reference_waterfill(path_idx, caps, capacity)
    assert waterfill(path_idx, caps, capacity).tobytes() == expected.tobytes()


def test_waterfill_empty_inputs_match_reference():
    for n_relays in (0, 3):
        path_idx = np.zeros((0, 3), dtype=np.int64)
        caps, capacity = np.zeros(0), np.ones(n_relays)
        expected = reference_waterfill(path_idx, caps, capacity)
        got = waterfill(path_idx, caps, capacity)
        assert got.tobytes() == expected.tobytes() == b""
