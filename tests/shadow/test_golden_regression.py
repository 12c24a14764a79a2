"""Golden regression: pinned headline numbers for the §7 comparison.

``compare_systems`` feeds the paper's Figure 8/9 claims; a refactor of
the flow kernel, the waterfiller, or the measurement stack that shifts
these numbers should fail loudly here, not drift silently. The pinned
values were produced by the historical per-second walk and are
asserted against the flow kernel *and* re-checked with that walk
(:func:`tests.oracles.shadow_walk.reference_walk`) patched in -- so
this file simultaneously pins the paper-comparison results and proves
kernel/walk equality at the whole-pipeline level.

Tolerances are tight (rel=1e-6): the simulation is chaotic at the
trajectory level, so any semantic change produces wildly different
numbers, while a faithful refactor reproduces these exactly. Because
the trajectory also depends on the platform's libm (``math.exp`` /
``pow``), the pins are guarded by a toolchain canary: on a libm whose
last-ulp rounding differs from the one that produced the golden
values, the pinned tests skip instead of failing spuriously (the
oracle and property suites still run everywhere).
"""

import math
import statistics

import pytest

from repro.api import run_scenario
from repro.shadow.config import ShadowConfig
from repro.shadow.experiment import compare_systems
from repro.shadow.simulator import NetworkSimulator
from tests.oracles.shadow_walk import reference_walk

#: repr() of libm probes on the toolchain that produced the goldens.
_LIBM_CANARY = {
    "exp": (0.6180339887498949, "1.8552769586143047"),
    "pow": ((0.9246056361944477, 0.375), "0.9710323555510227"),
}

_libm_matches = (
    repr(math.exp(_LIBM_CANARY["exp"][0])) == _LIBM_CANARY["exp"][1]
    and repr(_LIBM_CANARY["pow"][0][0] ** _LIBM_CANARY["pow"][0][1])
    == _LIBM_CANARY["pow"][1]
)

pinned = pytest.mark.skipif(
    not _libm_matches,
    reason="libm rounding differs from the toolchain that produced the "
    "golden values; the chaotic trajectory would diverge without any "
    "real regression",
)

_CONFIG = dict(
    n_relays=24,
    n_markov_clients=12,
    n_benchmark_clients=4,
    sim_seconds=60,
    warmup_seconds=16,
    seed=11,
    circuit_lifetime_seconds=60,
)

#: Headline numbers for ``compare_systems(ShadowConfig(**_CONFIG),
#: loads=(1.0,), seed=11)``.
GOLDEN = {
    "network_weight_error_flashflow": 0.017662397597883822,
    "network_weight_error_torflow": 0.3054779419762693,
    "network_capacity_error_flashflow": 0.16760216185033616,
    "median_relay_capacity_error": 0.17273480584641898,
    "torflow_median_throughput": 345589186.7184195,
    "flashflow_median_throughput": 345589186.7184196,
    "torflow_ttlb_1m_median": 14.147756777905016,
    "flashflow_ttlb_1m_median": 13.789612753214438,
    "torflow_ttfb_median": 1.172301192750302,
    "flashflow_ttfb_median": 1.0422801464939622,
    "transfers_completed_each": 4,
    "transfers_failed_each": 0,
}


def _headline(result) -> dict:
    out = {
        "network_weight_error_flashflow": result.network_weight_error(
            "flashflow"
        ),
        "network_weight_error_torflow": result.network_weight_error("torflow"),
        "network_capacity_error_flashflow": (
            result.flashflow_network_capacity_error()
        ),
        "median_relay_capacity_error": statistics.median(
            result.flashflow_capacity_errors().values()
        ),
    }
    for system in ("torflow", "flashflow"):
        run = result.run_for(system, 1.0)
        out[f"{system}_median_throughput"] = run.metrics.median_throughput()
        out[f"{system}_ttlb_1m_median"] = run.ttlb_stats(1024 * 1024)["median"]
        out[f"{system}_ttfb_median"] = run.ttfb_stats()["median"]
    return out


@pinned
@pytest.mark.parametrize("walk", ("kernel", "reference"))
def test_compare_systems_headline_numbers_pinned(walk, monkeypatch):
    if walk == "reference":
        monkeypatch.setattr(NetworkSimulator, "run", reference_walk)
    result = compare_systems(ShadowConfig(**_CONFIG), loads=(1.0,), seed=11)
    headline = _headline(result)
    for key, expected in GOLDEN.items():
        if key.startswith("transfers_"):
            continue
        assert headline[key] == pytest.approx(expected, rel=1e-6), key
    for system in ("torflow", "flashflow"):
        metrics = result.run_for(system, 1.0).metrics
        assert (
            metrics.transfers_completed() == GOLDEN["transfers_completed_each"]
        ), system
        assert metrics.transfers_failed() == GOLDEN["transfers_failed_each"], (
            system
        )
    # The qualitative paper claim the figures hinge on.
    assert (
        headline["network_weight_error_flashflow"]
        < headline["network_weight_error_torflow"] / 2
    )


#: Pinned totals for the canned ``shadow-measurement`` scenario
#: (``n_relays=6``, registry defaults): the measurement phase the §7
#: pipeline runs behind ``flashflow_weights_for``.
GOLDEN_SCENARIO = {
    "estimates_sum": 168291862.20785272,
    "n_estimates": 6,
    "slots_elapsed": 2,
    "measurements_run": 7,
    "median_error_vs_truth": 0.18602311645466352,
}


@pinned
def test_shadow_measurement_scenario_pinned():
    """The canned scenario's estimates are pinned."""
    report = run_scenario("shadow-measurement", n_relays=6)
    assert len(report.estimates) == GOLDEN_SCENARIO["n_estimates"]
    assert sum(report.estimates.values()) == pytest.approx(
        GOLDEN_SCENARIO["estimates_sum"], rel=1e-6
    )
    assert report.slots_elapsed == GOLDEN_SCENARIO["slots_elapsed"]
    assert report.measurements_run == GOLDEN_SCENARIO["measurements_run"]
    assert report.median_error_vs_truth() == pytest.approx(
        GOLDEN_SCENARIO["median_error_vs_truth"], rel=1e-6
    )
