"""Adversary-fraction sweeps against the ``1/(1-r)`` bound (paper §5).

:func:`inflation_sweep` runs the ``inflation-sweep`` registry scenario
across a grid of behaviours x adversary fractions and reduces each run
to one :class:`SweepPoint`: the worst and mean per-adversary inflation
(``estimate/truth`` from ``report.adversary_inflation()``), the
theoretical ``1/(1-r)`` bound, and TorFlow's inflation under the same
lie for contrast (self-reported bandwidth scales TorFlow's weight
directly -- :func:`repro.attacks.analysis.torflow_self_report_attack`
-- so the identical attack that FlashFlow caps at ~1.33x inflates
TorFlow by the full claimed factor).

The sweep is what the ``attacks-smoke`` CI job drives; tests assert
``within_bound`` holds at every grid point.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.attacks.analysis import inflation_bound, torflow_self_report_attack
from repro.core.params import FlashFlowParams

#: Small multiplicative slack on the bound: measurement noise (env and
#: socket jitter) moves honest estimates a few percent around truth, so
#: an adversary at exactly the bound can land slightly above it.
DEFAULT_SLACK = 1.08

#: The claimed-capacity factor used for the TorFlow contrast column: a
#: relay (or clique) self-reporting 100x its true bandwidth.
TORFLOW_CLAIM_FACTOR = 100.0


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of the inflation sweep."""

    behavior: str
    adversary_fraction: float
    n_adversaries: int
    #: Worst-case estimate/truth across the run's adversarial relays.
    max_inflation: float
    mean_inflation: float
    #: The §5 bound 1/(1-r) for the run's ratio.
    bound: float
    #: ``max_inflation <= bound * slack``.
    within_bound: bool
    #: What the same lie achieves against TorFlow's self-report scaling.
    torflow_inflation: float


def inflation_sweep(
    behaviors: tuple[str, ...] = ("traffic-liar", "ratio-cheater", "collusion"),
    fractions: tuple[float, ...] = (0.25, 0.5),
    n_relays: int = 16,
    seed: int = 13,
    slack: float = DEFAULT_SLACK,
    execution=None,
    **overrides,
) -> list[SweepPoint]:
    """Sweep adversary behaviours x fractions; one point per run.

    Extra keyword arguments are forwarded to the ``inflation-sweep``
    scenario factory (e.g. ``periods=2``).
    """
    from repro.api.scenarios import run_scenario

    params = overrides.get("params") or FlashFlowParams()
    bound = inflation_bound(params.ratio)
    points: list[SweepPoint] = []
    for behavior in behaviors:
        for fraction in fractions:
            report = run_scenario(
                "inflation-sweep",
                execution=execution,
                n_relays=n_relays,
                seed=seed,
                behavior=behavior,
                adversary_fraction=fraction,
                **overrides,
            )
            inflations = report.adversary_inflation()
            if not inflations:
                raise ValueError(
                    f"sweep point {behavior!r} @ {fraction} assigned no "
                    "adversaries; raise n_relays or the fraction"
                )
            worst = max(inflations.values())
            points.append(
                SweepPoint(
                    behavior=behavior,
                    adversary_fraction=fraction,
                    n_adversaries=len(inflations),
                    max_inflation=worst,
                    mean_inflation=statistics.fmean(inflations.values()),
                    bound=bound,
                    within_bound=worst <= bound * slack,
                    torflow_inflation=torflow_self_report_attack(
                        1.0, TORFLOW_CLAIM_FACTOR
                    ),
                )
            )
    return points
