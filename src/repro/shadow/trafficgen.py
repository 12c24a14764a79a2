"""Markov-model background traffic (paper §7).

The paper's 397 TGen clients replay Markov models learned from live Tor
traffic [23], representing ~40k users in the 5%-scale network. At flow
granularity we model each TGen client as a *load generator*: it keeps a
few circuits open (rebuilt every few minutes through weighted path
selection) and offers a time-varying traffic demand on each, following a
lognormal AR(1) process -- heavy-tailed instantaneous demand with
session-scale autocorrelation, the two properties of the Markov-model
traffic that matter for load on relays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.rng import gauss_block
from repro.tornet.pathsel import PathSelector


@dataclass
class BackgroundCircuit:
    """One background circuit and its demand process state."""

    path: tuple[str, str, str]
    rtt: float
    built_at: int
    #: Current AR(1) state (log-domain).
    log_state: float = 0.0


class MarkovLoadGenerator:
    """One TGen-like background client.

    ``base_demand`` is the client's mean offered end-to-end rate (bit/s),
    split across its circuits. Demand at each step multiplies the mean by
    ``exp(x_t)`` with ``x_t = rho * x_{t-1} + noise`` -- an AR(1) in log
    space whose stationary distribution is lognormal.
    """

    def __init__(
        self,
        name: str,
        base_demand: float,
        selector: PathSelector,
        rtt_sampler,
        circuit_lifetime: int = 300,
        n_circuits: int = 3,
        rho: float = 0.90,
        sigma: float = 0.24,
        seed: int = 0,
    ):
        self.name = name
        self.base_demand = base_demand
        self.circuit_lifetime = circuit_lifetime
        self.n_circuits = n_circuits
        self.rho = rho
        self.sigma = sigma
        self._selector = selector
        self._rtt_sampler = rtt_sampler
        self._rng = random.Random(seed)
        self.circuits: list[BackgroundCircuit] = []

    def _stationary_sigma(self) -> float:
        return self.sigma / math.sqrt(1.0 - self.rho ** 2)

    def _build_circuit(self, now: int) -> BackgroundCircuit:
        path = self._selector.select_path(self._rng)
        return BackgroundCircuit(
            path=path,
            rtt=self._rtt_sampler(self._rng),
            built_at=now,
            log_state=self._rng.gauss(0.0, self._stationary_sigma()),
        )

    def refresh_circuits(self, now: int) -> None:
        """Rotate expired circuits and top up to ``n_circuits``."""
        self.circuits = [
            c
            for c in self.circuits
            if now - c.built_at < self.circuit_lifetime
        ]
        while len(self.circuits) < self.n_circuits:
            self.circuits.append(self._build_circuit(now))

    def demand_constants(self) -> tuple[float, float]:
        """(per-circuit mean demand, lognormal mean correction).

        The correction keeps the *average* offered load at
        ``base_demand`` regardless of sigma. Constant while the circuit
        set is unchanged, which is what lets the flow kernel hoist both
        out of the per-second loop.
        """
        correction = math.exp(-(self._stationary_sigma() ** 2) / 2.0)
        per_circuit = self.base_demand / max(1, len(self.circuits))
        return per_circuit, correction

    def draw_noise_block(self, span: int) -> np.ndarray:
        """Pre-draw ``span`` seconds of AR(1) innovations, [span, C].

        Values and order are exactly what ``span`` consecutive
        :meth:`demands` calls would draw -- one ``gauss(0, sigma)`` per
        circuit per second, circuits in list order -- so the flow
        kernel's batched walk stays bit-identical to the stateful one.
        :func:`repro.rng.gauss_block` makes the whole block in one
        transform and leaves the generator where that loop would.
        Only valid between churn events (no circuit may expire inside
        the span).
        """
        width = len(self.circuits)
        return gauss_block(self._rng, span * width, 0.0, self.sigma).reshape(
            span, width
        )

    def demands(self, now: int) -> list[tuple[BackgroundCircuit, float]]:
        """Advance the demand processes; return (circuit, bits/s) pairs."""
        self.refresh_circuits(now)
        per_circuit, correction = self.demand_constants()
        out = []
        for circuit in self.circuits:
            circuit.log_state = (
                self.rho * circuit.log_state
                + self._rng.gauss(0.0, self.sigma)
            )
            demand = per_circuit * math.exp(circuit.log_state) * correction
            out.append((circuit, demand))
        return out
