"""FF003: all randomness flows through seeded RNG objects.

**Invariant.** Every stochastic draw comes from a ``random.Random`` /
numpy generator derived from an explicit seed via :mod:`repro.rng`
(``seed_from``/``fork``/``fork_numpy``). Ambient entropy --
``os.urandom``, every ``secrets.*`` call, the ``random`` module's
*module-level* functions (which draw from the shared, unseeded global
instance), ``random.SystemRandom``, and ``np.random``'s legacy global
functions -- makes same-seed runs diverge and is forbidden everywhere in
library code. Key material is the one sound exception: a predictable
private key, DH exponent or Schnorr nonce gives the key away, so those
draws stay on OS entropy under a suppression that says so. Seeded
*constructors* (``random.Random(seed)``, ``np.random.default_rng``,
``np.random.RandomState``...) are exactly the sanctioned path and stay
allowed.

**Provenance.** Two live ``os.urandom`` call sites sat in nominally
deterministic paths until this PR (``tornet/cell.py`` default cell
payloads, ``kernel/supply.py`` verification-replay payloads) -- both now
draw from seeded streams, and this rule keeps the door shut.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintContext, register_rule

#: Seeded constructors under ``numpy.random`` -- the sanctioned path.
NUMPY_CONSTRUCTORS = frozenset({
    "RandomState", "Generator", "default_rng", "SeedSequence",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64", "BitGenerator",
})

#: ``random`` module attributes that are *not* ambient global draws.
RANDOM_ALLOWED = frozenset({"Random"})


@register_rule("FF003", "ambient-randomness")
def check_ambient_randomness(ctx: LintContext) -> Iterator[Finding]:
    """``os.urandom`` / ``secrets.*`` / global ``random.*`` / ``np.random.*`` draws."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None:
            continue
        if resolved == "os.urandom":
            yield ctx.finding(
                node, "FF003",
                "`os.urandom` in library code: ambient entropy breaks "
                "same-seed reproducibility; draw from a seeded RNG "
                "(`repro.rng.fork`) or take the caller's stream",
            )
        elif resolved.startswith("secrets."):
            yield ctx.finding(
                node, "FF003",
                f"`{resolved}` draws OS entropy: same-seed runs diverge; "
                "draw from a seeded RNG (`repro.rng.fork`) unless this is "
                "key material that must stay unpredictable",
            )
        elif resolved == "random.SystemRandom":
            yield ctx.finding(
                node, "FF003",
                "`random.SystemRandom` is OS entropy in a Random costume; "
                "use `random.Random(seed_from(...))`",
            )
        elif (
            resolved.startswith("random.")
            and resolved.count(".") == 1
            and resolved.split(".")[1] not in RANDOM_ALLOWED
        ):
            leaf = resolved.split(".")[1]
            yield ctx.finding(
                node, "FF003",
                f"module-level `random.{leaf}` draws from the shared "
                "unseeded global RNG; all randomness must flow through a "
                "seeded `random.Random` (see `repro.rng.fork`)",
            )
        elif (
            resolved.startswith("numpy.random.")
            and resolved.count(".") == 2
            and resolved.split(".")[2] not in NUMPY_CONSTRUCTORS
        ):
            leaf = resolved.split(".")[2]
            yield ctx.finding(
                node, "FF003",
                f"legacy global `np.random.{leaf}` call; use a seeded "
                "generator (`repro.rng.fork_numpy` or "
                "`np.random.RandomState(seed)`) instead",
            )
