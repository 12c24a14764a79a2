"""FF001: no SIMD numpy transcendentals in bit-identity-critical modules.

**Invariant.** ``np.exp``/``np.log``/``np.power`` and friends -- the
trigonometric and hyperbolic functions, ``cbrt``, ``logaddexp`` and
``float_power`` too, and numpy 2's ``np.pow``/``np.asin``/... aliases --
evaluate through SIMD polynomial kernels that are *not* bit-identical to
CPython's libm-backed ``math.exp``/``math.sin``/``**`` on every box. Any
module
whose contract is exact ``==`` equality with a scalar reference walk must
apply transcendentals with scalar ``math`` calls (elementwise if needed);
everything else in numpy (mul/add/div, gathers, ``np.minimum``,
``np.bincount``) matches the scalar path op-for-op and stays allowed.

**Provenance.** The PR 4 shadow-flow kernel hit this first (``np.exp``
for congestion RTTs diverged from the stateful walk), and PR 6's columnar
synthesis hit it again for the lognormal capacity chain -- ROADMAP calls
it "the PR 4 lesson again". Twice is a pattern; now it is a lint.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintContext, register_rule

#: Modules whose contract is bit-identity with a scalar reference path
#: (``repro.rng`` is where batched draws replay ``random.Random``).
CRITICAL_MODULES = ("repro.kernel", "repro.rng", "repro.shadow.flows",
                    "repro.tornet.columnar")

#: numpy functions with SIMD kernels that diverge from scalar libm,
#: mapped to the scalar ``math`` function(s) to apply instead.
TRANSCENDENTALS = {
    "exp": "exp", "exp2": "exp2", "expm1": "expm1",
    "log": "log", "log1p": "log1p", "log2": "log2", "log10": "log10",
    "logaddexp": "log`/`math.exp", "logaddexp2": "log2`/`math.exp2",
    "power": "pow", "pow": "pow", "float_power": "pow", "cbrt": "cbrt",
    "sin": "sin", "cos": "cos", "tan": "tan",
    "arcsin": "asin", "arccos": "acos", "arctan": "atan",
    "arctan2": "atan2",
    "asin": "asin", "acos": "acos", "atan": "atan", "atan2": "atan2",
    "sinh": "sinh", "cosh": "cosh", "tanh": "tanh",
    "arcsinh": "asinh", "arccosh": "acosh", "arctanh": "atanh",
    "asinh": "asinh", "acosh": "acosh", "atanh": "atanh",
}


def _in_critical_module(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in CRITICAL_MODULES
    )


@register_rule("FF001", "numpy-transcendental")
def check_numpy_transcendentals(ctx: LintContext) -> Iterator[Finding]:
    """SIMD ``np.exp``/``np.power``/... forbidden where ``==`` oracles rule."""
    if not _in_critical_module(ctx.module):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None or not resolved.startswith("numpy."):
            continue
        leaf = resolved.rsplit(".", 1)[-1]
        if leaf in TRANSCENDENTALS and resolved == f"numpy.{leaf}":
            yield ctx.finding(
                node, "FF001",
                f"SIMD numpy transcendental `{resolved}` in "
                f"bit-identity-critical module {ctx.module}; apply scalar "
                f"`math.{TRANSCENDENTALS[leaf]}` elementwise "
                "instead (the PR 4/PR 6 transcendental trap)",
            )
