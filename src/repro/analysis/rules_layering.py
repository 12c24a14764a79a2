"""FF005: the import DAG -- lower layers never import upper layers.

**Invariant.** The layering is ``tornet`` -> ``core`` -> ``kernel`` ->
``api`` -> ``service`` (with ``obs`` a leaf the execution layers may
*report* through). The three lower layers must not import ``repro.api``,
``repro.service``, or the obs *exporter* surface (``obs.export`` /
``obs.validate`` / ``obs.profiling``) at module scope: an upward
module-scope edge makes import order load-bearing, reintroduces the
circular-import class the API shims had to untangle, and couples the
kernel to the full front-door stack. Counters and
spans (``obs.metrics``/``obs.trace``) are explicitly allowed -- that is
the PR 7 reporting substrate. Function-scope (lazy) imports are the
sanctioned escape hatch for legacy shims.

**Provenance.** PR 3 made every legacy entry point a shim over
``repro.api`` and had to lazy-import in ``core/netmeasure.py`` to avoid
a cycle; the one surviving module-scope edge there (a ``TYPE_CHECKING``
type-only import) is grandfathered in the baseline with its proof.

This module also owns the ``--graph dot`` emitter: the module-scope
import DAG across ``repro``, for eyeballing layer drift.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.core import (
    Finding,
    LintContext,
    module_name_for,
    register_rule,
)

#: Packages that form the lower layers of the DAG.
RESTRICTED_PACKAGES = ("repro.tornet", "repro.core", "repro.kernel")

#: Upward targets the lower layers must not name at module scope.
FORBIDDEN_TARGETS = (
    "repro.api", "repro.service",
    "repro.obs.export", "repro.obs.validate", "repro.obs.profiling",
)


def _in_package(module: str, packages: Iterable[str]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def _forbidden(target: str) -> bool:
    return any(
        target == t or target.startswith(t + ".") for t in FORBIDDEN_TARGETS
    )


def _module_scope_imports(
    tree: ast.Module,
) -> Iterator[ast.Import | ast.ImportFrom]:
    """Imports executed (or named) at module scope.

    ``if``/``try`` blocks at module scope count -- including
    ``if TYPE_CHECKING:`` bodies, which still write a module-scope edge
    into the DAG even though it never executes at runtime (type-only
    edges are baselined individually, not silently allowed).
    """
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for body in (
                getattr(node, "body", []), getattr(node, "orelse", []),
                getattr(node, "finalbody", []),
            ):
                stack.extend(body)
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            stack.extend(node.body)


@register_rule("FF005", "layering")
def check_layering(ctx: LintContext) -> Iterator[Finding]:
    """Module-scope upward imports from ``tornet``/``core``/``kernel``."""
    if not _in_package(ctx.module, RESTRICTED_PACKAGES):
        return
    for node in _module_scope_imports(ctx.tree):
        targets = (
            [node.module] if isinstance(node, ast.ImportFrom) and node.module
            else [a.name for a in node.names]
            if isinstance(node, ast.Import)
            else []
        )
        for target in targets:
            if _forbidden(target):
                yield ctx.finding(
                    node, "FF005",
                    f"lower layer {ctx.module} imports {target} at module "
                    "scope; the DAG is tornet -> core -> kernel -> api -> "
                    "service (obs.metrics/obs.trace allowed) -- lazy-import "
                    "inside the function that needs it",
                )


# ----------------------------------------------------------------------
# --graph dot: the module-scope import DAG
# ----------------------------------------------------------------------

def module_graph(
    paths: Iterable[Path], root: Path
) -> dict[str, set[str]]:
    """Module -> imported ``repro.*`` modules (module scope only)."""
    graph: dict[str, set[str]] = {}
    files = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    for path in files:
        module = module_name_for(path, root)
        if not module.startswith("repro"):
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        # ff-lint: allow[FF006] reason=the graph emitter skips unparsable files; the lint run itself reports them as FF000
        except (SyntaxError, OSError):
            continue
        edges = graph.setdefault(module, set())
        for node in _module_scope_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    edges.add(node.module)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        edges.add(alias.name)
    return graph


def emit_dot(graph: dict[str, set[str]]) -> str:
    """Render the import DAG as Graphviz DOT, clustered by top package."""
    lines = [
        "digraph repro_imports {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace", fontsize=10];',
    ]
    packages: dict[str, list[str]] = {}
    for module in sorted(set(graph) | {t for ts in graph.values() for t in ts}):
        top = ".".join(module.split(".")[:2])
        packages.setdefault(top, []).append(module)
    for i, (top, modules) in enumerate(sorted(packages.items())):
        lines.append(f'  subgraph cluster_{i} {{ label="{top}";')
        for module in modules:
            lines.append(f'    "{module}";')
        lines.append("  }")
    for module in sorted(graph):
        for target in sorted(graph[module]):
            lines.append(f'  "{module}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
