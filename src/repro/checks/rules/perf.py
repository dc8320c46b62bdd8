"""Hot-path performance invariants in the fluid engine.

The engine's per-event Python work is proportional to the flows an
event changed (``docs/simulator.md``): the columnar flow table is
patched row by row for arrivals and completions, only re-rated flows
are settled, completions come off a projected-finish heap, and flow
residuals are settled lazily.  The cheapest way to lose all of that is
a helper that quietly sweeps ``self.active`` on every event — the
O(active)-per-event Python pattern.  This rule bans such sweeps inside
:class:`FluidSimulation`, except in the small audited set of helpers
whose *job* is the full view.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..context import FileContext
from ..diagnostics import Diagnostic
from ..registry import Rule, register

__all__ = ["FullActiveSweep", "ColumnarPythonLoop"]

#: FluidSimulation helpers allowed to walk every active flow: re-pathing
#: after a topology change, the from-scratch oracle allocator, the
#: vectorized backend's table rebuild (same trigger as re-pathing), the
#: monitor notification (monitors are owed the full rate map), and final
#: result assembly.  None of them runs on the per-event hot path.
_SANCTIONED = frozenset(
    {
        "_repath_flows",
        "_reallocate_oracle",
        "_rebuild_table",
        "_notify_monitor",
        "_build_result",
    }
)


@register
class FullActiveSweep(Rule):
    """PERF001: no full ``self.active`` sweeps in engine hot paths."""

    code = "PERF001"
    name = "full-active-sweep"
    rationale = (
        "The fluid engine keeps per-event Python work proportional to "
        "the flows an event changed; a loop over self.active inside "
        "FluidSimulation adds an O(active) Python scan to every event, "
        "silently regressing trace-scale replays."
    )
    scope = ("repro.simulation",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "FluidSimulation"):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in _SANCTIONED:
                    continue
                yield from self._sweeps_in(ctx, item)

    def _sweeps_in(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(func):
            target: ast.expr | None = None
            if isinstance(node, ast.For):
                target = node.iter
            elif isinstance(node, ast.comprehension):
                target = node.iter
            if target is not None and _mentions_self_active(target):
                yield self.diagnostic(
                    ctx,
                    target,
                    f"iteration over self.active in FluidSimulation."
                    f"{func.name}(); per-event Python work must stay "
                    "proportional to the changed flows (sanctioned full "
                    "sweeps: "
                    f"{', '.join(sorted(_SANCTIONED))})",
                )


#: Columnar helpers allowed per-element Python loops: the per-event
#: patch helpers (walking one event's handful of path ids beats any
#: whole-array formulation) and the packer that builds a matrix from
#: Python tuples in the first place.
_COLUMNAR_SANCTIONED = frozenset({"append", "discard", "rebuild", "pack_paths"})


@register
class ColumnarPythonLoop(Rule):
    """PERF002: no per-element Python loops in the columnar core."""

    code = "PERF002"
    name = "columnar-python-loop"
    rationale = (
        "The vectorized backend's whole point is that per-pass work is "
        "whole-array numpy calls; a Python loop over rows or segments "
        "inside repro.simulation.columnar reintroduces per-element "
        "interpreter dispatch on the hottest path in the engine."
    )
    scope = ("repro.simulation.columnar",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module is None:
            # Unlike class-anchored rules, this one has no structural
            # anchor — it bans plain loops — so it must never leak onto
            # files whose module the harness could not resolve.
            return
        for func_name, iter_expr in _loops_by_function(ctx.tree):
            if func_name in _COLUMNAR_SANCTIONED:
                continue
            if _is_range_call(iter_expr):
                # Loops over range() are bounded by a shape dimension
                # (the column unroll in the _column_min kernel), not by
                # the number of flows; whole-array calls run inside them.
                continue
            yield self.diagnostic(
                ctx,
                iter_expr,
                f"Python loop in {func_name}() iterates per element over "
                "columnar data; express it as whole-array numpy work "
                "(sanctioned patch helpers: "
                f"{', '.join(sorted(_COLUMNAR_SANCTIONED))})",
            )


def _loops_by_function(tree: ast.AST) -> list[tuple[str, ast.expr]]:
    """Every ``for``/comprehension iterable, tagged with the name of the
    innermost enclosing function (``"<module>"`` at top level)."""
    found: list[tuple[str, ast.expr]] = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.For, ast.AsyncFor)):
                found.append((func, child.iter))
            elif isinstance(
                child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                found.extend((func, comp.iter) for comp in child.generators)
            visit(child, func)

    visit(tree, "<module>")
    return found


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def _mentions_self_active(node: ast.expr) -> bool:
    """True if ``self.active`` appears anywhere in the expression — this
    also catches wrapped forms like ``sorted(self.active)`` or
    ``self.active.items()``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "active"
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            return True
    return False
