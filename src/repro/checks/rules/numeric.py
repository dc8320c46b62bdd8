"""Numeric contracts of the water-fill kernels (NUM001–NUM003).

The vectorized allocator (:mod:`repro.simulation.columnar`) must stay
*bit-identical* to the scalar reference solver
(:mod:`repro.simulation.fairshare`) — that equivalence is the engine's
whole correctness argument.  The claim is numeric, not syntactic, so a
general linter cannot see it break.  These rules judge the facts the
abstract interpreter (:mod:`repro.checks.numeric`) extracts per
``@kernel`` function:

* **NUM001** — a value provably narrows on the way into an array:
  float results stored into integer buffers, ``float64`` into
  ``float32``, and friends.  Silent narrowing is exactly how the
  bit-identity proof dies without a single test failing on small
  inputs.
* **NUM002** — a shape-incompatibility witness: two symbolic shapes
  that can never broadcast (``(rows, width)`` against ``(rows,)``),
  a reduction over an axis the array does not have, more indices than
  the array has dimensions.
* **NUM003** — an aliasing hazard: an in-place write (``out=``,
  augmented assignment, ``.fill``) into a buffer that a later read in
  the same pass observes through a *different* view — the classic
  "workspace reused while still borrowed" bug that only manifests at
  sizes where views overlap.

All three are pure replays of cached per-file facts.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..diagnostics import Diagnostic
from ..registry import ProjectRule, register_project

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import FunctionSummary
    from ..numeric import NumericSummary
    from ..project import FunctionKey, ProjectModel

__all__ = [
    "KernelDtypeNarrowing",
    "KernelShapeMismatch",
    "KernelAliasingHazard",
]

#: The numeric core these rules police.  Kernels registered elsewhere
#: are still extracted (the facts ride the cache) but not judged — the
#: contract is only load-bearing where the bit-identity proof lives.
_NUMERIC_SCOPE = ("repro.simulation.columnar", "repro.simulation.fairshare")


def _kernel_items(
    model: "ProjectModel",
) -> Iterator[tuple["FunctionKey", "NumericSummary"]]:
    for key in sorted(model.functions):
        fn: "FunctionSummary" = model.functions[key]
        if fn.numeric is not None:
            yield key, fn.numeric


def _location(
    model: "ProjectModel", key: "FunctionKey", lineno: int, col: int
) -> tuple[str, int, int]:
    return (model.modules[key[0]].path, lineno, col)


class _IssueRule(ProjectRule):
    """Shared replay loop: one extraction ``kind`` → one diagnostic."""

    kind = ""  #: the NumericIssue.kind this rule replays

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        for key, summary in _kernel_items(model):
            for issue in summary.issues:
                if issue.kind != self.kind:
                    continue
                path, line, col = _location(
                    model, key, issue.lineno, issue.col
                )
                yield self.diagnostic(
                    path, line, col, f"kernel {key[1]}: {issue.detail}"
                )


@register_project
class KernelDtypeNarrowing(_IssueRule):
    """NUM001: silent dtype narrowing or float→int mixing in a kernel."""

    code = "NUM001"
    name = "kernel-dtype-narrowing"
    kind = "narrowing"
    rationale = (
        "The vectorized water-fill must reproduce the scalar solver "
        "bit-for-bit; storing a float64 result into a float32 or "
        "integer buffer rounds silently and the divergence only shows "
        "at scales no unit test reaches. Keep every buffer at its "
        "declared dtype and cast explicitly where truncation is meant."
    )
    scope = _NUMERIC_SCOPE


@register_project
class KernelShapeMismatch(_IssueRule):
    """NUM002: a provable broadcast/shape incompatibility."""

    code = "NUM002"
    name = "kernel-shape-mismatch"
    kind = "shape"
    rationale = (
        "Symbolic shapes that can never broadcast — (rows, width) "
        "against (rows,), an axis the array does not have — either "
        "crash on the first non-degenerate input or, worse, broadcast "
        "into the wrong cells and corrupt rates silently. Declared "
        "dims are a contract; reshape or index explicitly."
    )
    scope = _NUMERIC_SCOPE


@register_project
class KernelAliasingHazard(_IssueRule):
    """NUM003: in-place write observed through another view."""

    code = "NUM003"
    name = "kernel-aliasing-hazard"
    kind = "alias"
    rationale = (
        "An in-place write (out=, +=, .fill) into a buffer that a "
        "later read observes through a different view makes the pass "
        "order-dependent: results change with numpy's traversal order. "
        "Copy before mutating, or write to a buffer nothing else "
        "borrows."
    )
    scope = _NUMERIC_SCOPE
