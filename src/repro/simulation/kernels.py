"""The ``@kernel`` registry: declared numeric contracts for hot loops.

The water-fill kernels carry the engine's bit-identity claim, and that
claim rests on numeric facts: which arrays each hot loop takes, and
what dtypes and shapes those arrays carry.  This module is that
contract's runtime half; the static half is
:mod:`repro.checks.numeric`, which parses the decorator literally (no
import, no execution) and abstractly interprets every registered
kernel against its declared array specs.

A kernel declares its arrays as ``name -> (dtype, dims)`` where each
dim is either a symbolic name (``"rows"``) — optionally with a constant
offset (``"segments+1"``) — or an integer literal.  Symbols unify
across a kernel's arrays, so ``("rows", "width")`` against
``("rows",)`` is a checked relationship, not two independent guesses::

    @kernel(
        arrays={
            "matrix": ("float64", ("rows", "width")),
        },
        returns=("float64", ("rows",)),
    )
    def _column_min(matrix): ...

The decorator is deliberately inert at call time: it records the spec
in :data:`KERNEL_REGISTRY`, stamps the function with
``__repro_kernel__``, and returns the function object unchanged — zero
overhead on the hot path.

The spec must be a *literal* (string/int/tuple/dict displays only): the
lint pass reads it from the AST without importing the module, and a
computed spec would silently check nothing.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, TypeVar, Union

__all__ = ["ArraySpec", "KernelSpec", "KERNEL_REGISTRY", "kernel"]

#: ``(dtype, dims)`` — dtype is a numpy dtype name, dims are symbolic
#: names (optionally ``"sym+k"``/``"sym-k"``) or integer literals.
ArraySpec = tuple[str, Sequence[Union[str, int]]]

F = TypeVar("F", bound=Callable[..., object])


class KernelSpec:
    """One registered kernel's declared numeric contract."""

    def __init__(
        self,
        qualname: str,
        arrays: Mapping[str, ArraySpec],
        returns: ArraySpec | None,
    ) -> None:
        self.qualname = qualname
        self.arrays = dict(arrays)
        self.returns = returns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelSpec({self.qualname!r}, arrays={self.arrays!r}, "
            f"returns={self.returns!r})"
        )


#: ``module-level qualname -> spec`` for every registered kernel in the
#: process.  The static analyzer never reads this (it parses decorator
#: literals); it exists so tests can enumerate the kernel surface.
KERNEL_REGISTRY: dict[str, KernelSpec] = {}


def kernel(
    arrays: Mapping[str, ArraySpec] | None = None,
    returns: ArraySpec | None = None,
) -> Callable[[F], F]:
    """Register a function as a numeric kernel.

    Args:
        arrays: array-parameter contracts, ``name -> (dtype, dims)``.
            Parameters not listed are treated as opaque scalars by the
            analyzer.  Non-array kernels (the scalar reference solver)
            may omit this entirely.
        returns: the returned array's contract, when one is returned.

    The wrapped function is returned unchanged; registration is the
    only side effect.
    """

    def _register(fn: F) -> None:
        key = f"{fn.__module__}.{fn.__qualname__}"
        KERNEL_REGISTRY[key] = KernelSpec(
            qualname=fn.__qualname__, arrays=arrays or {}, returns=returns
        )
        fn.__repro_kernel__ = True  # type: ignore[attr-defined]

    def _decorate(fn: F) -> F:
        _register(fn)
        return fn

    return _decorate
