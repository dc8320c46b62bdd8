"""Abstract interpretation of ``@kernel`` numeric code (NUM001–NUM003).

The vectorized water-fill core (:mod:`repro.simulation.columnar`) is the
engine's hottest path.  Its correctness claims are *numeric*: every
array keeps the dtype the bit-identity proof assumes, every broadcast
is intentional, and no in-place pass mutates data another view of the
same buffer later observes.  None of those properties is visible to a
general linter; this module checks them statically, the same
extract-then-judge way the concurrency analyzer
(:mod:`repro.checks.concurrency`) polices the event loop.

**Extraction.**  :func:`analyze_kernels` finds every function in a file
decorated with the ``@kernel`` registry decorator
(:mod:`repro.simulation.kernels`), reads the declared array contracts
*literally from the decorator AST* (no import, no execution), and runs
an abstract interpreter over the body.  Each variable carries a value
in a small lattice:

* **dtype** — a numpy dtype name or unknown, advanced through ufunc
  promotion (true division always yields a float, comparisons and
  logical ops yield ``bool``);
* **symbolic shape** — a tuple of dims, each an integer literal, a
  ``(symbol, offset)`` pair (so ``remaining.shape[0] - 1`` unifies with
  a ``"segments+1"`` declaration), or unknown;
* **region** — a ``(buffer, index-path)`` pair for aliasing: basic
  slicing yields a sub-region of the same buffer, advanced (fancy)
  indexing, ``.copy()``, and array constructors yield fresh buffers.

Loops are interpreted twice with a lattice join between passes, so
facts that only hold on the first iteration (a compacted ``alive`` set,
say) are not over-trusted.  Anything the interpreter cannot model
decays to unknown — unknowns never produce findings, so the analysis
is conservative in the no-false-positives direction.

**Findings** are :class:`NumericIssue` records, carried on
``FunctionSummary.numeric`` and JSON round-tripped through the
incremental lint cache — a warm run replays them without re-parsing.
The NUM001–NUM003 project rules (:mod:`repro.checks.rules.numeric`)
turn them into diagnostics.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .context import FileContext

__all__ = [
    "NumericIssue",
    "NumericSummary",
    "ParsedKernelSpec",
    "collect_kernel_specs",
    "analyze_kernels",
]

#: A symbolic dimension: a literal, a ``(symbol, offset)`` pair, or
#: unknown.  ``("segments", 1)`` is the length ``segments + 1``.
Dim = Union[int, tuple[str, int], None]

#: A shape is a tuple of dims; ``None`` when even the rank is unknown.
Shape = Union[tuple[Dim, ...], None]

#: Dotted names the decorator may resolve to and still mean "the kernel
#: registry decorator".
_KERNEL_DECORATORS = frozenset(
    {"repro.simulation.kernels.kernel", "repro.simulation.kernel"}
)

#: Known numpy dtype spellings, canonicalised.
_DTYPE_NAMES = {
    "bool": "bool",
    "bool_": "bool",
    "int8": "int8",
    "int16": "int16",
    "int32": "int32",
    "int64": "int64",
    "int": "int64",
    "intp": "int64",
    "uint8": "uint8",
    "uint16": "uint16",
    "uint32": "uint32",
    "uint64": "uint64",
    "float32": "float32",
    "float64": "float64",
    "float": "float64",
    "double": "float64",
}

#: Width order inside each kind, for narrowing detection.
_RANK = {
    "bool": 0,
    "int8": 1,
    "uint8": 1,
    "int16": 2,
    "uint16": 2,
    "int32": 3,
    "uint32": 3,
    "int64": 4,
    "uint64": 4,
    "float32": 5,
    "float64": 6,
}

_DIM_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:([+-])\s*(\d+))?$")


# ----------------------------------------------------------------------
# serialisable facts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NumericIssue:
    """One extraction-time finding inside a kernel body."""

    kind: str  #: ``narrowing`` | ``shape`` | ``alias``
    lineno: int
    col: int
    detail: str

    def to_json(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "lineno": self.lineno,
            "col": self.col,
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "NumericIssue":
        return cls(
            kind=str(data["kind"]),
            lineno=_int(data["lineno"]),
            col=_int(data["col"]),
            detail=str(data["detail"]),
        )


@dataclass(frozen=True)
class NumericSummary:
    """Everything the NUM rules know about one kernel function."""

    issues: tuple[NumericIssue, ...] = ()

    def to_json(self) -> dict[str, object]:
        return {"issues": [issue.to_json() for issue in self.issues]}

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "NumericSummary":
        return cls(
            issues=tuple(
                NumericIssue.from_json(_dict(issue))
                for issue in _list(data["issues"])
            )
        )


# ----------------------------------------------------------------------
# declared kernel contracts (parsed from decorator literals)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedKernelSpec:
    """A ``@kernel(arrays=…, returns=…)`` contract read from the AST."""

    arrays: Mapping[str, tuple[str | None, tuple[Dim, ...] | None]]
    returns: tuple[str | None, tuple[Dim, ...] | None] | None


def _parse_dim(raw: object) -> Dim:
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        if raw.isdigit():
            return int(raw)
        match = _DIM_RE.match(raw)
        if match is None:
            return None
        offset = int(match.group(3)) if match.group(3) else 0
        if match.group(2) == "-":
            offset = -offset
        return (match.group(1), offset)
    return None


def _parse_array_spec(
    node: ast.expr,
) -> tuple[str | None, tuple[Dim, ...] | None] | None:
    """``("float64", ("rows", "width"))`` as a literal, else ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)) or len(node.elts) != 2:
        return None
    dtype_node, dims_node = node.elts
    dtype: str | None = None
    if isinstance(dtype_node, ast.Constant) and isinstance(
        dtype_node.value, str
    ):
        dtype = _DTYPE_NAMES.get(dtype_node.value)
    dims: tuple[Dim, ...] | None = None
    if isinstance(dims_node, (ast.Tuple, ast.List)):
        parsed: list[Dim] = []
        for element in dims_node.elts:
            if isinstance(element, ast.Constant):
                parsed.append(_parse_dim(element.value))
            else:
                parsed.append(None)
        dims = tuple(parsed)
    return (dtype, dims)


def _kernel_decorator_call(
    ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> ast.Call | bool:
    """The ``@kernel(...)`` call node, ``True`` for a bare ``@kernel``,
    ``False`` when the function is not kernel-registered."""
    for decorator in fn.decorator_list:
        node = (
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        resolved = ctx.resolve(node)
        if resolved is not None:
            if resolved not in _KERNEL_DECORATORS:
                continue
        else:
            tail = (
                node.id
                if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else ""
            )
            if tail != "kernel":
                continue
        return decorator if isinstance(decorator, ast.Call) else True
    return False


def collect_kernel_specs(ctx: FileContext) -> dict[str, ParsedKernelSpec]:
    """Declared contracts for every top-level ``@kernel`` function."""
    specs: dict[str, ParsedKernelSpec] = {}
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        found = _kernel_decorator_call(ctx, stmt)
        if found is False:
            continue
        arrays: dict[str, tuple[str | None, tuple[Dim, ...] | None]] = {}
        returns: tuple[str | None, tuple[Dim, ...] | None] | None = None
        if isinstance(found, ast.Call):
            for keyword in found.keywords:
                if keyword.arg == "arrays" and isinstance(
                    keyword.value, ast.Dict
                ):
                    for key, value in zip(
                        keyword.value.keys, keyword.value.values
                    ):
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            parsed = _parse_array_spec(value)
                            if parsed is not None:
                                arrays[key.value] = parsed
                elif keyword.arg == "returns":
                    returns = _parse_array_spec(keyword.value)
        specs[stmt.name] = ParsedKernelSpec(arrays=arrays, returns=returns)
    return specs


# ----------------------------------------------------------------------
# the value lattice
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Region:
    """Which buffer a value lives in and through which index path."""

    base: int
    #: Each step is a tuple of per-axis keys (``int`` constant, ``":"``
    #: full/partial slice, ``"?"`` unknown position) or ``"*"`` for a
    #: rank-changing view (ravel/reshape).
    path: tuple[object, ...]

    def child(self, step: object) -> "_Region":
        return _Region(self.base, self.path + (step,))


def _regions_overlap(a: _Region, b: _Region) -> bool:
    if a.base != b.base:
        return False
    for step_a, step_b in zip(a.path, b.path):
        if isinstance(step_a, tuple) and isinstance(step_b, tuple):
            for key_a, key_b in zip(step_a, step_b):
                if (
                    isinstance(key_a, int)
                    and isinstance(key_b, int)
                    and key_a != key_b
                ):
                    return False  # provably disjoint constant indices
    return True


@dataclass(frozen=True)
class ArrayVal:
    dtype: str | None
    shape: Shape
    region: _Region


@dataclass(frozen=True)
class ScalarVal:
    dtype: str | None
    #: The symbolic integer value, when this scalar feeds shape math.
    dim: Dim = None


@dataclass(frozen=True)
class TupleVal:
    dims: tuple[Dim, ...]


class _Unknown:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNKNOWN"


UNKNOWN = _Unknown()

Value = Union[ArrayVal, ScalarVal, TupleVal, _Unknown]


def _is_float(dtype: str | None) -> bool:
    return dtype in ("float32", "float64")


def _is_int(dtype: str | None) -> bool:
    return dtype is not None and (
        dtype.startswith("int") or dtype.startswith("uint")
    )


def _promote(a: str | None, b: str | None) -> str | None:
    """Approximate numpy result-type promotion (never *under*-reports a
    width, so narrowing findings stay sound against real numpy)."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    if _is_float(a) or _is_float(b):
        if _is_float(a) and _is_float(b):
            return a if _RANK[a] >= _RANK[b] else b
        floaty = a if _is_float(a) else b
        other = b if _is_float(a) else a
        if floaty == "float32" and _RANK[other] >= _RANK["int32"]:
            return "float64"  # int32+/int64 + float32 widens in numpy
        return floaty
    if a == "bool":
        return b
    if b == "bool":
        return a
    return a if _RANK[a] >= _RANK[b] else b


def _true_divide(a: str | None, b: str | None) -> str | None:
    if a is None or b is None:
        return None
    if _is_float(a) or _is_float(b):
        return _promote(a, b)
    return "float64"


def _narrows(value: str | None, target: str | None) -> bool:
    """Would storing ``value`` into ``target`` lose width or kind?"""
    if value is None or target is None or value == target:
        return False
    if _is_float(value) and (_is_int(target) or target == "bool"):
        return True
    if value != "bool" and target == "bool":
        return True
    return _RANK[value] > _RANK[target]


def _dim_shift(dim: Dim, offset: int) -> Dim:
    if dim is None:
        return None
    if isinstance(dim, int):
        return dim + offset
    return (dim[0], dim[1] + offset)


def _dims_compatible(a: Dim, b: Dim) -> bool:
    return a is None or b is None or a == b or a == 1 or b == 1


def _join_dim(a: Dim, b: Dim) -> Dim:
    return a if a == b else None


def _fmt_dim(dim: Dim) -> str:
    if dim is None:
        return "?"
    if isinstance(dim, int):
        return str(dim)
    name, offset = dim
    if offset == 0:
        return name
    return f"{name}{offset:+d}"


def _fmt_shape(shape: Shape) -> str:
    if shape is None:
        return "(?)"
    if len(shape) == 1:
        return f"({_fmt_dim(shape[0])},)"
    return "(" + ", ".join(_fmt_dim(dim) for dim in shape) + ")"


def _broadcast(a: Shape, b: Shape) -> tuple[Shape, str | None]:
    """Broadcast result shape plus a witness string when incompatible."""
    if a is None or b is None:
        return None, None
    result: list[Dim] = []
    for index in range(1, max(len(a), len(b)) + 1):
        dim_a = a[-index] if index <= len(a) else 1
        dim_b = b[-index] if index <= len(b) else 1
        if not _dims_compatible(dim_a, dim_b):
            return None, f"{_fmt_shape(a)} vs {_fmt_shape(b)}"
        if dim_a == 1:
            result.append(dim_b)
        elif dim_b == 1:
            result.append(dim_a)
        elif dim_a is not None:
            result.append(dim_a)
        else:
            result.append(dim_b)
    result.reverse()
    return tuple(result), None


# ----------------------------------------------------------------------
# module-level context shared by every kernel in a file
# ----------------------------------------------------------------------


def _module_constants(tree: ast.Module) -> dict[str, ScalarVal]:
    """Top-level numeric constants (``_DEAD_COUNT = 0.5`` …)."""
    consts: dict[str, ScalarVal] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        scalar = _constant_scalar(value)
        if scalar is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                consts[target.id] = scalar
    return consts


def _constant_scalar(node: ast.expr) -> ScalarVal | None:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return ScalarVal("bool")
        if isinstance(node.value, int):
            return ScalarVal("int64", node.value)
        if isinstance(node.value, float):
            return ScalarVal("float64")
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return ScalarVal("float64")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _constant_scalar(node.operand)
        if inner is not None and isinstance(inner.dim, int):
            return ScalarVal(inner.dtype, -inner.dim)
        return inner
    return None


# ----------------------------------------------------------------------
# the abstract interpreter (NUM001–NUM003 extraction)
# ----------------------------------------------------------------------


class _KernelInterpreter:
    """One pass over one kernel body with the dtype/shape/region lattice."""

    def __init__(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        spec: ParsedKernelSpec,
        local_kernels: Mapping[str, ParsedKernelSpec],
        consts: Mapping[str, ScalarVal],
    ) -> None:
        self.ctx = ctx
        self.fn = fn
        self.local_kernels = local_kernels
        self.consts = consts
        self._seen: set[tuple[str, int, int, str]] = set()
        self.issues: list[NumericIssue] = []
        self._next_base = 0
        self.env: dict[str, Value] = {}
        #: in-place writes so far: (name written through, region, line).
        self.writes: list[tuple[str, _Region, int]] = []
        for arg in [*fn.args.posonlyargs, *fn.args.args]:
            declared = spec.arrays.get(arg.arg)
            if declared is None:
                self.env[arg.arg] = UNKNOWN
            else:
                dtype, dims = declared
                self.env[arg.arg] = ArrayVal(
                    dtype=dtype, shape=dims, region=self._fresh()
                )

    # -- plumbing ------------------------------------------------------

    def _fresh(self) -> _Region:
        self._next_base += 1
        return _Region(self._next_base, ())

    def _issue(self, kind: str, node: ast.AST, detail: str) -> None:
        lineno = getattr(node, "lineno", self.fn.lineno)
        col = getattr(node, "col_offset", 0) + 1
        key = (kind, lineno, col, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        self.issues.append(
            NumericIssue(kind=kind, lineno=lineno, col=col, detail=detail)
        )

    def run(self) -> list[NumericIssue]:
        self._exec_body(self.fn.body)
        return self.issues

    # -- statements ----------------------------------------------------

    def _exec_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            before = dict(self.env)
            self._exec_body(stmt.body)
            taken = self.env
            self.env = dict(before)
            self._exec_body(stmt.orelse)
            self.env = _join_env(taken, self.env, self._fresh)
        elif isinstance(stmt, (ast.While, ast.For)):
            self._exec_loop(stmt)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                for arg in getattr(stmt.exc, "args", []):
                    if isinstance(arg, ast.expr):
                        self._eval(arg)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body)
            for handler in stmt.handlers:
                self._exec_body(handler.body)
            self._exec_body(stmt.orelse)
            self._exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._exec_body(stmt.body)
        # Pass/Break/Continue/Assert/etc.: no lattice effect.

    def _exec_loop(self, stmt: ast.While | ast.For) -> None:
        if isinstance(stmt, ast.While):
            self._eval(stmt.test)
        else:
            iterable = self._eval(stmt.iter)
            self._bind_loop_target(stmt.target, stmt.iter, iterable)
        before = dict(self.env)
        self._exec_body(stmt.body)
        self.env = _join_env(before, self.env, self._fresh)
        self._exec_body(stmt.body)  # second pass over the joined state
        self.env = _join_env(before, self.env, self._fresh)
        self._exec_body(stmt.orelse)

    def _bind_loop_target(
        self, target: ast.expr, iter_node: ast.expr, iterable: Value
    ) -> None:
        if isinstance(target, ast.Name):
            if (
                isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id == "range"
            ):
                self.env[target.id] = ScalarVal("int64")
            elif isinstance(iterable, ArrayVal):
                shape = (
                    iterable.shape[1:]
                    if iterable.shape is not None and len(iterable.shape) > 1
                    else ()
                )
                if iterable.shape is not None and len(iterable.shape) == 1:
                    self.env[target.id] = ScalarVal(iterable.dtype)
                else:
                    self.env[target.id] = ArrayVal(
                        iterable.dtype, shape, self._fresh()
                    )
            else:
                self.env[target.id] = UNKNOWN
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env[element.id] = UNKNOWN

    def _assign(self, target: ast.expr, value: Value, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Tuple):
            dims: tuple[Dim, ...] | None = None
            if isinstance(value, TupleVal):
                dims = value.dims
            elif isinstance(value, ArrayVal) and value.shape is not None:
                dims = value.shape  # unpacking a shape-like value
            for index, element in enumerate(target.elts):
                if not isinstance(element, ast.Name):
                    continue
                if dims is not None and index < len(dims):
                    self.env[element.id] = ScalarVal("int64", dims[index])
                else:
                    self.env[element.id] = UNKNOWN
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, value, stmt)
        # attribute stores don't occur in kernels; ignore conservatively

    def _subscript_store(
        self, target: ast.Subscript, value: Value, stmt: ast.stmt
    ) -> None:
        base = self._eval(target.value, record_read=False)
        slice_shape, step = self._eval_index(target, base)
        if not isinstance(base, ArrayVal):
            return
        if isinstance(target.value, ast.Name):
            self.writes.append(
                (target.value.id, base.region.child(step), stmt.lineno)
            )
        value_dtype = _value_dtype(value)
        if _narrows(value_dtype, base.dtype):
            self._issue(
                "narrowing",
                stmt,
                f"stores {value_dtype} values into {base.dtype} array "
                f"{_expr_text(target.value)} — silent dtype narrowing",
            )
        value_shape = value.shape if isinstance(value, ArrayVal) else None
        _, witness = _broadcast(slice_shape, value_shape)
        if witness is not None:
            self._issue(
                "shape",
                stmt,
                f"assignment into {_expr_text(target.value)} cannot "
                f"broadcast: {witness}",
            )

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        value = self._eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            current = self.env.get(stmt.target.id, UNKNOWN)
            if isinstance(current, ArrayVal):
                value_dtype = _value_dtype(value)
                if isinstance(stmt.op, ast.Div):
                    result = _true_divide(current.dtype, value_dtype)
                else:
                    result = _promote(current.dtype, value_dtype)
                self.writes.append(
                    (stmt.target.id, current.region, stmt.lineno)
                )
                if _narrows(result, current.dtype):
                    self._issue(
                        "narrowing",
                        stmt,
                        f"in-place op narrows {result} back into "
                        f"{current.dtype} array {stmt.target.id}",
                    )
                value_shape = (
                    value.shape if isinstance(value, ArrayVal) else None
                )
                _, witness = _broadcast(current.shape, value_shape)
                if witness is not None:
                    self._issue(
                        "shape",
                        stmt,
                        f"in-place op on {stmt.target.id} cannot "
                        f"broadcast: {witness}",
                    )
            elif isinstance(current, ScalarVal):
                self.env[stmt.target.id] = ScalarVal(
                    _promote(current.dtype, _value_dtype(value))
                )
        elif isinstance(stmt.target, ast.Subscript):
            base = self._eval(stmt.target.value, record_read=False)
            self._eval_index(stmt.target, base)
            if isinstance(base, ArrayVal) and isinstance(
                stmt.target.value, ast.Name
            ):
                self.writes.append(
                    (
                        stmt.target.value.id,
                        base.region.child("?"),
                        stmt.lineno,
                    )
                )

    # -- expressions ---------------------------------------------------

    def _eval(self, node: ast.expr, record_read: bool = True) -> Value:
        if isinstance(node, ast.Name):
            value = self.env.get(node.id)
            if value is None:
                value = self.consts.get(node.id, UNKNOWN)
            if record_read and isinstance(value, ArrayVal):
                self._check_read(node, value)
            return value
        if isinstance(node, ast.Constant):
            scalar = _constant_scalar(node)
            return scalar if scalar is not None else UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unary(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.BoolOp):
            for operand in node.values:
                self._eval(operand)
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List)):
            dims: list[Dim] = []
            scalar_only = True
            for element in node.elts:
                value = self._eval(element)
                if isinstance(value, ScalarVal):
                    dims.append(value.dim)
                else:
                    scalar_only = False
            return TupleVal(tuple(dims)) if scalar_only else UNKNOWN
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for generator in node.generators:
                self._eval(generator.iter)
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            first = self._eval(node.body)
            second = self._eval(node.orelse)
            return first if first == second else UNKNOWN
        return UNKNOWN

    def _check_read(self, node: ast.Name, value: ArrayVal) -> None:
        binding = self.env.get(node.id)
        for written_name, region, line in self.writes:
            if written_name == node.id:
                continue  # reading what you wrote, through the same name
            if not _regions_overlap(region, value.region):
                continue
            writer = self.env.get(written_name)
            if (
                isinstance(writer, ArrayVal)
                and isinstance(binding, ArrayVal)
                and writer.region == binding.region
            ):
                continue  # two names deliberately bound to one array
            self._issue(
                "alias",
                node,
                f"read of {node.id} observes the in-place write to "
                f"{written_name} on line {line} through an overlapping "
                "view of the same buffer",
            )
            return

    def _eval_binop(self, node: ast.BinOp) -> Value:
        left = self._eval(node.left)
        right = self._eval(node.right)
        if isinstance(left, ArrayVal) or isinstance(right, ArrayVal):
            left_dtype = _value_dtype(left)
            right_dtype = _value_dtype(right)
            if isinstance(node.op, ast.Div):
                dtype = _true_divide(left_dtype, right_dtype)
            elif isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
                dtype = _promote(left_dtype, right_dtype)
            else:
                dtype = _promote(left_dtype, right_dtype)
            left_shape = left.shape if isinstance(left, ArrayVal) else ()
            right_shape = right.shape if isinstance(right, ArrayVal) else ()
            shape, witness = _broadcast(left_shape, right_shape)
            if witness is not None:
                self._issue(
                    "shape",
                    node,
                    f"operands cannot broadcast: {witness}",
                )
            return ArrayVal(dtype, shape, self._fresh())
        if isinstance(left, ScalarVal) and isinstance(right, ScalarVal):
            dim: Dim = None
            if isinstance(node.op, ast.Add):
                dim = _dim_add(left.dim, right.dim)
            elif isinstance(node.op, ast.Sub):
                dim = _dim_sub(left.dim, right.dim)
            if isinstance(node.op, ast.Div):
                return ScalarVal(_true_divide(left.dtype, right.dtype))
            return ScalarVal(_promote(left.dtype, right.dtype), dim)
        return UNKNOWN

    def _eval_unary(self, node: ast.UnaryOp) -> Value:
        operand = self._eval(node.operand)
        if isinstance(node.op, ast.Not):
            return ScalarVal("bool")
        if isinstance(operand, ArrayVal):
            return ArrayVal(operand.dtype, operand.shape, self._fresh())
        if isinstance(operand, ScalarVal):
            if isinstance(node.op, ast.USub) and isinstance(
                operand.dim, int
            ):
                return ScalarVal(operand.dtype, -operand.dim)
            return ScalarVal(operand.dtype)
        return UNKNOWN

    def _eval_compare(self, node: ast.Compare) -> Value:
        values = [self._eval(node.left)]
        values.extend(self._eval(cmp) for cmp in node.comparators)
        arrays = [v for v in values if isinstance(v, ArrayVal)]
        if not arrays:
            return ScalarVal("bool")
        shape: Shape = arrays[0].shape
        for index in range(len(values) - 1):
            left, right = values[index], values[index + 1]
            left_shape = left.shape if isinstance(left, ArrayVal) else ()
            right_shape = right.shape if isinstance(right, ArrayVal) else ()
            shape, witness = _broadcast(left_shape, right_shape)
            if witness is not None:
                self._issue(
                    "shape",
                    node,
                    f"comparison operands cannot broadcast: {witness}",
                )
        return ArrayVal("bool", shape, self._fresh())

    # -- subscripts ----------------------------------------------------

    def _eval_subscript(self, node: ast.Subscript) -> Value:
        # The base is evaluated without the bare-name read check: the
        # subscript narrows what is actually read, so the check runs
        # against the *sub*-region below (else ``m[:, 1]`` after a write
        # to ``m[:, 0]`` would count as reading all of ``m``).
        base = self._eval(node.value, record_read=False)
        if isinstance(base, TupleVal):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                index.value, int
            ):
                if 0 <= index.value < len(base.dims):
                    return ScalarVal("int64", base.dims[index.value])
            return ScalarVal("int64")
        shape, step = self._eval_index(node, base)
        if not isinstance(base, ArrayVal):
            return UNKNOWN
        if step == "advanced":
            # Fancy indexing reads data-dependent positions — check
            # against the whole base, return a fresh copy.
            if isinstance(node.value, ast.Name):
                self._check_read(node.value, base)
            return ArrayVal(base.dtype, shape, self._fresh())
        view = ArrayVal(
            base.dtype,
            shape,
            base.region.child(step) if isinstance(step, tuple) else
            base.region.child("*"),
        )
        if isinstance(node.value, ast.Name):
            self._check_read(node.value, view)
        return view

    def _eval_index(
        self, node: ast.Subscript, base: Value
    ) -> tuple[Shape, object]:
        """Result shape and region step for a subscript expression.

        The step is a tuple of per-axis keys for basic indexing, or the
        string ``"advanced"`` when fancy indexing copies the data.
        """
        index = node.slice
        elements = (
            list(index.elts) if isinstance(index, ast.Tuple) else [index]
        )
        base_shape = base.shape if isinstance(base, ArrayVal) else None
        keys: list[object] = []
        result: list[Dim] = []
        advanced = False
        axis = 0
        rank = len(base_shape) if base_shape is not None else None
        explicit = sum(
            1
            for element in elements
            if not (
                isinstance(element, ast.Constant) and element.value is None
            )
        )
        if rank is not None and explicit > rank:
            self._issue(
                "shape",
                node,
                f"{explicit} indices into a rank-{rank} array "
                f"{_fmt_shape(base_shape)}",
            )
        for element in elements:
            if isinstance(element, ast.Constant) and element.value is None:
                result.append(1)  # np.newaxis
                continue
            if isinstance(element, ast.Slice):
                for bound in (element.lower, element.upper, element.step):
                    if bound is not None:
                        self._eval(bound)
                full = (
                    element.lower is None
                    and element.upper is None
                    and element.step is None
                )
                keys.append(":")
                if base_shape is not None and axis < len(base_shape):
                    result.append(base_shape[axis] if full else None)
                else:
                    result.append(None)
                axis += 1
                continue
            value = self._eval(element)
            if isinstance(value, ArrayVal):
                advanced = True
                index_shape = value.shape
                if value.dtype == "bool":
                    if (
                        index_shape is not None
                        and base_shape is not None
                        and len(index_shape) == len(base_shape)
                    ):
                        result[:] = [None]
                        axis = len(base_shape)
                    else:
                        result.append(None)
                        axis += 1
                else:
                    if index_shape is not None:
                        result.extend(index_shape)
                    else:
                        result.append(None)
                    axis += 1
                keys.append("?")
                continue
            if isinstance(element, ast.Constant) and isinstance(
                element.value, int
            ):
                keys.append(element.value)
            else:
                keys.append("?")
            axis += 1  # integer index consumes the axis, adds no dim
        if base_shape is not None:
            result.extend(base_shape[axis:])
            for _ in range(len(base_shape) - axis):
                keys.append(":")
        shape: Shape = tuple(result) if base_shape is not None else None
        if advanced:
            return shape, "advanced"
        return shape, tuple(keys)

    # -- attributes & calls --------------------------------------------

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        value = self._eval(node.value)
        if isinstance(value, ArrayVal):
            if node.attr == "shape":
                if value.shape is not None:
                    return TupleVal(value.shape)
                return UNKNOWN
            if node.attr in ("ndim", "size"):
                return ScalarVal("int64")
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> Value:
        resolved = self.ctx.resolve(node.func)
        if resolved is not None and resolved.startswith("numpy."):
            return self._numpy_call(resolved[len("numpy.") :], node)
        args = [
            self._eval(arg)
            for arg in node.args
            if not isinstance(arg, ast.Starred)
        ]
        for keyword in node.keywords:
            self._eval(keyword.value)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "len" and args and isinstance(args[0], ArrayVal):
                shape = args[0].shape
                return ScalarVal(
                    "int64", shape[0] if shape else None
                )
            if func.id in ("int", "round"):
                return ScalarVal("int64")
            if func.id == "float":
                return ScalarVal("float64")
            if func.id == "bool":
                return ScalarVal("bool")
            if func.id in self.local_kernels:
                return self._kernel_call(func.id, args)
            return UNKNOWN
        if isinstance(func, ast.Attribute):
            # A method call reads its receiver (``.fill`` writes it and
            # is recorded in _method_call instead).
            receiver = self._eval(
                func.value, record_read=func.attr != "fill"
            )
            return self._method_call(func, receiver, node)
        return UNKNOWN

    def _method_call(
        self, func: ast.Attribute, receiver: Value, node: ast.Call
    ) -> Value:
        if not isinstance(receiver, ArrayVal):
            return UNKNOWN
        if func.attr == "copy":
            return ArrayVal(receiver.dtype, receiver.shape, self._fresh())
        if func.attr == "ravel":
            length: Dim = None
            if receiver.shape is not None and len(receiver.shape) == 1:
                length = receiver.shape[0]
            return ArrayVal(
                receiver.dtype, (length,), receiver.region.child("*")
            )
        if func.attr == "reshape":
            dims = [self._eval(arg) for arg in node.args]
            shape: Shape = None
            if len(dims) == 1 and isinstance(dims[0], TupleVal):
                shape = dims[0].dims
            elif dims and all(isinstance(d, ScalarVal) for d in dims):
                shape = tuple(
                    d.dim for d in dims if isinstance(d, ScalarVal)
                )
            return ArrayVal(
                receiver.dtype, shape, receiver.region.child("*")
            )
        if func.attr == "astype":
            dtype = self._dtype_argument(node.args[0]) if node.args else None
            return ArrayVal(dtype, receiver.shape, self._fresh())
        if func.attr in ("sum", "min", "max"):
            return ScalarVal(receiver.dtype)
        if func.attr in ("any", "all"):
            return ScalarVal("bool")
        if func.attr == "fill" and isinstance(func.value, ast.Name):
            self.writes.append(
                (func.value.id, receiver.region, node.lineno)
            )
            return UNKNOWN
        return UNKNOWN

    def _kernel_call(self, name: str, args: list[Value]) -> Value:
        spec = self.local_kernels[name]
        if spec.returns is None:
            return UNKNOWN
        bindings: dict[str, Dim] = {}
        for (param, declared), actual in zip(spec.arrays.items(), args):
            _, declared_dims = declared
            if declared_dims is None or not isinstance(actual, ArrayVal):
                continue
            if actual.shape is None or len(actual.shape) != len(
                declared_dims
            ):
                continue
            for declared_dim, actual_dim in zip(declared_dims, actual.shape):
                if isinstance(declared_dim, tuple):
                    bindings.setdefault(
                        declared_dim[0],
                        _dim_shift(actual_dim, -declared_dim[1]),
                    )
        dtype, dims = spec.returns
        shape: Shape = None
        if dims is not None:
            resolved: list[Dim] = []
            for dim in dims:
                if isinstance(dim, tuple):
                    resolved.append(
                        _dim_shift(bindings.get(dim[0]), dim[1])
                    )
                else:
                    resolved.append(dim)
            shape = tuple(resolved)
        return ArrayVal(dtype, shape, self._fresh())

    # -- numpy call table ----------------------------------------------

    def _dtype_argument(self, node: ast.expr) -> str | None:
        resolved = self.ctx.resolve(node)
        if resolved is not None and resolved.startswith("numpy."):
            return _DTYPE_NAMES.get(resolved[len("numpy.") :])
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_NAMES.get(node.value)
        if isinstance(node, ast.Name):
            return _DTYPE_NAMES.get(node.id)
        return None

    def _numpy_call(self, tail: str, node: ast.Call) -> Value:
        args = [
            self._eval(arg)
            for arg in node.args
            if not isinstance(arg, ast.Starred)
        ]
        keywords: dict[str, Value] = {}
        keyword_nodes: dict[str, ast.expr] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            keyword_nodes[keyword.arg] = keyword.value
            if keyword.arg == "dtype":
                keywords["dtype"] = UNKNOWN
            else:
                keywords[keyword.arg] = self._eval(keyword.value)
        dtype_kw = (
            self._dtype_argument(keyword_nodes["dtype"])
            if "dtype" in keyword_nodes
            else None
        )

        if tail in _BINARY_UFUNCS:
            return self._binary_ufunc(tail, node, args, keywords, keyword_nodes)
        if tail in _UNARY_UFUNCS:
            operand = args[0] if args else UNKNOWN
            dtype = _value_dtype(operand)
            if tail in ("sqrt", "exp", "log"):
                dtype = _true_divide(dtype, dtype)
            shape = operand.shape if isinstance(operand, ArrayVal) else None
            result = ArrayVal(dtype, shape, self._fresh())
            return self._apply_out(node, args, keywords, keyword_nodes, result)
        if tail == "copyto":
            if len(args) >= 2:
                self._write_into(node, args[0], args[1:], node.args[0])
            return UNKNOWN
        if tail == "bincount":
            return self._bincount(node, args, keywords)
        if tail == "repeat":
            dtype = _value_dtype(args[0]) if args else None
            return ArrayVal(dtype, (None,), self._fresh())
        if tail == "arange":
            scalars = [a for a in args if isinstance(a, ScalarVal)]
            dim = scalars[0].dim if len(scalars) == 1 else None
            dtype = dtype_kw or (
                "int64"
                if all(not _is_float(s.dtype) for s in scalars)
                else "float64"
            )
            return ArrayVal(dtype, (dim,), self._fresh())
        if tail in ("empty", "zeros", "ones", "full"):
            shape = _shape_argument(args[0]) if args else None
            if tail == "full":
                fill = args[1] if len(args) > 1 else UNKNOWN
                dtype = dtype_kw or _value_dtype(fill)
            else:
                dtype = dtype_kw or "float64"
            return ArrayVal(dtype, shape, self._fresh())
        if tail in ("asarray", "ascontiguousarray", "array"):
            source = args[0] if args else UNKNOWN
            if isinstance(source, ArrayVal):
                return ArrayVal(
                    dtype_kw or source.dtype, source.shape, self._fresh()
                )
            return ArrayVal(dtype_kw, None, self._fresh())
        if tail in ("sum", "amin", "amax", "min", "max", "prod"):
            return self._reduction(node, args, keywords, keyword_nodes)
        if tail == "where":
            shapes = [
                a.shape for a in args if isinstance(a, ArrayVal)
            ]
            shape = shapes[0] if shapes else None
            operands = [_value_dtype(a) for a in args[1:]]
            dtype = (
                _promote(operands[0], operands[1])
                if len(operands) == 2
                else None
            )
            return ArrayVal(dtype, shape, self._fresh())
        if tail == "unique":
            dtype = _value_dtype(args[0]) if args else None
            return ArrayVal(dtype, (None,), self._fresh())
        if tail == "isin":
            shape = args[0].shape if args and isinstance(args[0], ArrayVal) else None
            return ArrayVal("bool", shape, self._fresh())
        if tail == "append":
            dtype = _value_dtype(args[0]) if args else None
            return ArrayVal(dtype, (None,), self._fresh())
        if tail == "nonzero":
            return UNKNOWN
        return UNKNOWN

    def _binary_ufunc(
        self,
        tail: str,
        node: ast.Call,
        args: list[Value],
        keywords: dict[str, Value],
        keyword_nodes: dict[str, ast.expr],
    ) -> Value:
        left = args[0] if args else UNKNOWN
        right = args[1] if len(args) > 1 else UNKNOWN
        left_dtype = _value_dtype(left)
        right_dtype = _value_dtype(right)
        if tail in ("divide", "true_divide"):
            dtype = _true_divide(left_dtype, right_dtype)
        elif tail in _BOOL_UFUNCS:
            dtype = "bool"
        else:
            dtype = _promote(left_dtype, right_dtype)
        left_shape = left.shape if isinstance(left, ArrayVal) else ()
        right_shape = right.shape if isinstance(right, ArrayVal) else ()
        shape, witness = _broadcast(left_shape, right_shape)
        if witness is not None:
            self._issue(
                "shape",
                node,
                f"np.{tail} operands cannot broadcast: {witness}",
            )
        result = ArrayVal(dtype, shape, self._fresh())
        return self._apply_out(node, args, keywords, keyword_nodes, result)

    def _apply_out(
        self,
        node: ast.Call,
        args: list[Value],
        keywords: dict[str, Value],
        keyword_nodes: dict[str, ast.expr],
        result: ArrayVal,
    ) -> Value:
        out = keywords.get("out")
        out_node = keyword_nodes.get("out")
        if out is None and len(node.args) >= 3:
            out = args[2]
            out_node = node.args[2]
        if out is None or not isinstance(out, ArrayVal):
            return result
        inputs = args[:2]
        self._write_into(node, out, inputs, out_node)
        if _narrows(result.dtype, out.dtype):
            self._issue(
                "narrowing",
                node,
                f"ufunc result is {result.dtype} but out= targets a "
                f"{out.dtype} array — silent dtype narrowing",
            )
        _, witness = _broadcast(result.shape, out.shape)
        if witness is not None:
            self._issue(
                "shape",
                node,
                f"ufunc result cannot broadcast into out=: {witness}",
            )
        return out

    def _write_into(
        self,
        node: ast.Call,
        out: Value,
        inputs: Sequence[Value],
        out_node: ast.expr | None,
    ) -> None:
        if not isinstance(out, ArrayVal):
            return
        for value in inputs:
            if not isinstance(value, ArrayVal):
                continue
            if value.region == out.region:
                continue  # exact self-update (x op y -> x) is safe
            if _regions_overlap(value.region, out.region):
                self._issue(
                    "alias",
                    node,
                    "in-place output overlaps an input through another "
                    "view of the same buffer — the write is observed "
                    "mid-pass",
                )
        name = ""
        if isinstance(out_node, ast.Name):
            name = out_node.id
        self.writes.append((name, out.region, node.lineno))

    def _bincount(
        self, node: ast.Call, args: list[Value], keywords: dict[str, Value]
    ) -> Value:
        source = args[0] if args else UNKNOWN
        if (
            isinstance(source, ArrayVal)
            and source.shape is not None
            and len(source.shape) != 1
        ):
            self._issue(
                "shape",
                node,
                f"np.bincount input must be 1-D, got "
                f"{_fmt_shape(source.shape)}",
            )
        weights = keywords.get("weights")
        if (
            isinstance(weights, ArrayVal)
            and isinstance(source, ArrayVal)
            and weights.shape is not None
            and source.shape is not None
        ):
            _, witness = _broadcast(source.shape, weights.shape)
            if witness is not None:
                self._issue(
                    "shape",
                    node,
                    f"np.bincount weights misaligned: {witness}",
                )
        dtype = (
            "float64" if isinstance(weights, ArrayVal) or isinstance(
                weights, ScalarVal
            ) else "int64"
        )
        minlength = keywords.get("minlength")
        length: Dim = None
        if isinstance(minlength, ScalarVal):
            length = minlength.dim
        return ArrayVal(dtype, (length,), self._fresh())

    def _reduction(
        self,
        node: ast.Call,
        args: list[Value],
        keywords: dict[str, Value],
        keyword_nodes: dict[str, ast.expr],
    ) -> Value:
        source = args[0] if args else UNKNOWN
        dtype = _value_dtype(source)
        axis_node = keyword_nodes.get("axis")
        if axis_node is None and len(node.args) > 1:
            axis_node = node.args[1]
        if axis_node is None:
            return ScalarVal(dtype)
        if not isinstance(source, ArrayVal) or source.shape is None:
            return UNKNOWN
        if isinstance(axis_node, ast.Constant) and isinstance(
            axis_node.value, int
        ):
            axis = axis_node.value
            rank = len(source.shape)
            if axis >= rank or axis < -rank:
                self._issue(
                    "shape",
                    node,
                    f"reduction over axis {axis} of a rank-{rank} array "
                    f"{_fmt_shape(source.shape)}",
                )
                return UNKNOWN
            shape = tuple(
                dim
                for index, dim in enumerate(source.shape)
                if index != axis % rank
            )
            return ArrayVal(dtype, shape, self._fresh())
        return UNKNOWN


_BINARY_UFUNCS = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "divide",
        "true_divide",
        "floor_divide",
        "minimum",
        "maximum",
        "fmin",
        "fmax",
        "power",
        "mod",
        "remainder",
        "logical_and",
        "logical_or",
        "logical_xor",
        "equal",
        "not_equal",
        "greater",
        "greater_equal",
        "less",
        "less_equal",
        "bitwise_and",
        "bitwise_or",
    }
)

_BOOL_UFUNCS = frozenset(
    {
        "logical_and",
        "logical_or",
        "logical_xor",
        "equal",
        "not_equal",
        "greater",
        "greater_equal",
        "less",
        "less_equal",
    }
)

_UNARY_UFUNCS = frozenset(
    {
        "negative",
        "absolute",
        "abs",
        "sqrt",
        "exp",
        "log",
        "floor",
        "ceil",
        "rint",
        "sign",
        "logical_not",
        "invert",
    }
)


def _value_dtype(value: Value) -> str | None:
    if isinstance(value, (ArrayVal, ScalarVal)):
        return value.dtype
    return None


def _shape_argument(value: Value) -> Shape:
    if isinstance(value, TupleVal):
        return value.dims
    if isinstance(value, ScalarVal):
        return (value.dim,)
    return None


def _dim_add(a: Dim, b: Dim) -> Dim:
    if isinstance(b, int) and b is not None:
        return _dim_shift(a, b)
    if isinstance(a, int):
        return _dim_shift(b, a)
    return None


def _dim_sub(a: Dim, b: Dim) -> Dim:
    if isinstance(b, int):
        return _dim_shift(a, -b)
    return None


def _join_value(
    a: Value, b: Value, fresh: Callable[[], _Region]
) -> Value:
    if isinstance(a, ArrayVal) and isinstance(b, ArrayVal):
        if a == b:
            return a
        dtype = a.dtype if a.dtype == b.dtype else None
        shape: Shape = None
        if (
            a.shape is not None
            and b.shape is not None
            and len(a.shape) == len(b.shape)
        ):
            shape = tuple(
                _join_dim(dim_a, dim_b)
                for dim_a, dim_b in zip(a.shape, b.shape)
            )
        # Joining two distinct regions: model as a fresh buffer —
        # unsound for aliasing but conservative for false positives.
        region = a.region if a.region == b.region else fresh()
        return ArrayVal(dtype, shape, region)
    if isinstance(a, ScalarVal) and isinstance(b, ScalarVal):
        return ScalarVal(
            a.dtype if a.dtype == b.dtype else None,
            _join_dim(a.dim, b.dim),
        )
    if isinstance(a, TupleVal) and isinstance(b, TupleVal):
        if len(a.dims) == len(b.dims):
            return TupleVal(
                tuple(_join_dim(x, y) for x, y in zip(a.dims, b.dims))
            )
        return UNKNOWN
    if a is b:
        return a
    return UNKNOWN


def _join_env(
    a: Mapping[str, Value],
    b: Mapping[str, Value],
    fresh: Callable[[], _Region],
) -> dict[str, Value]:
    joined: dict[str, Value] = {}
    for name in set(a) | set(b):
        if name in a and name in b:
            joined[name] = _join_value(a[name], b[name], fresh)
        else:
            joined[name] = UNKNOWN
    return joined


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def analyze_kernels(ctx: FileContext) -> dict[str, NumericSummary]:
    """``function name -> NumericSummary`` for a file's ``@kernel`` defs.

    Returns an empty mapping for files with no registered kernels, so
    the extraction hook in :mod:`repro.checks.callgraph` costs nothing
    on the overwhelming majority of the corpus.
    """
    specs = collect_kernel_specs(ctx)
    if not specs:
        return {}
    consts = _module_constants(ctx.tree)
    summaries: dict[str, NumericSummary] = {}
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = specs.get(stmt.name)
        if spec is None:
            continue
        interpreter = _KernelInterpreter(ctx, stmt, spec, specs, consts)
        issues = sorted(
            interpreter.run(),
            key=lambda issue: (
                issue.lineno,
                issue.col,
                issue.kind,
                issue.detail,
            ),
        )
        summaries[stmt.name] = NumericSummary(issues=tuple(issues))
    return summaries


# ----------------------------------------------------------------------
# JSON-shape narrowing helpers (cache entries arrive untyped)
# ----------------------------------------------------------------------


def _int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return int(value)


def _list(value: object) -> list[object]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return list(value)


def _dict(value: object) -> dict[str, object]:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _expr_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - only on malformed trees
        return "<expr>"
