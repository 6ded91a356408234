"""Tensor-expression layer: placeholders, compute ops and iteration variables.

This is the reproduction's equivalent of TVM's ``te`` module that the
thesis builds its operator inventory on (Section 2.5.1):

* :func:`placeholder` declares an input tensor;
* :func:`compute` declares an output tensor from an index-wise expression;
* :func:`reduce_axis` + :func:`sum`/:func:`max_reduce` declare reductions.

A compute body may carry a fused *epilogue* — the injective operations
(bias add, ReLU, batch-norm, residual add) that Relay's operator-fusion
pass attaches to the output of convolutions and dense layers (Section 3.1).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

from repro.errors import IRError
from repro.ir import expr as _e
from repro.ir.buffer import Buffer

DimLike = Union[int, _e.Var]


class IterVar:
    """An iteration variable with an extent and a kind.

    ``kind`` is ``"data"`` for output (parallel) axes and ``"reduce"`` for
    reduction axes.  Extents may be symbolic for parameterized kernels.
    """

    __slots__ = ("var", "extent", "kind")

    def __init__(
        self, var: _e.Var, extent: Union[int, _e.Expr], kind: str = "data"
    ) -> None:
        if kind not in ("data", "reduce"):
            raise IRError(f"bad IterVar kind {kind!r}")
        if isinstance(extent, int) and extent <= 0:
            raise IRError(f"IterVar {var.name}: non-positive extent {extent}")
        self.var = var
        self.extent = extent
        self.kind = kind

    @property
    def name(self) -> str:
        return self.var.name

    @property
    def static_extent(self) -> Optional[int]:
        if isinstance(self.extent, int):
            return self.extent
        if isinstance(self.extent, _e.IntImm):
            return self.extent.value
        return None

    @property
    def is_reduce(self) -> bool:
        return self.kind == "reduce"

    # arithmetic sugar so reduce axes compose in index expressions
    # (``I[rc, yy + ry, xx + rx]``): delegate to the underlying Var.
    def __add__(self, other):
        return self.var + other

    def __radd__(self, other):
        return other + self.var if isinstance(other, _e.Expr) else self.var + other

    def __sub__(self, other):
        return self.var - other

    def __mul__(self, other):
        return self.var * other

    def __rmul__(self, other):
        return other * self.var if isinstance(other, _e.Expr) else self.var * other

    def extent_expr(self) -> _e.Expr:
        return self.extent if isinstance(self.extent, _e.Expr) else _e.IntImm(self.extent)

    def __repr__(self) -> str:
        if isinstance(self.extent, _e.Expr):
            from repro.ir.printer import expr_str

            ext = expr_str(self.extent)
        else:
            ext = str(self.extent)
        return f"IterVar({self.name}:{ext}:{self.kind})"


#: Epilogue signature: (accumulated value, output index vars) -> final value.
Epilogue = Callable[..., _e.Expr]


class Tensor:
    """A named tensor: either a placeholder or the result of a compute op.

    Indexing a tensor (``t[i, j]``) builds a :class:`~repro.ir.expr.Load`
    on its backing buffer, so compute bodies written against tensors lower
    directly to flat-indexed IR.
    """

    __slots__ = ("name", "shape", "dtype", "buffer", "op")

    def __init__(
        self,
        name: str,
        shape: Sequence[DimLike],
        dtype: str = _e.FLOAT32,
        op: Optional["ComputeOp"] = None,
        scope: str = "global",
    ) -> None:
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.buffer = Buffer(name, self.shape, dtype, scope)
        self.op = op

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_placeholder(self) -> bool:
        return self.op is None

    def __getitem__(self, indices) -> _e.Load:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return self.buffer.load(*indices)

    def num_elements(self) -> Optional[int]:
        return self.buffer.num_elements()

    def __repr__(self) -> str:
        dims = "x".join(
            d.name if isinstance(d, _e.Var) else str(d) for d in self.shape
        )
        kind = "placeholder" if self.is_placeholder else "compute"
        return f"Tensor({self.name}: [{dims}], {kind})"


class ComputeOp:
    """An index-wise tensor computation, possibly with a reduction.

    ``body`` is the per-output-element expression; if it is a
    :class:`~repro.ir.expr.Reduce`, lowering produces init/accumulate/
    writeback loop nests.  ``epilogue`` (if set) is applied to the final
    value right before it is stored — this is where fused activations and
    batch norms live.
    """

    __slots__ = ("name", "axes", "reduce_axes", "body", "epilogue", "inputs")

    def __init__(
        self,
        name: str,
        axes: Sequence[IterVar],
        body: _e.Expr,
        inputs: Sequence[Tensor],
        epilogue: Optional[Epilogue] = None,
    ) -> None:
        self.name = name
        self.axes: Tuple[IterVar, ...] = tuple(axes)
        if any(ax.is_reduce for ax in self.axes):
            raise IRError("output axes must be data axes")
        self.body = body
        self.reduce_axes: Tuple[IterVar, ...] = (
            body.axes if isinstance(body, _e.Reduce) else ()
        )
        self.epilogue = epilogue
        self.inputs = tuple(inputs)

    @property
    def has_reduction(self) -> bool:
        return isinstance(self.body, _e.Reduce)

    def __repr__(self) -> str:
        return f"ComputeOp({self.name}, axes={[a.name for a in self.axes]})"


_unique_counter = [0]


def _fresh(prefix: str) -> str:
    _unique_counter[0] += 1
    return f"{prefix}{_unique_counter[0]}"


def reset_fresh_names(start: int = 0) -> None:
    """Restart the name uniquifier (called at the top of a build).

    Axis names carry a process-global counter, so without a reset two
    otherwise identical builds emit differently-named loop variables and
    the generated source is not content-addressable.  Builders reset the
    counter before constructing tensors; uniqueness within one program
    is preserved because the counter only restarts between builds.
    ``start`` resumes the counter where a build had it, so one kernel of
    that build can be constructed again under the build's own names.
    """
    _unique_counter[0] = start


def fresh_name_count() -> int:
    """The uniquifier's current value (see :func:`reset_fresh_names`)."""
    return _unique_counter[0]


def placeholder(shape: Sequence[DimLike], name: str, dtype: str = _e.FLOAT32) -> Tensor:
    """Declare an input tensor (weights, activations, biases)."""
    return Tensor(name, shape, dtype)


def reduce_axis(extent: DimLike, name: str) -> IterVar:
    """Declare a reduction axis of the given extent."""
    return IterVar(_e.Var(name), extent, kind="reduce")


def sum(value: _e.ExprLike, axes: Sequence[IterVar]) -> _e.Reduce:
    """Sum-reduction of ``value`` over ``axes``."""
    return _e.Reduce("sum", value, axes)


def max_reduce(value: _e.ExprLike, axes: Sequence[IterVar]) -> _e.Reduce:
    """Max-reduction (max pooling)."""
    return _e.Reduce("max", value, axes)


def compute(
    shape: Sequence[DimLike],
    fcompute: Callable[..., _e.Expr],
    name: str,
    inputs: Sequence[Tensor],
    axis_names: Optional[Sequence[str]] = None,
    epilogue: Optional[Epilogue] = None,
) -> Tensor:
    """Declare an output tensor computed index-wise by ``fcompute``.

    ``fcompute`` receives one loop variable per output dimension and
    returns the per-element expression (optionally a Reduce).
    ``inputs`` lists tensors read by the body *and* the epilogue so the
    kernel signature and the functional executor know every operand.
    """
    shape = tuple(shape)
    if axis_names is None:
        axis_names = [f"ax{i}" for i in range(len(shape))]
    if len(axis_names) != len(shape):
        raise IRError("axis_names length must match shape")
    axes = [
        IterVar(_e.Var(_fresh(nm + "_")), ext) for nm, ext in zip(axis_names, shape)
    ]
    body = fcompute(*[ax.var for ax in axes])
    if not isinstance(body, _e.Expr):
        raise IRError("fcompute must return an expression")
    op = ComputeOp(name, axes, body, inputs, epilogue)
    return Tensor(name, shape, body.dtype, op=op)
