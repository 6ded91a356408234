"""Buffers and channels: the memory objects referenced by lowered IR.

A :class:`Buffer` corresponds to one OpenCL memory object.  Its *scope*
determines how the AOC model implements it (thesis Section 2.4.2):

``global``
    External memory (DDR4/HBM2); accessed through load-store units.
``local``
    On-chip block RAM shared within a kernel.
``register``
    Private registers; small accumulators created by cached writes
    (Section 4.5).
``constant``
    Constant cache carved out of global memory.

Shapes may mix integers and :class:`~repro.ir.expr.Var` — symbolic
dimensions are how parameterized kernels (Section 5.3) are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import IRError
from repro.ir import expr as _e

SCOPES = ("global", "local", "register", "constant")

ShapeDim = Union[int, _e.Var]


class Buffer:
    """A typed, shaped memory object with an allocation scope.

    ``strides`` (optional) gives an explicit per-dimension stride, each an
    int or a symbolic Var.  TVM's symbolic-shape kernels pass strides as
    runtime arguments (thesis Listing 5.10); a symbolic stride on the
    innermost dimension is what prevents AOC from coalescing accesses, and
    pinning it to the literal ``1`` (Listing 5.11) is the workaround this
    reproduction also implements.
    """

    __slots__ = ("name", "shape", "dtype", "scope", "strides")

    def __init__(
        self,
        name: str,
        shape: Sequence[ShapeDim],
        dtype: str = _e.FLOAT32,
        scope: str = "global",
        strides: Optional[Sequence[ShapeDim]] = None,
    ) -> None:
        if scope not in SCOPES:
            raise IRError(f"unknown buffer scope {scope!r}")
        if not name:
            raise IRError("Buffer needs a name")
        shape = tuple(shape)
        for dim in shape:
            if isinstance(dim, int):
                if dim <= 0:
                    raise IRError(f"buffer {name}: non-positive dim {dim}")
            elif not isinstance(dim, _e.Var):
                raise IRError(f"buffer {name}: dim must be int or Var, got {dim!r}")
        self.name = name
        self.shape: Tuple[ShapeDim, ...] = shape
        self.dtype = dtype
        self.scope = scope
        if strides is not None:
            strides = tuple(strides)
            if len(strides) != len(shape):
                raise IRError(f"buffer {name}: strides/shape rank mismatch")
        self.strides: Optional[Tuple[ShapeDim, ...]] = strides

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    def num_elements(
        self, bindings: Optional[Dict[_e.Var, int]] = None
    ) -> Optional[int]:
        """Element count under shape ``bindings``; None while any dim is
        symbolic and unbound."""
        total = 1
        for d in self.shape:
            if isinstance(d, _e.Var):
                d = (bindings or {}).get(d)
                if d is None:
                    return None
            total *= d
        return total

    def size_bytes(self) -> Optional[int]:
        """Static byte size (float32/int32 are 4 bytes), or None."""
        n = self.num_elements()
        return None if n is None else n * 4

    def require_num_elements(self) -> int:
        """Element count, raising when the shape is symbolic.

        Callers that *allocate* (host buffers, arena slots, transfer
        sizes) must use this instead of :meth:`num_elements`: a silently
        propagated ``None`` turns into a ``TypeError`` far from the
        cause.  The failure is the RM002 condition — a size unresolvable
        without bindings — reported where it arises.
        """
        n = self.num_elements()
        if n is None:
            sym = ", ".join(
                d.name for d in self.shape if isinstance(d, _e.Var)
            )
            raise IRError(
                f"buffer {self.name}: size is symbolic in ({sym}) and "
                "cannot be resolved without bindings (RM002) — bind the "
                "shape vars or verify the plan with repro.verify.memory"
            )
        return n

    def require_size_bytes(self) -> int:
        """Byte size, raising (RM002 condition) when symbolic."""
        return self.require_num_elements() * 4

    def flatten_index(self, indices: Sequence[_e.ExprLike]) -> _e.Expr:
        """Row-major flattening of multi-dimensional indices.

        Symbolic dims appear as Var factors in the resulting affine
        expression — exactly the stride expressions the thesis shows in
        Listing 5.10 that defeat AOC's access coalescing.
        """
        if len(indices) != self.ndim:
            raise IRError(
                f"buffer {self.name}: {len(indices)} indices for {self.ndim} dims"
            )
        if self.strides is not None:
            flat: _e.Expr = _e.IntImm(0)
            for stride, idx in zip(self.strides, indices):
                stride_e = stride if isinstance(stride, _e.Expr) else _e.IntImm(int(stride))
                flat = flat + _e.convert(idx) * stride_e
            return _simplify_affine(flat)
        flat = _e.convert(indices[0])
        for dim, idx in zip(self.shape[1:], indices[1:]):
            dim_e = dim if isinstance(dim, _e.Expr) else _e.IntImm(int(dim))
            flat = flat * dim_e + _e.convert(idx)
        return _simplify_affine(flat)

    def load(self, *indices: _e.ExprLike) -> _e.Load:
        """Build a Load of this buffer at multi-dim indices."""
        return _e.Load(self, self.flatten_index(indices))

    def __getitem__(self, indices) -> _e.Load:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return self.load(*indices)

    def with_scope(self, scope: str) -> "Buffer":
        """Copy of this buffer in a different scope (cache_write helper)."""
        return Buffer(self.name, self.shape, self.dtype, scope, self.strides)

    def __repr__(self) -> str:
        dims = "x".join(
            d.name if isinstance(d, _e.Var) else str(d) for d in self.shape
        )
        return f"Buffer({self.name}: {self.dtype}[{dims}] @{self.scope})"


@dataclass(frozen=True)
class Channel:
    """An Intel OpenCL channel: a FIFO datapath between two kernels.

    ``depth`` is the buffered-FIFO capacity in elements; the thesis sizes it
    to hold the producer's output feature map so producers never stall
    (Section 4.11).  Depth 0 models an unbuffered (register) channel.

    Channels are values, ``(name, dtype, depth)``, so a kernel replayed
    from the lower cache pairs with one built fresh beside it
    (:meth:`~repro.ir.kernel.Program.validate_channels`).
    """

    name: str
    dtype: str = _e.FLOAT32
    depth: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise IRError("channel depth must be >= 0")

    def read(self) -> _e.ChannelRead:
        return _e.ChannelRead(self)

    def __repr__(self) -> str:
        return f"Channel({self.name}, depth={self.depth})"


def _simplify_affine(e: _e.Expr) -> _e.Expr:
    """Light constant folding over +,*,// so flattened indices stay readable."""
    if isinstance(e, _e.Add):
        a, b = _simplify_affine(e.a), _simplify_affine(e.b)
        if isinstance(a, _e.IntImm) and isinstance(b, _e.IntImm):
            return _e.IntImm(a.value + b.value)
        if isinstance(a, _e.IntImm) and a.value == 0:
            return b
        if isinstance(b, _e.IntImm) and b.value == 0:
            return a
        return _e.Add(a, b)
    if isinstance(e, _e.Mul):
        a, b = _simplify_affine(e.a), _simplify_affine(e.b)
        if isinstance(a, _e.IntImm) and isinstance(b, _e.IntImm):
            return _e.IntImm(a.value * b.value)
        if isinstance(a, _e.IntImm) and a.value == 1:
            return b
        if isinstance(b, _e.IntImm) and b.value == 1:
            return a
        if isinstance(a, _e.IntImm) and a.value == 0:
            return a
        if isinstance(b, _e.IntImm) and b.value == 0:
            return b
        return _e.Mul(a, b)
    return e
