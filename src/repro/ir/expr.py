"""Scalar expression IR.

This mirrors the lowered tensor-IR expression language of TVM that the
thesis's kernels are generated from: integer/float immediates, variables,
arithmetic, comparisons, selects, buffer loads, intrinsic calls and channel
reads.  Expressions are immutable trees; Python operators are overloaded so
compute definitions read naturally (``a[i] * w[j] + b[k]``).

Two dtypes are used throughout the reproduction: ``int32`` for indices and
shape/stride arguments, ``float32`` for tensor data.  This matches the
thesis, which deploys single-precision floating-point networks.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Union

from repro.errors import IRError

INT32 = "int32"
FLOAT32 = "float32"
BOOL = "bool"

#: Types accepted wherever an expression is expected.
ExprLike = Union["Expr", int, float]


def _dtype_of(a: "Expr", b: "Expr") -> str:
    """Result dtype of a binary arithmetic op (float wins over int)."""
    if FLOAT32 in (a.dtype, b.dtype):
        return FLOAT32
    return INT32


class Expr:
    """Base class of all scalar expressions.

    Subclasses define ``__slots__`` with their child fields; structural
    equality and hashing are provided so expressions can be deduplicated
    and compared in tests.
    """

    __slots__ = ("dtype",)
    dtype: str

    # -- operator sugar ------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, const_like(other, self))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(const_like(other, self), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Sub(self, const_like(other, self))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Sub(const_like(other, self), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, const_like(other, self))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(const_like(other, self), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Div(self, const_like(other, self))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Div(const_like(other, self), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(self, const_like(other, self))

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod(self, const_like(other, self))

    def __neg__(self) -> "Expr":
        return Sub(const(0, self.dtype), self)

    # comparisons intentionally build IR nodes, so Python's chained
    # comparison and __eq__-based container behaviours are unavailable;
    # use ``same_as`` / ``structural_equal`` for identity tests.
    def __lt__(self, other: ExprLike) -> "Expr":
        return LT(self, const_like(other, self))

    def __le__(self, other: ExprLike) -> "Expr":
        return LE(self, const_like(other, self))

    def __gt__(self, other: ExprLike) -> "Expr":
        return GT(self, const_like(other, self))

    def __ge__(self, other: ExprLike) -> "Expr":
        return GE(self, const_like(other, self))

    def equal(self, other: ExprLike) -> "Expr":
        """Build an equality-comparison IR node (``==`` is kept for Python)."""
        return EQ(self, const_like(other, self))

    def same_as(self, other: object) -> bool:
        """Reference identity (TVM naming)."""
        return self is other

    # children -----------------------------------------------------------
    def children(self) -> Iterable["Expr"]:
        """Yield direct sub-expressions (for generic traversal)."""
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, Expr):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    if isinstance(item, Expr):
                        yield item

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from repro.ir.printer import expr_str

        return expr_str(self)


class IntImm(Expr):
    """Integer immediate."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise IRError(f"IntImm needs an int, got {value!r}")
        self.value = value
        self.dtype = INT32


class FloatImm(Expr):
    """Single-precision float immediate."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)
        self.dtype = FLOAT32


class StringImm(Expr):
    """String immediate (pragma payloads and attribute values)."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value
        self.dtype = "handle"


class Var(Expr):
    """A named scalar variable: loop iterators, symbolic shapes, kernel args.

    Symbolic-shape execution (thesis Section 5.3) represents unknown tensor
    dimensions as ``Var`` objects that become runtime kernel arguments;
    those are interned (:func:`sym`) and unpickle to the same object.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, dtype: str = INT32) -> None:
        if not name:
            raise IRError("Var needs a non-empty name")
        self.name = name
        self.dtype = dtype

    def __reduce__(self):
        if _SYMBOLS.get(self.name) is self:
            return sym, (self.name,)
        return type(self), (self.name, self.dtype)


#: the process's one Var per symbolic shape/stride name
_SYMBOLS: dict = {}


def sym(name: str) -> Var:
    """The process's one ``int32`` :class:`Var` named ``name``.

    Symbolic shape and stride arguments are interned, so every build,
    every compile-cache replay (in this or another process) and every
    forked worker's result binds the same objects.
    """
    v = _SYMBOLS.get(name)
    if v is None:
        v = _SYMBOLS[name] = Var(name)
    return v


class _BinaryOp(Expr):
    """Shared base for binary arithmetic/compare nodes."""

    __slots__ = ("a", "b")
    op_name = "?"

    def __init__(self, a: ExprLike, b: ExprLike) -> None:
        self.a = convert(a)
        self.b = convert(b)
        self.dtype = self._result_dtype()

    def _result_dtype(self) -> str:
        return _dtype_of(self.a, self.b)


class Add(_BinaryOp):
    op_name = "+"


class Sub(_BinaryOp):
    op_name = "-"


class Mul(_BinaryOp):
    op_name = "*"


class Div(_BinaryOp):
    """True (float) division."""

    op_name = "/"


class FloorDiv(_BinaryOp):
    """Integer floor division (C ``/`` on non-negative operands)."""

    op_name = "//"


class Mod(_BinaryOp):
    """Integer modulo; flagged expensive on FPGAs by the AOC model."""

    op_name = "%"


class Min(_BinaryOp):
    op_name = "min"


class Max(_BinaryOp):
    op_name = "max"


class _CmpOp(_BinaryOp):
    def _result_dtype(self) -> str:
        return BOOL


class LT(_CmpOp):
    op_name = "<"


class LE(_CmpOp):
    op_name = "<="


class GT(_CmpOp):
    op_name = ">"


class GE(_CmpOp):
    op_name = ">="


class EQ(_CmpOp):
    op_name = "=="


class NE(_CmpOp):
    op_name = "!="


class And(_CmpOp):
    op_name = "&&"


class Or(_CmpOp):
    op_name = "||"


class Not(Expr):
    __slots__ = ("a",)

    def __init__(self, a: ExprLike) -> None:
        self.a = convert(a)
        self.dtype = BOOL


class Cast(Expr):
    """Explicit dtype conversion."""

    __slots__ = ("value",)

    def __init__(self, dtype: str, value: ExprLike) -> None:
        self.value = convert(value)
        self.dtype = dtype


class Select(Expr):
    """Ternary select: ``cond ? then_value : else_value``.

    Both arms are evaluated (this is how generated OpenCL padding kernels
    behave, and why the thesis finds them inefficient on FPGA).
    """

    __slots__ = ("cond", "then_value", "else_value")

    def __init__(self, cond: ExprLike, then_value: ExprLike, else_value: ExprLike) -> None:
        self.cond = convert(cond)
        self.then_value = convert(then_value)
        self.else_value = convert(else_value)
        if self.then_value.dtype != self.else_value.dtype:
            raise IRError("Select arms must share a dtype")
        self.dtype = self.then_value.dtype


class Call(Expr):
    """Intrinsic call (``exp``, ``sqrt``...).  Pure by construction."""

    INTRINSICS = ("exp", "sqrt", "fabs", "floor", "ceil", "tanh", "log")

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[ExprLike], dtype: str = FLOAT32) -> None:
        if name not in self.INTRINSICS:
            raise IRError(f"unknown intrinsic {name!r}")
        self.name = name
        self.args = tuple(convert(a) for a in args)
        self.dtype = dtype


class Load(Expr):
    """Flat-indexed load from a buffer: ``buffer[index]``."""

    __slots__ = ("buffer", "index")

    def __init__(self, buffer: Any, index: ExprLike) -> None:
        self.buffer = buffer
        self.index = convert(index)
        if self.index.dtype != INT32:
            raise IRError("Load index must be int32")
        self.dtype = buffer.dtype


class ChannelRead(Expr):
    """Blocking read from an Intel OpenCL channel (``read_channel_intel``)."""

    __slots__ = ("channel",)

    def __init__(self, channel: Any) -> None:
        self.channel = channel
        self.dtype = channel.dtype


class Reduce(Expr):
    """Unresolved reduction over one or more reduce axes.

    Only appears inside tensor-expression compute bodies; lowering turns
    it into an init + accumulate loop nest.  ``kind`` is ``"sum"``,
    ``"max"`` or ``"min"``.
    """

    KINDS = ("sum", "max", "min")
    IDENTITY = {"sum": 0.0, "max": -3.402823e38, "min": 3.402823e38}

    __slots__ = ("kind", "value", "axes")

    def __init__(self, kind: str, value: ExprLike, axes: Sequence[Any]) -> None:
        if kind not in self.KINDS:
            raise IRError(f"unknown reduction kind {kind!r}")
        if not axes:
            raise IRError("Reduce needs at least one axis")
        self.kind = kind
        self.value = convert(value)
        self.axes = tuple(axes)
        self.dtype = self.value.dtype

    def combine(self, acc: Expr, update: Expr) -> Expr:
        """Apply the reduction combinator to (accumulator, update)."""
        if self.kind == "sum":
            return Add(acc, update)
        if self.kind == "max":
            return Max(acc, update)
        return Min(acc, update)

    @property
    def identity(self) -> "FloatImm":
        return FloatImm(self.IDENTITY[self.kind])


# ---------------------------------------------------------------------------
# constructors


def const(value: Union[int, float], dtype: str = INT32) -> Expr:
    """Make an immediate of the given dtype."""
    if dtype == INT32:
        return IntImm(int(value))
    if dtype == FLOAT32:
        return FloatImm(float(value))
    raise IRError(f"cannot make a constant of dtype {dtype}")


def const_like(value: ExprLike, ref: Expr) -> Expr:
    """Convert ``value`` to an Expr, using ``ref``'s dtype for raw numbers."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise IRError("bool immediates are not supported")
    if isinstance(value, int) and ref.dtype == INT32:
        return IntImm(value)
    if isinstance(value, (int, float)):
        return FloatImm(float(value))
    return convert(value)


def convert(value: ExprLike) -> Expr:
    """Coerce a Python number to an immediate (ints->IntImm, floats->FloatImm).

    IterVars (duck-typed via their ``var`` attribute) convert to their
    underlying loop variable so reduce axes can be used in index math.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise IRError("bool immediates are not supported")
    if isinstance(value, int):
        return IntImm(value)
    if isinstance(value, float):
        return FloatImm(value)
    inner = getattr(value, "var", None)
    if isinstance(inner, Var):
        return inner
    raise IRError(f"cannot convert {value!r} to an expression")


def fmax(a: ExprLike, b: ExprLike) -> Expr:
    """Elementwise max intrinsic (ReLU building block)."""
    return Max(convert(a), convert(b))


def fmin(a: ExprLike, b: ExprLike) -> Expr:
    return Min(convert(a), convert(b))


def exp(a: ExprLike) -> Expr:
    """Exponential intrinsic (softmax building block)."""
    return Call("exp", [a])


def structural_equal(a: Expr, b: Expr) -> bool:
    """Deep structural comparison of two expression trees.

    ``Var`` nodes compare by identity (two distinct vars with the same name
    are different), immediates by value, everything else recursively.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (IntImm, FloatImm, StringImm)):
        return a.value == b.value
    if isinstance(a, Var):
        return a is b
    if isinstance(a, Load):
        return a.buffer is b.buffer and structural_equal(a.index, b.index)
    if isinstance(a, ChannelRead):
        return a.channel is b.channel
    if isinstance(a, Call):
        return a.name == b.name and all(
            structural_equal(x, y) for x, y in zip(a.args, b.args)
        )
    ca, cb = list(a.children()), list(b.children())
    if len(ca) != len(cb):
        return False
    return all(structural_equal(x, y) for x, y in zip(ca, cb))
