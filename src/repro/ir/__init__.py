"""Tensor-expression and statement IR (the reproduction's mini-TVM core).

Public surface::

    from repro import ir

    A = ir.placeholder((64, 32), "A")
    k = ir.reduce_axis(32, "k")
    C = ir.compute((64,), lambda i: ir.sum(A[i, k], [k]), "C", inputs=[A])
"""

from repro.ir.expr import (
    BOOL,
    FLOAT32,
    INT32,
    Add,
    And,
    Call,
    Cast,
    ChannelRead,
    Div,
    EQ,
    Expr,
    FloatImm,
    FloorDiv,
    GE,
    GT,
    IntImm,
    LE,
    Load,
    LT,
    Max,
    Min,
    Mod,
    Mul,
    NE,
    Not,
    Or,
    Reduce,
    Select,
    StringImm,
    Sub,
    Var,
    const,
    convert,
    exp,
    fmax,
    fmin,
    structural_equal,
)
from repro.ir.buffer import Buffer, Channel
from repro.ir.stmt import (
    Allocate,
    AttrStmt,
    ChannelWrite,
    Evaluate,
    For,
    ForKind,
    IfThenElse,
    SeqStmt,
    Stmt,
    Store,
    seq,
)
from repro.ir.tensor import (
    ComputeOp,
    IterVar,
    Tensor,
    compute,
    fresh_name_count,
    max_reduce,
    placeholder,
    reduce_axis,
    reset_fresh_names,
    sum,
)
from repro.ir.kernel import Kernel, Program
from repro.ir.analysis import (
    count_flops_expr,
    eval_int,
    free_vars,
    stride_of,
)
from repro.ir.functor import (
    ExprMutator,
    ExprVisitor,
    StmtMutator,
    StmtVisitor,
    substitute,
    substitute_stmt,
)
from repro.ir.printer import expr_str, stmt_str
from repro.ir.interp import ChannelState, Interpreter, run_kernel, run_program_sequential
from repro.ir.vinterp import BandEvent, VectorizedInterpreter, run_kernel_vectorized
from repro.ir.simplify import simplify_kernel, simplify_stmt

__all__ = [
    "Add", "And", "Allocate", "AttrStmt", "BOOL", "BandEvent", "Buffer",
    "Call", "Cast",
    "Channel", "ChannelRead", "ChannelState", "ChannelWrite", "ComputeOp",
    "Div", "EQ", "Evaluate", "Expr", "ExprMutator", "ExprVisitor", "FLOAT32",
    "FloatImm", "FloorDiv", "For", "ForKind", "GE", "GT", "IfThenElse",
    "INT32", "IntImm", "Interpreter", "IterVar", "Kernel", "LE", "Load", "LT", "Max",
    "Min", "Mod", "Mul", "NE", "Not", "Or", "Program", "Reduce", "Select",
    "SeqStmt", "Stmt", "StmtMutator", "StmtVisitor", "Store", "StringImm",
    "Sub", "Tensor", "Var", "compute", "const", "convert",
    "count_flops_expr", "eval_int", "exp", "expr_str", "fmax", "fmin",
    "free_vars", "fresh_name_count", "max_reduce", "placeholder", "reduce_axis",
    "reset_fresh_names", "run_kernel", "run_kernel_vectorized",
    "run_program_sequential", "seq", "stmt_str", "stride_of",
    "VectorizedInterpreter",
    "simplify_kernel", "simplify_stmt", "structural_equal", "substitute", "substitute_stmt", "sum",
]
