"""A vectorized interpreter for lowered kernel IR.

Executes whole loop bands as NumPy array operations instead of walking
them element-by-element like :class:`~repro.ir.interp.Interpreter`.  The
contract is strict: for every construct it vectorizes, the result is
**bit-identical in float32** to the scalar interpreter; any construct it
cannot prove safe falls back to the scalar loop at that nesting level
(inner loops are re-tried; in a batch, each sample runs the loop in
turn).  The fallback decision is made before any state is mutated, so a
band either executes fully vectorized or not at all — there is never a
half-vectorized rollback.

How a band executes
-------------------
A *band* is one ``For`` subtree.  Every loop variable in it becomes a
broadcast ``np.arange`` axis; each leaf statement (``Store``,
``ChannelWrite``, ``Evaluate``) is evaluated once over the cartesian
product of its enclosing loop extents.  Executing the leaves one after
the other (instead of interleaved per iteration) is loop distribution,
which is only sound under the dependence rules checked in phase A:

* a buffer written by one leaf and touched by another must be allocated
  *inside* the band (it is then privatized per iteration lane, so leaves
  only communicate lane-locally, in program order);
* a store that reads its own buffer must match the reduction pattern the
  lowerer emits (``buf[i] = combine(buf[i], update)``) — each lane is
  left-folded in exactly the scalar iteration order, keeping float32
  results bit-identical (``np.sum``'s pairwise reduction would not be).
  The update is evaluated reduction axes first, one block of steps at a
  time (a range along one reduction axis, within :data:`FOLD_BLOCK_LIMIT`
  elements or one row of lanes), into one contiguous ``(rows, *lanes)``
  buffer; one ``ufunc.reduce`` along its rows folds them into the
  carried lanes, row by row (one lane, whose rows ``reduce`` would sum
  pairwise, takes ``ufunc.accumulate``).
  The reduction axes are the loops the store's address does not advance
  along, except loops of extent 1: one iteration carries nothing, so
  they are lane axes.  A privatized buffer's lane base varies along
  every loop of extent > 1 enclosing its ``Allocate``, so a reduction
  into it never folds across a re-created allocation.  The rule exists
  for the conv/depthwise register-cache ``cache_write``: its outer
  ``xx_*o`` loop has extent ``wo // w2vec``, which is 1 whenever a
  single tile spans the output row (every such kernel of the reduced
  twins);
* all other stores must hit pairwise-distinct addresses;
* each channel is popped by at most one leaf and pushed by at most one
  leaf, never both in one band, and the FIFO must already hold the whole
  chunk a consumer needs.

Phase A (planning) checks every index expression — these are pure
functions of loop variables and scalar bindings — for bounds, zero
divisors, address distinctness and channel budgets, and raises
:class:`_Fallback` on any violation.  An index that
:func:`~repro.ir.analysis.stride_of` proves affine in the band's loop
variables under the bindings is kept as an ``(offset, strides)``
descriptor: its bounds follow in closed form, and a store's addresses
are distinct when its strides, sorted by magnitude over the loops of
extent > 1, each reach at least the span of the loops inside them (the
disjointness proof ``verify/races.py`` makes for unrolled stores).  Only
indices outside that fragment — the clamped padding loads, the flatten's
``//`` and ``%`` — are evaluated to index arrays, and only a store
outside it is checked with ``np.unique``; :attr:`_BandPlan.unique_stores`
counts those.  Phase A ends by compiling each leaf (:class:`_Compiler`)
into closures over its operands.  Phase B (execution) only makes the
operands — a strided view of the buffer per affine access, a gather per
other one, the channel chunks — calls the closures and stores; by
construction it cannot fail after phase A passed.

Plan once, run many
-------------------
A plan reads nothing but the band, the scalar environment and the sizes
of the buffers the band touches — and the channel fill levels.  So it is
computed once and replayed: plans live in the kernel's lifetime memo
(``Kernel.derived``), per band root, keyed by the values of the
variables the band reads from outside itself and by the sizes of the
buffers it touches.  Symbolic variables are interned
(:func:`repro.ir.expr.sym`), so a kernel replayed from the lower or
disk cache hits with the bindings of a later build.  A refused band is
cached with its reason.  On a hit only the
channel-fill check runs again, since FIFO state is the one runtime input
of phase A.  A plan holds no per-run state: no interpreter, buffer or
FIFO, and its privatized scratch is allocated per execution.

Batches
-------
A buffer passed as an ``(N, numel)`` array holds one row per sample of a
batch (activations, arena slots, outputs); a 1-D buffer is shared by the
batch (weights, bias).  Every band's outermost axis is the batch, of
extent ``N`` (1 without a batch): per-sample accesses step it by one
row, shared ones by 0.  It is never a reduction axis, so each sample's
lanes fold in scalar order and its results are bitwise its batch-1
results; a store to a shared buffer would race across the batch and is
refused.  ``N`` enters the plan key through the buffer shapes, so a
batch costs one plan and one phase-B pass.  Channels keep one FIFO
stream per sample (:class:`~repro.ir.interp.ChannelState`).  A statement
outside any loop (softmax's scalar initializers) is planned likewise,
over the batch axis alone, and records no event.  A band or statement
the batched plan refuses runs once per sample on that sample's rows and
stream, through the same interpreter.

Every band attempt is recorded in :attr:`VectorizedInterpreter.events`
(kind ``"vectorized"`` or ``"fallback"`` plus a reason, and whether the
plan was replayed from the cache), so tests can prove that each shipped
kernel either vectorizes or falls back cleanly, and that a second
forward plans nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import RuntimeSimError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import eval_int, stride_of
from repro.ir.interp import _INTRINSICS, ChannelState, Interpreter, _F32
from repro.ir.kernel import Kernel

__all__ = ["VectorizedInterpreter", "BandEvent", "run_kernel_vectorized"]

#: Largest per-leaf iteration space executed as one array op, counted by
#: its lanes for a reduction (whose update only ever exists one block at a
#: time).  Bigger bands would materialize multi-GB value arrays; the loop
#: above the limit runs as a Python loop and the loops below it vectorize.
BAND_SIZE_LIMIT = 1 << 22

#: Element budget of one reduction block: its update is evaluated into a
#: buffer of at most this many elements, or one row of lanes if wider.
FOLD_BLOCK_LIMIT = 1 << 18


class _Fallback(Exception):
    """Raised during planning when a band cannot be vectorized soundly."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class BandEvent(NamedTuple):
    """One vectorization attempt: a band executed or fell back."""

    kind: str  # 'vectorized' | 'fallback'
    loop_var: str
    detail: str
    #: the band's plan (or refusal) came from the kernel's plan cache
    reused: bool = False


class _Axis(NamedTuple):
    var: _e.Var
    extent: int
    pos: int  # depth in the leaf's loop path == broadcast axis position


class _Private(NamedTuple):
    """A buffer allocated inside the band, expanded to one copy per lane."""

    numel: int
    prefix: Tuple[_Axis, ...]  # loop path at the allocation point
    lane_count: int


class _Strided(NamedTuple):
    """A proven-affine access: ``offset + sum(strides[j] * axis_j)``.

    Element units.  ``shape`` is the leaf's shape with 1 on every axis
    the address does not advance along, so the view it describes has
    exactly the shape a gather over the broadcast index would.
    """

    offset: int
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]


#: how phase B reaches one access: a strided view, or a gather index
#: array (an ``(rows, columns)`` pair into a 2-D per-sample store)
_Access = Union[_Strided, np.ndarray, Tuple[np.ndarray, np.ndarray]]

#: every band's outermost axis: the samples of a batch (extent 1 alone)
_BATCH = _e.Var("batch")


def _to_f32(x):
    """Coerce any evaluation result to float32 without double rounding."""
    if isinstance(x, np.ndarray):
        return x if x.dtype == _F32 else x.astype(_F32)
    return _F32(x)


def _is_pure(e: _e.Expr) -> bool:
    """True when ``e`` reads no buffer and no channel."""
    if isinstance(e, (_e.Load, _e.ChannelRead)):
        return False
    return all(_is_pure(c) for c in e.children())


def _distinct(strides: Tuple[int, ...], shape: Tuple[int, ...]) -> bool:
    """True when ``sum(strides[j] * i_j)`` is injective over ``shape``.

    Sorted by magnitude, each stride of an extent > 1 axis must reach
    past the span of the axes inside it (mixed-radix addressing).
    """
    span = 1
    for stride, extent in sorted(
        (abs(s), n) for s, n in zip(strides, shape) if n > 1
    ):
        if stride < span:
            return False
        span += stride * (extent - 1)
    return True


def _view(arr: np.ndarray, acc: _Strided) -> np.ndarray:
    """The strided view of ``arr`` an affine access describes.

    A 2-D ``(N, numel)`` store is addressed as if its rows were back to
    back (axis 0 strides by ``numel``); a store whose rows are not, such
    as the columns of a batched arena, steps axis 0 by its row stride.
    """
    if arr.flags.c_contiguous:
        item = arr.itemsize
        return np.ndarray(
            acc.shape, arr.dtype, arr, acc.offset * item,
            tuple([s * item for s in acc.strides]),
        )
    step = arr.strides[-1]
    strides = [s * step for s in acc.strides]
    if arr.ndim == 2:
        strides[0] = arr.strides[0]
        arr = arr[0]
    return np.lib.stride_tricks.as_strided(
        arr[acc.offset:], acc.shape, tuple(strides)
    )


def _read(arr: np.ndarray, acc: _Access):
    return _view(arr, acc) if isinstance(acc, _Strided) else arr[acc]


class _Leaf:
    """One vectorizable leaf statement plus its planning results."""

    __slots__ = (
        "stmt", "path", "shape", "numel", "kind", "perm",
        "red_shape", "lane_shape", "combine", "update", "access", "env",
        "reads", "reads_channels", "sources", "value", "top", "blocks",
    )

    def __init__(self, stmt: _s.Stmt, path: Tuple[_Axis, ...]) -> None:
        self.stmt = stmt
        self.path = path
        self.shape = tuple(ax.extent for ax in path)
        self.numel = math.prod(self.shape)
        self.kind = ""
        #: a reduction's axes, reduction axes first, then lane axes
        self.perm: Tuple[int, ...] = ()
        #: a reduction's extents: its reduction axes (stepped in scalar
        #: iteration order) and its lane axes, each in loop order
        self.red_shape: Tuple[int, ...] = ()
        self.lane_shape: Tuple[int, ...] = ()
        self.combine: Optional[np.ufunc] = None
        self.update: Optional[_e.Expr] = None
        #: id(Load/Store node) -> how phase B reaches it (private lane
        #: bases and sample rows included).  A store's entry addresses its
        #: lanes: every iteration for a parallel store, one per lane for a
        #: reduction.
        self.access: Dict[int, _Access] = {}
        #: each loop index: an ``arange`` along its own broadcast axis
        self.env: Dict[_e.Var, np.ndarray] = {
            ax.var: np.arange(ax.extent, dtype=np.int64).reshape(
                [ax.extent if p is ax else 1 for p in path])
            for ax in path
        }
        #: the buffers and channels its expressions read
        self.reads: List[str] = []
        self.reads_channels: List[str] = []

    def storage(self, it: "VectorizedInterpreter", scratch) -> np.ndarray:
        """The array the leaf's store writes (a private one's scratch)."""
        arr = scratch.get(self.stmt.buffer.name)
        return arr if arr is not None else it.buffers[self.stmt.buffer.name]


class _BandPlan:
    """Phase A product: validated leaves, private buffers, channel budget.

    Built from the interpreter's environment, buffer sizes and channel
    map, but keeps none of them: a plan is replayed on later runs.  Its
    root is a ``For`` band or, in a batch, one statement outside any
    loop, planned over the batch axis alone.
    """

    def __init__(self, it: "VectorizedInterpreter", root: _s.Stmt) -> None:
        self.leaves: List[_Leaf] = []
        self.privates: Dict[str, _Private] = {}
        #: channels the band pops, with the values each run needs queued
        self.channel_needs: List[Tuple[str, int]] = []
        #: stores whose address distinctness rests on ``np.unique``
        self.unique_stores = 0
        self._collect(it, root, (_Axis(_BATCH, it.batch or 1, 0),))
        self._check_cross_leaf()
        for leaf in self.leaves:
            self._compile_leaf(it, leaf)

    # -- collection -----------------------------------------------------
    def _collect(
        self, it: "VectorizedInterpreter", s: _s.Stmt,
        path: Tuple[_Axis, ...],
    ) -> None:
        if isinstance(s, _s.For):
            extent = _band_invariant_int(it, s.extent, "loop extent")
            ax = _Axis(s.loop_var, extent, len(path))
            if any(p.var is s.loop_var for p in path):
                raise _Fallback(f"loop variable {s.loop_var.name} shadowed")
            self._collect(it, s.body, path + (ax,))
        elif isinstance(s, _s.SeqStmt):
            for child in s.stmts:
                self._collect(it, child, path)
        elif isinstance(s, _s.AttrStmt):
            self._collect(it, s.body, path)
        elif isinstance(s, _s.Allocate):
            name = s.buffer.name
            if name in self.privates:
                raise _Fallback(f"buffer {name} allocated twice in band")
            numel = 1
            for d in s.buffer.shape:
                d = d if isinstance(d, _e.Expr) else _e.IntImm(int(d))
                numel *= _band_invariant_int(it, d, "allocation shape")
            lane_count = math.prod(ax.extent for ax in path)
            if lane_count * numel > BAND_SIZE_LIMIT:
                raise _Fallback("privatized allocation exceeds size limit")
            self.privates[name] = _Private(numel, path, lane_count)
            self._collect(it, s.body, path)
        elif isinstance(s, _LEAF_STMTS):
            self._add_leaf(it, s, path)
        elif isinstance(s, _s.IfThenElse):
            raise _Fallback("data-dependent control flow (IfThenElse)")
        else:
            raise _Fallback(f"unsupported statement {type(s).__name__}")

    def _add_leaf(
        self, it: "VectorizedInterpreter", s: _s.Stmt,
        path: Tuple[_Axis, ...],
    ) -> None:
        leaf = _Leaf(s, path)
        # a reduction is sized by its lanes (its update only ever exists
        # one block at a time), known once the store is classified
        may_reduce = isinstance(s, _s.Store) and isinstance(
            s.value, tuple(_COMBINE))
        if leaf.numel > BAND_SIZE_LIMIT and not may_reduce:
            raise _Fallback("band exceeds vector size limit")
        checker = _LeafChecker(self, leaf, it)
        if isinstance(s, _s.Store):
            checker.classify_store()
        else:
            checker.walk(s.value, in_select=False)
            leaf.kind = "chanwrite" if isinstance(s, _s.ChannelWrite) else "eval"
        size = math.prod(leaf.lane_shape) if leaf.kind == "reduce" else leaf.numel
        if size > BAND_SIZE_LIMIT:
            raise _Fallback("band exceeds vector size limit")
        # a store gather into per-sample rows: flat addresses to (row, column)
        for key, numel in checker.rows.items():
            if isinstance(leaf.access[key], np.ndarray):
                leaf.access[key] = np.divmod(leaf.access[key], numel)
        leaf.reads = sorted({ld.buffer.name for ld in checker.loads})
        leaf.reads_channels = sorted(checker.channel_reads)
        self.leaves.append(leaf)

    def _compile_leaf(self, it: "VectorizedInterpreter", leaf: _Leaf) -> None:
        """Build the leaf's phase B (see :class:`_Compiler`): ``sources``
        make its operands and ``value(ops)`` computes its stored, written
        or (one block at a time) folded value.  A reduction also gets its
        ``blocks`` and, when its update ends in a float32 op, ``top``:
        that op's ufunc and operands, to write each block in place."""
        s = leaf.stmt
        fold = leaf.kind == "reduce"
        comp = _Compiler(leaf, it, self.privates, fold)
        leaf.value = comp.compile(leaf.update if fold else s.value)
        leaf.top, leaf.blocks = None, ()
        if fold:
            u = leaf.update
            if type(u) in _UFUNC and u.dtype == _e.FLOAT32:
                leaf.top = (_UFUNC[type(u)], comp.as_f32(comp.compile(u.a)),
                            comp.as_f32(comp.compile(u.b)))
            leaf.blocks = _blocks(leaf.red_shape, leaf.lane_shape)
        leaf.sources = tuple(comp.sources)

    # -- cross-leaf dependence + channel rules --------------------------
    def _check_cross_leaf(self) -> None:
        writers: Dict[str, List[int]] = {}
        readers: Dict[str, List[int]] = {}
        chan_readers: Dict[str, List[int]] = {}
        chan_writers: Dict[str, List[int]] = {}
        for i, leaf in enumerate(self.leaves):
            if isinstance(leaf.stmt, _s.Store):
                writers.setdefault(leaf.stmt.buffer.name, []).append(i)
            for name in leaf.reads:
                readers.setdefault(name, []).append(i)
            for name in leaf.reads_channels:
                chan_readers.setdefault(name, []).append(i)
            if isinstance(leaf.stmt, _s.ChannelWrite):
                chan_writers.setdefault(leaf.stmt.channel.name, []).append(i)
        for name, w in writers.items():
            if name in self.privates:
                continue  # lane-private: program order per lane is preserved
            if len(w) > 1:
                raise _Fallback(f"buffer {name} written by multiple statements")
            others = [i for i in readers.get(name, ()) if i != w[0]]
            if others:
                raise _Fallback(
                    f"buffer {name} written by one statement and read by "
                    "another"
                )
        for name, r in chan_readers.items():
            if len(r) > 1:
                raise _Fallback(f"channel {name} read by multiple statements")
            if name in chan_writers:
                raise _Fallback(f"channel {name} both read and written in band")
            leaf = self.leaves[r[0]]
            self.channel_needs.append((name, leaf.numel // leaf.shape[0]))
        for name, w in chan_writers.items():
            if len(w) > 1:
                raise _Fallback(f"channel {name} written by multiple statements")

    def check_channels(self, it: "VectorizedInterpreter") -> None:
        """The FIFO budget, per sample: the one phase-A check re-run on
        every call."""
        for name, needed in self.channel_needs:
            state = it.channels.get(name)
            if state is None or len(state) < needed:
                raise _Fallback(
                    f"channel {name} holds fewer than {needed} values"
                )

    # -- phase B --------------------------------------------------------
    def execute(self, it: "VectorizedInterpreter") -> None:
        scratch = {
            name: np.zeros(pb.lane_count * pb.numel, dtype=_F32)
            for name, pb in self.privates.items()
        }
        for leaf in self.leaves:
            if not leaf.numel:
                continue  # a zero-trip loop runs nothing
            if leaf.kind == "reduce":
                _fold_blocks(leaf, it, scratch)
                continue
            # an 'eval' leaf runs for its channel pops, which its sources do
            ops = [source(it, scratch) for source in leaf.sources]
            if leaf.kind == "parallel":
                arr = leaf.storage(it, scratch)
                val = leaf.value(ops)
                if arr.dtype == _F32:
                    val = _to_f32(val)
                acc = leaf.access[id(leaf.stmt)]
                if isinstance(acc, _Strided):
                    _view(arr, acc)[...] = val
                else:
                    arr[acc] = np.broadcast_to(val, leaf.shape).ravel()
            elif leaf.kind == "chanwrite":
                val = _to_f32(leaf.value(ops))
                it._channel(leaf.stmt.channel).write_chunk(
                    np.broadcast_to(val, leaf.shape))
        # Scalar semantics leave the last iteration's allocation visible in
        # the buffer map after the band; reproduce that so post-run buffer
        # inspection (and the soundness tests) see identical state.
        for name, pb in self.privates.items():
            if pb.lane_count > 0:
                start = (pb.lane_count - 1) * pb.numel
                it.buffers[name] = scratch[name][start : start + pb.numel].copy()


#: the statements a plan evaluates over its iteration space
_LEAF_STMTS = (_s.Store, _s.ChannelWrite, _s.Evaluate)

#: combiner ufunc of each reduction the lowerer emits
_COMBINE = {_e.Add: np.add, _e.Max: np.maximum, _e.Min: np.minimum}

#: float32 ufunc of each arithmetic op a reduction's update can end in,
#: so the op writes its block straight into the fold buffer
_UFUNC = {
    _e.Add: np.add, _e.Sub: np.subtract, _e.Mul: np.multiply,
    _e.Div: np.divide, _e.Min: np.minimum, _e.Max: np.maximum,
}


def _blocks(red: Tuple[int, ...], lanes: Tuple[int, ...]) -> tuple:
    """A reduction's blocks in fold order, each ``(index, shape, rows)``.

    A block is a range along one reduction axis, with the reduction axes
    before it fixed and those after it whole, so its rows times its lanes
    stay within :data:`FOLD_BLOCK_LIMIT` — or one row, when the lanes
    alone exceed it.  ``index`` selects it from a fold-order view
    (reduction axes first, see :class:`_Compiler`); the first block is
    the largest.
    """
    if not red:
        return (((), lanes, 1),)
    cap = max(1, FOLD_BLOCK_LIMIT // max(math.prod(lanes), 1))
    axis, length, inner = 0, max(red[0], 1), 1
    for j in reversed(range(len(red))):
        if inner * red[j] > cap:
            axis, length = j, cap // inner
            break
        inner *= red[j]
    rows, tail = math.prod(red[axis + 1:]), red[axis + 1:] + lanes
    blocks = []
    for fixed in itertools.product(*map(range, red[:axis])):
        for a in range(0, red[axis], length):
            b = min(a + length, red[axis])
            blocks.append((fixed + (slice(a, b),), (b - a,) + tail,
                           (b - a) * rows))
    return tuple(blocks)


def _eval_block(leaf: _Leaf, ops: list, out: np.ndarray) -> None:
    """Evaluate a reduction's update into ``out`` from ``ops``, the block
    of each of its operands (a float32 top-level op writes ``out=``)."""
    if leaf.top is not None and out.dtype == _F32:
        ufunc, a, b = leaf.top
        ufunc(a(ops), b(ops), out=out)
    else:
        out[...] = leaf.value(ops)


def _fold_blocks(
    leaf: _Leaf, it: "VectorizedInterpreter", scratch: Dict[str, np.ndarray]
) -> None:
    """Fold a reduction's update into its lanes, one block at a time.

    Lane ``j`` computes ``((init[j] op v_0) op v_1) ...`` over the
    reduction axes in lexicographic order — the scalar loop's left fold,
    so float32 results are bit-identical (``np.sum``'s pairwise
    reduction would not be).  Each block of steps is evaluated in that
    order into one contiguous ``(rows, *lanes)`` buffer; the carried
    lanes fold into its first row, and one ``combine.reduce`` along its
    rows (the outer axis, so row by row) carries the block.
    """
    arr = leaf.storage(it, scratch)
    acc = leaf.access[id(leaf.stmt)]
    lanes = _read(arr, acc)
    # a copy: lanes may view the buffer
    carry = lanes.astype(arr.dtype).reshape(leaf.lane_shape)
    combine = leaf.combine
    views = [source(it, scratch) for source in leaf.sources]
    buf = np.empty((leaf.blocks[0][2],) + leaf.lane_shape, arr.dtype)
    for index, shape, rows in leaf.blocks:
        out = buf[:rows]
        _eval_block(leaf, [x[index] for x in views], out.reshape(shape))
        combine(carry, out[0], out=out[0])
        if carry.size == 1:
            # one lane makes the rows the contiguous axis, which
            # ``reduce`` would sum pairwise
            combine.accumulate(out, axis=0, out=out)
            carry[...] = out[-1]
        else:
            combine.reduce(out, axis=0, out=carry)
    if isinstance(acc, _Strided):
        lanes[...] = carry.reshape(lanes.shape)
    else:
        arr[acc] = carry.reshape(-1)


def _band_invariant_int(
    it: "VectorizedInterpreter", e: _e.Expr, what: str
) -> int:
    if isinstance(e, _e.IntImm):
        return e.value
    if not _is_pure(e):
        raise _Fallback(f"{what} reads memory")
    try:
        return int(it._eval(e))
    except RuntimeSimError:
        raise _Fallback(f"{what} depends on a band loop variable") from None


class _LeafChecker:
    """Phase A validation + index resolution for one leaf."""

    def __init__(
        self, plan: _BandPlan, leaf: _Leaf, it: "VectorizedInterpreter"
    ) -> None:
        self.plan = plan
        self.leaf = leaf
        self.it = it
        self.channel_reads: set = set()
        self.loads: List[_e.Load] = []
        #: id(node) -> row length, for accesses to 2-D per-sample stores
        self.rows: Dict[int, int] = {}

    # -- expression validation ------------------------------------------
    def walk(self, e: _e.Expr, in_select: bool) -> None:
        if isinstance(e, _e.Load):
            self.loads.append(e)
            self._check_access(e, e.index)
        elif isinstance(e, _e.ChannelRead):
            if in_select:
                raise _Fallback("channel read under a select")
            if e.channel.name in self.channel_reads:
                raise _Fallback(
                    f"channel {e.channel.name} read twice in one statement"
                )
            self.channel_reads.add(e.channel.name)
        elif isinstance(e, (_e.FloorDiv, _e.Mod)):
            if e.a.dtype != _e.INT32 or e.b.dtype != _e.INT32:
                raise _Fallback("non-integer floordiv/mod")
            if not _is_pure(e):
                raise _Fallback("integer division on loaded values")
            self.walk(e.a, in_select)
            self.walk(e.b, in_select)
            divisor = self._eval_pure(e.b)
            if np.any(np.asarray(divisor) == 0):
                raise _Fallback("integer division by zero")
        elif isinstance(e, _e.Select):
            self.walk(e.cond, True)
            self.walk(e.then_value, True)
            self.walk(e.else_value, True)
        elif isinstance(e, _e.Var):
            if e not in self.leaf.env and e not in self.it.env:
                raise _Fallback(f"unbound variable {e.name}")
        elif isinstance(e, (_e.IntImm, _e.FloatImm)):
            pass
        elif isinstance(e, (_e._BinaryOp, _e.Not, _e.Cast, _e.Call)):
            for c in e.children():
                self.walk(c, in_select)
        else:
            raise _Fallback(f"cannot vectorize {type(e).__name__}")

    def _check_access(self, node: _e.Expr, index: _e.Expr) -> None:
        """Validate one Load/Store address and record how to reach it."""
        if not _is_pure(index):
            raise _Fallback("index expression reads memory")
        buffer = node.buffer  # Load and Store both carry .buffer
        pb = self.plan.privates.get(buffer.name)
        if pb is not None:
            size = pb.numel
        else:
            store = self.it.buffers.get(buffer.name)
            if store is None:
                raise _Fallback(f"buffer {buffer.name} has no storage")
            # bounds hold per sample: a 2-D store's size is its row length
            size = store.shape[-1]
            if store.ndim == 2:
                self.rows[id(node)] = size
        affine = self._affine(index)
        if affine is None:
            self._check_gather(node, index, pb, size)
            return
        offset, strides = affine
        if self.leaf.numel:
            lo = offset + sum(
                min(0, s * (n - 1)) for s, n in zip(strides, self.leaf.shape)
            )
            hi = offset + sum(
                max(0, s * (n - 1)) for s, n in zip(strides, self.leaf.shape)
            )
            if lo < 0:
                raise _Fallback("negative buffer index")
            if hi >= size:
                raise _Fallback("index out of bounds")
        strides = list(strides)
        if pb is not None:
            stride = pb.numel
            for ax in reversed(pb.prefix):
                strides[ax.pos] += stride
                stride *= ax.extent
        elif id(node) in self.rows:
            strides[0] += size  # the batch axis steps one row
        self.leaf.access[id(node)] = _Strided(
            offset,
            tuple(n if s else 1 for s, n in zip(strides, self.leaf.shape)),
            tuple(strides),
        )

    def _affine(self, index: _e.Expr) -> Optional[Tuple[int, List[int]]]:
        """``(offset, strides)`` of ``index`` over the leaf's axes, or None
        when :func:`stride_of` cannot prove it affine under the bindings."""
        env = self.it.env
        loops = self.leaf.path[1:]  # no index reads the batch axis
        if any(ax.var in env for ax in loops):
            return None
        strides = [0]
        for ax in loops:
            s = stride_of(index, ax.var, env)
            if s is None:
                return None
            strides.append(s)
        at_zero = dict(env)
        at_zero.update((ax.var, 0) for ax in loops)
        offset = eval_int(index, at_zero)
        if offset is None:
            return None
        return offset, strides

    def _check_gather(
        self, node, index: _e.Expr, pb: Optional[_Private], size: int
    ) -> None:
        """An index outside the affine fragment: evaluate it to an array."""
        self.walk(index, in_select=False)  # nested divisor / var checks
        idx = self._eval_pure(index)
        arr = np.asarray(idx)
        if arr.size and (arr.min() < 0):
            raise _Fallback("negative buffer index")
        if arr.size and arr.max() >= size:
            raise _Fallback("index out of bounds")
        if pb is not None:
            base = 0
            stride = pb.numel
            for ax in reversed(pb.prefix):
                base = base + self.leaf.env[ax.var] * stride
                stride *= ax.extent
            arr = np.asarray(base + idx)
        # a 2-D per-sample store is gathered by (sample row, column)
        self.leaf.access[id(node)] = (
            (self.leaf.env[_BATCH], arr) if id(node) in self.rows else arr
        )

    def _eval_pure(self, e: _e.Expr):
        try:  # a pure expression compiles to a constant
            comp = _Compiler(self.leaf, self.it, self.plan.privates, False)
            return comp.compile(e).value
        except (RuntimeSimError, KeyError) as err:
            raise _Fallback(f"index evaluation failed: {err}") from None

    # -- store classification -------------------------------------------
    def classify_store(self) -> None:
        s = self.leaf.stmt
        assert isinstance(s, _s.Store)
        self._check_access(s, s.index)
        if (self.leaf.shape[0] > 1 and id(s) not in self.rows
                and s.buffer.name not in self.plan.privates):
            raise _Fallback(f"store to {s.buffer.name}, shared by the batch")
        self.walk(s.value, in_select=False)
        self_loads = [ld for ld in self.loads if ld.buffer.name == s.buffer.name]
        acc = self.leaf.access[id(s)]
        if id(s) in self.rows and not isinstance(acc, _Strided):
            acc = acc[0] * self.rows[id(s)] + acc[1]  # rows back to back
        shape = self.leaf.shape
        if not self_loads:
            self.leaf.kind = "parallel"
            if isinstance(acc, _Strided) and _distinct(acc.strides, shape):
                return
            flat = self._flat(acc)
            self._unique(flat, "overlapping parallel stores")
            self.leaf.access[id(s)] = flat
            return
        v = s.value
        is_reduce = (
            isinstance(v, (_e.Add, _e.Max, _e.Min))
            and isinstance(v.a, _e.Load)
            and v.a.buffer.name == s.buffer.name
            and _e.structural_equal(v.a.index, s.index)
            and len(self_loads) == 1
        )
        if not is_reduce:
            raise _Fallback(
                "store reads its own buffer outside the reduction pattern"
            )
        ndim = len(shape)
        if isinstance(acc, _Strided):
            varies = [s_ != 0 for s_ in acc.strides]
        else:
            bshape = np.shape(acc) if np.ndim(acc) == ndim else (1,) * ndim
            varies = [n != 1 for n in bshape]
        # a one-iteration loop carries no reduction: count it as a lane axis
        par = [j for j in range(ndim) if varies[j] or shape[j] == 1]
        red = [j for j in range(ndim) if j not in par]
        pb = self.plan.privates.get(s.buffer.name)
        if pb is not None and any(ax.pos in red for ax in pb.prefix):
            # the scalar path re-zeros the allocation on those iterations,
            # so they are not a running reduction
            raise _Fallback("allocation re-created inside reduction axes")
        if not (isinstance(acc, _Strided) and _distinct(
            tuple(acc.strides[j] for j in par), tuple(shape[j] for j in par)
        )):
            lanes = self._flat(acc, tuple(
                shape[j] if j in par else 1 for j in range(ndim)))
            self._unique(lanes, "reduction lanes collide")
            self.leaf.access[id(s)] = lanes
        self.leaf.kind = "reduce"
        self.leaf.perm = tuple(red + par)
        self.leaf.red_shape = tuple(shape[j] for j in red)
        self.leaf.lane_shape = tuple(shape[j] for j in par)
        self.leaf.combine = _COMBINE[type(v)]
        self.leaf.update = v.b

    def _flat(self, acc: _Access, shape=None) -> np.ndarray:
        """Every address over ``shape`` (the leaf's by default, or one
        with 1 on axes the address does not advance along), in iteration
        order, as int64."""
        if isinstance(acc, _Strided):
            idx = acc.offset
            for ax, s in zip(self.leaf.path, acc.strides):
                if s:
                    idx = idx + self.leaf.env[ax.var] * s
            acc = np.asarray(idx)
        return np.broadcast_to(acc, shape or self.leaf.shape).ravel().astype(
            np.int64, copy=False
        )

    def _unique(self, flat: np.ndarray, reason: str) -> None:
        """The dynamic distinctness check, for stores outside the proof."""
        self.plan.unique_stores += 1
        if flat.size and np.unique(flat).size != flat.size:
            raise _Fallback(reason)


#: the function of each binary op, as the scalar interpreter computes it
_BINOPS = {
    _e.Add: operator.add, _e.Sub: operator.sub, _e.Mul: operator.mul,
    _e.Div: operator.truediv, _e.FloorDiv: operator.floordiv,
    _e.Mod: operator.mod, _e.Min: np.minimum, _e.Max: np.maximum,
    _e.LT: operator.lt, _e.LE: operator.le, _e.GT: operator.gt,
    _e.GE: operator.ge, _e.EQ: np.equal, _e.NE: np.not_equal,
    _e.And: np.logical_and, _e.Or: np.logical_or,
}


class _Const(NamedTuple):
    """A compiled subtree that reads no operand: its value, made once."""

    value: object

    def __call__(self, ops):
        return self.value


class _Compiler:
    """Compiles a leaf's expressions into closures, once, in phase A.

    Phase B evaluates an expression as ``fn(ops)``.  ``ops`` holds the
    operands :attr:`sources` make per execution: each load's view or
    gather and each popped channel chunk.  Variables become constants (a
    loop index its ``arange``), a subtree of constants is evaluated now,
    and each op is bound to its function.  With ``fold`` (a reduction's
    update), every operand, loop indices included, is made over the
    leaf's shape with the reduction axes first, and ``ops`` holds one
    block of each.
    """

    def __init__(self, leaf: _Leaf, it: "VectorizedInterpreter",
                 privates: Dict[str, _Private], fold: bool) -> None:
        self.leaf = leaf
        self.it = it
        self.privates = privates
        self.fold = fold
        #: ``source(it, scratch)`` of each operand, in ``ops`` order
        self.sources: List[Callable] = []
        self._slots: Dict[int, Callable] = {}

    def compile(self, e: _e.Expr) -> Callable:
        """``fn(ops)`` computing ``e``."""
        if isinstance(e, _e.IntImm):
            return _Const(e.value)
        if isinstance(e, _e.FloatImm):
            return _Const(_F32(e.value))
        if isinstance(e, _e.Var):
            x = self.leaf.env.get(e)
            if x is None:  # phase A checked it is bound
                return _Const(self.it.env[e])
            if not self.fold:
                return _Const(x)
            x = _fold_order(x, self.leaf)
            return self._slot(e, lambda it, scratch: x)
        if isinstance(e, (_e.Load, _e.ChannelRead)):
            return self._slot(e, self._source(e))
        if isinstance(e, _e._BinaryOp):
            op = _BINOPS.get(type(e))
            if op is None:
                raise RuntimeSimError(f"unhandled op {type(e).__name__}")
            args = [self.compile(e.a), self.compile(e.b)]
            if e.dtype == _e.FLOAT32:
                args = [self.as_f32(a) for a in args]
            return _apply(op, args)
        if isinstance(e, _e.Not):
            return _apply(np.logical_not, [self.compile(e.a)])
        if isinstance(e, _e.Cast):
            value = self.compile(e.value)
            if e.dtype == _e.FLOAT32:
                return self.as_f32(value)
            return _apply(lambda x: x.astype(np.int64) if isinstance(
                x, np.ndarray) else int(x), [value])
        if isinstance(e, _e.Select):
            return _apply(np.where, [self.compile(c) for c in (
                e.cond, e.then_value, e.else_value)])
        if isinstance(e, _e.Call):
            fn = _INTRINSICS[e.name]
            # contiguous operands: the intrinsic ufunc loops then take the
            # same path a gathered operand always took
            return _apply(
                lambda *args: _to_f32(fn(*map(np.ascontiguousarray, args))),
                [self.as_f32(self.compile(a)) for a in e.args])
        raise RuntimeSimError(f"cannot evaluate {type(e).__name__}")

    @staticmethod
    def as_f32(fn: Callable) -> Callable:
        """``fn`` coerced to float32."""
        if isinstance(fn, _Const):
            return _Const(_to_f32(fn.value))
        return lambda ops: _to_f32(fn(ops))

    def _slot(self, e: _e.Expr, source: Callable) -> Callable:
        """The operand ``source`` makes, read from ``ops``: one slot per
        load, channel read or loop index node, however often it appears."""
        slot = self._slots.get(id(e))
        if slot is None:
            slot = operator.itemgetter(len(self.sources))
            self._slots[id(e)] = slot
            self.sources.append(source)
        return slot

    def _source(self, e: Union[_e.Load, _e.ChannelRead]) -> Callable:
        leaf = self.leaf
        if isinstance(e, _e.ChannelRead):
            channel, shape = e.channel, leaf.shape
            per_sample = leaf.numel // shape[0]

            def read(it, scratch):
                chunk = it._channel(channel).read_chunk(per_sample)
                return chunk.reshape(shape)
        else:
            # phase A resolved an access for every Load it admitted
            # (private lane bases included); evaluating e.index here
            # would miss the base, so a missing access is a planning bug
            acc = leaf.access[id(e)]
            name = e.buffer.name
            private = name in self.privates
            if self.fold and isinstance(acc, _Strided):
                # the leaf-shaped view: stride 0 along every axis the
                # address does not advance along (no broadcast_to needed)
                acc = acc._replace(shape=leaf.shape)

            def read(it, scratch):
                return _read(
                    scratch[name] if private else it.buffers[name], acc)
        if not self.fold:
            return read
        return lambda it, scratch: _fold_order(read(it, scratch), leaf)


def _fold_order(x: np.ndarray, leaf: _Leaf) -> np.ndarray:
    """``x`` over a reduction leaf's shape, reduction axes first."""
    if x.shape != leaf.shape:
        x = np.broadcast_to(x, leaf.shape)
    return x.transpose(leaf.perm)


def _apply(op: Callable, args: List[Callable]) -> Callable:
    """``op`` over compiled ``args``: made now when each is a constant."""
    if all(isinstance(a, _Const) for a in args):
        return _Const(op(*(a.value for a in args)))
    if len(args) == 2:
        f, g = args
        return lambda ops: op(f(ops), g(ops))
    return lambda ops: op(*[f(ops) for f in args])


class _BandCache:
    """Every plan of one band root, keyed by what phase A reads.

    ``vars`` are the variables the band reads from outside itself and
    ``buffers`` the non-private buffers it touches; a plan's key is their
    values and sizes in one interpreter.  A refused band caches its
    reason string instead of a plan.
    """

    __slots__ = ("vars", "buffers", "plans")

    def __init__(self, root: _s.Stmt) -> None:
        free: Dict[_e.Var, None] = {}
        touched: Dict[str, None] = {}
        bound, local = set(), set()

        def expr(e: _e.Expr) -> None:
            if isinstance(e, _e.Var):
                free[e] = None
            elif isinstance(e, _e.Load):
                touched[e.buffer.name] = None
            for c in e.children():
                expr(c)

        def stmt(s: _s.Stmt) -> None:
            if isinstance(s, _s.For):
                bound.add(s.loop_var)
                expr(s.extent)
            elif isinstance(s, _s.Allocate):
                local.add(s.buffer.name)
                for d in s.buffer.shape:
                    if isinstance(d, _e.Expr):
                        expr(d)
            elif isinstance(s, _s.Store):
                touched[s.buffer.name] = None
                expr(s.index)
                expr(s.value)
            elif isinstance(s, (_s.ChannelWrite, _s.Evaluate)):
                expr(s.value)
            elif isinstance(s, _s.IfThenElse):
                expr(s.cond)
            for c in s.children():
                stmt(c)

        stmt(root)
        self.vars = tuple(v for v in free if v not in bound)
        self.buffers = tuple(b for b in touched if b not in local)
        self.plans: Dict[tuple, Union[_BandPlan, str]] = {}

    def key(self, it: "VectorizedInterpreter") -> tuple:
        shapes = tuple(getattr(it.buffers.get(name), "shape", None)
                       for name in self.buffers)
        return tuple(it.env.get(v) for v in self.vars), shapes, it.batch


class VectorizedInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` that executes loop bands as array ops.

    Same constructor and :meth:`run` contract as the scalar interpreter,
    batches included; results are bit-identical in float32.  Per-band
    outcomes are recorded in :attr:`events` so callers can audit what
    vectorized, why any loop fell back, and which band plans were
    replayed from the kernel's plan cache (:attr:`planned` /
    :attr:`reused`).
    """

    def __init__(
        self,
        buffers: Dict[str, np.ndarray],
        bindings: Optional[Dict[_e.Var, int]] = None,
        channels: Optional[Dict[str, ChannelState]] = None,
    ) -> None:
        super().__init__(buffers, bindings, channels)
        self.events: List[BandEvent] = []
        #: band root -> its plans; bound to the kernel's memo by run()
        self._plans: Dict[_s.Stmt, _BandCache] = {}

    @property
    def planned(self) -> int:
        """Bands this interpreter planned (phase A ran)."""
        return sum(1 for ev in self.events if not ev.reused)

    @property
    def reused(self) -> int:
        """Bands whose plan (or refusal) was replayed from the cache."""
        return sum(1 for ev in self.events if ev.reused)

    def run(self, kernel: Kernel) -> None:
        self._plans = kernel.derived.setdefault(_BandCache, {})
        super().run(kernel)

    def _exec(self, s: _s.Stmt) -> None:
        # a refused band runs per sample (in a batch) or as a scalar
        # loop at this level; either way its inner loops re-try.  In a
        # batch, a statement outside any loop is planned over the batch
        # axis alone, and runs per sample only if refused.
        plannable = isinstance(s, _s.For) or (
            self.batch is not None and isinstance(s, _LEAF_STMTS))
        if not (plannable and self._exec_band(s)):
            super()._exec(s)

    def _sample(self, n: int) -> "VectorizedInterpreter":
        sub = super()._sample(n)
        sub._plans = self._plans
        sub.events = self.events
        return sub

    def _exec_band(self, root: _s.Stmt) -> bool:
        """Run one band vectorized if its plan allows; record the event
        (a band's only: a statement outside any loop records none)."""
        cache = self._plans.get(root)
        if cache is None:
            cache = self._plans[root] = _BandCache(root)
        key = cache.key(self)
        plan = cache.plans.get(key)
        reused = plan is not None
        if not reused:
            try:
                plan = _BandPlan(self, root)  # phase A
            except _Fallback as fb:
                plan = fb.reason
            cache.plans[key] = plan
        name = root.loop_var.name if isinstance(root, _s.For) else None
        try:
            if isinstance(plan, str):
                raise _Fallback(plan)
            plan.check_channels(self)
        except _Fallback as fb:
            if name is not None:
                self.events.append(
                    BandEvent("fallback", name, fb.reason, reused))
            return False
        plan.execute(self)  # phase B: cannot fail after phase A passed
        if name is not None:
            self.events.append(
                BandEvent("vectorized", name,
                          f"{len(plan.leaves)} statement(s)", reused))
        return True


def run_kernel_vectorized(
    kernel: Kernel,
    buffers: Dict[str, np.ndarray],
    bindings: Optional[Dict[_e.Var, int]] = None,
    channels: Optional[Dict[str, ChannelState]] = None,
) -> VectorizedInterpreter:
    """Interpret one kernel invocation through the vectorized path.

    Buffers are mutated in place, exactly like :func:`repro.ir.run_kernel`;
    returns the interpreter so callers can inspect :attr:`events`.
    """
    vi = VectorizedInterpreter(buffers, bindings, channels)
    vi.run(kernel)
    return vi
