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
  time (a range along one reduction axis, within
  :data:`FOLD_BLOCK_LIMIT` elements or one row of lanes), into one contiguous
  ``(rows, *lanes)`` buffer; each row is folded into the carried lanes
  with one ``np.add``, ``maximum`` or ``minimum``, or, when lanes are
  few, the block with one ``ufunc.accumulate``.
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
counts those.  Phase B (execution) then reads and writes every affine
access through a strided view of the buffer and every other one by
gather/scatter, does the arithmetic and moves the channel chunks; by
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
stream per sample (:class:`~repro.ir.interp.ChannelState`).  Statements
outside a band, and any band the batched plan refuses, run once per
sample on that sample's rows and stream, through the same interpreter.

Every band attempt is recorded in :attr:`VectorizedInterpreter.events`
(kind ``"vectorized"`` or ``"fallback"`` plus a reason, and whether the
plan was replayed from the cache), so tests can prove that each shipped
kernel either vectorizes or falls back cleanly, and that a second
forward plans nothing.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import RuntimeSimError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import eval_int, stride_of
from repro.ir.buffer import Buffer
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
            tuple(s * item for s in acc.strides),
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
        "red_shape", "lane_shape", "red_op", "update", "block", "access",
        "env", "reads_channels",
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
        self.red_op: Optional[type] = None
        self.update: Optional[_e.Expr] = None
        #: a reduction's ``(axis, length)`` blocks, see :func:`_block_plan`
        self.block: Tuple[int, int] = (0, 1)
        #: id(Load/Store node) -> how phase B reaches it (private lane
        #: bases and sample rows included).  A store's entry addresses its
        #: lanes: every iteration for a parallel store, one per lane for a
        #: reduction.
        self.access: Dict[int, _Access] = {}
        self.env: Dict[_e.Var, np.ndarray] = {}
        for ax in path:
            rshape = [1] * len(path)
            rshape[ax.pos] = ax.extent
            self.env[ax.var] = np.arange(
                ax.extent, dtype=np.int64
            ).reshape(rshape)
        self.reads_channels: List[str] = []


class _BandPlan:
    """Phase A product: validated leaves, private buffers, channel budget.

    Built from the interpreter's environment, buffer sizes and channel
    map, but keeps none of them: a plan is replayed on later runs.
    """

    def __init__(self, it: "VectorizedInterpreter", root: _s.For) -> None:
        self.leaves: List[_Leaf] = []
        self.privates: Dict[str, _Private] = {}
        #: channels the band pops, with the values each run needs queued
        self.channel_needs: List[Tuple[str, int]] = []
        #: stores whose address distinctness rests on ``np.unique``
        self.unique_stores = 0
        self._collect(it, root, (_Axis(_BATCH, it.batch or 1, 0),))
        self._check_cross_leaf()

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
        elif isinstance(s, (_s.Store, _s.ChannelWrite, _s.Evaluate)):
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
        leaf.reads_channels = sorted(checker.channel_reads)
        self.leaves.append(leaf)

    # -- cross-leaf dependence + channel rules --------------------------
    def _check_cross_leaf(self) -> None:
        writers: Dict[str, List[int]] = {}
        readers: Dict[str, List[int]] = {}
        chan_readers: Dict[str, List[int]] = {}
        chan_writers: Dict[str, List[int]] = {}
        for i, leaf in enumerate(self.leaves):
            if isinstance(leaf.stmt, _s.Store):
                writers.setdefault(leaf.stmt.buffer.name, []).append(i)
            for name in _loaded_buffers(leaf.stmt):
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
            ev = _VecEval(leaf, it, scratch)
            s = leaf.stmt
            if leaf.kind == "parallel":
                arr = ev.storage(s.buffer)
                val = ev.eval(s.value)
                if arr.dtype == _F32:
                    val = _to_f32(val)
                acc = leaf.access[id(s)]
                if isinstance(acc, _Strided):
                    _view(arr, acc)[...] = val
                else:
                    arr[acc] = np.broadcast_to(val, leaf.shape).ravel()
            elif leaf.kind == "chanwrite":
                state = it._channel(s.channel)
                val = _to_f32(ev.eval(s.value))
                state.write_chunk(np.broadcast_to(val, leaf.shape))
            else:  # 'eval': run for channel-pop side effects only
                ev.eval(s.value)
        # Scalar semantics leave the last iteration's allocation visible in
        # the buffer map after the band; reproduce that so post-run buffer
        # inspection (and the soundness tests) see identical state.
        for name, pb in self.privates.items():
            if pb.lane_count > 0:
                start = (pb.lane_count - 1) * pb.numel
                it.buffers[name] = scratch[name][start : start + pb.numel].copy()


#: combiner ufunc of each reduction the lowerer emits
_COMBINE = {_e.Add: np.add, _e.Max: np.maximum, _e.Min: np.minimum}

#: float32 ufunc of each arithmetic op a reduction's update can end in,
#: so the op writes its block straight into the fold buffer
_UFUNC = {
    _e.Add: np.add, _e.Sub: np.subtract, _e.Mul: np.multiply,
    _e.Div: np.divide, _e.Min: np.minimum, _e.Max: np.maximum,
}

#: lanes from which a block folds one array op per row instead of one
#: ``ufunc.accumulate`` along its rows (whose per-element cost wins on few
#: lanes and loses badly on many)
_FOLD_STEP_LANES = 192


def _block_plan(red_shape: Tuple[int, ...], lanes: int) -> Tuple[int, int]:
    """``(axis, length)`` of a reduction's blocks.

    A block is a range of ``length`` indices along reduction axis
    ``axis``, with the reduction axes before it fixed and those after it
    whole, so its rows times ``lanes`` stay within
    :data:`FOLD_BLOCK_LIMIT` — or one row, when the lanes alone exceed it.
    """
    cap = max(1, FOLD_BLOCK_LIMIT // lanes)
    inner = 1
    for axis in reversed(range(len(red_shape))):
        if inner * red_shape[axis] > cap:
            return axis, cap // inner
        inner *= red_shape[axis]
    return 0, red_shape[0] if red_shape else 1


def _blocks(leaf: _Leaf):
    """Each block of a reduction in fold order: ``(index, shape)``.

    ``index`` selects the block from a fold-order view (reduction axes
    first, see :class:`_BlockEval`); ``shape`` is the block's shape.
    """
    red = leaf.red_shape
    if not red:
        yield (), leaf.lane_shape
        return
    axis, length = leaf.block
    tail = red[axis + 1:] + leaf.lane_shape
    for fixed in itertools.product(*map(range, red[:axis])):
        for a in range(0, red[axis], length):
            b = min(a + length, red[axis])
            yield fixed + (slice(a, b),), (b - a,) + tail


def _fold_blocks(
    leaf: _Leaf, it: "VectorizedInterpreter", scratch: Dict[str, np.ndarray]
) -> None:
    """Fold a reduction's update into its lanes, one block at a time.

    Lane ``j`` computes ``((init[j] op v_0) op v_1) ...`` over the
    reduction axes in lexicographic order — the scalar loop's left fold,
    so float32 results are bit-identical (``np.sum``'s pairwise
    reduction would not be).  Each block of steps is evaluated in that
    order into one contiguous ``(rows, *lanes)`` buffer, allocated per
    execution, and its rows are folded into the carried lane row.
    """
    s = leaf.stmt
    ev = _BlockEval(leaf, it, scratch)
    arr = ev.storage(s.buffer)
    acc = leaf.access[id(s)]
    lanes = _read(arr, acc)
    # a copy: lanes may view the buffer
    carry = lanes.astype(arr.dtype).reshape(leaf.lane_shape)
    combine = _COMBINE[leaf.red_op]
    step = carry.size >= _FOLD_STEP_LANES
    axis, length = leaf.block
    rows = length * math.prod(leaf.red_shape[axis + 1:])
    buf = np.empty((rows,) + leaf.lane_shape, arr.dtype)
    for index, shape in _blocks(leaf):
        ev.block = index
        out = buf[: math.prod(shape) // carry.size]
        ev.eval_into(leaf.update, out.reshape(shape))
        if step:
            for row in out:
                combine(carry, row, out=carry)
        else:
            combine(carry, out[0], out=out[0])
            combine.accumulate(out, axis=0, out=out)
            carry[...] = out[-1]
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


def _loaded_buffers(s: _s.Stmt) -> List[str]:
    names: List[str] = []

    def visit(e: _e.Expr) -> None:
        if isinstance(e, _e.Load):
            names.append(e.buffer.name)
        for c in e.children():
            visit(c)

    if isinstance(s, _s.Store):
        visit(s.index)
        visit(s.value)
    else:
        visit(s.value)
    return names


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
        try:
            return _VecEval(self.leaf, self.it, {}).eval(e)
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
        self.leaf.red_op = type(v)
        self.leaf.update = v.b
        self.leaf.block = _block_plan(
            self.leaf.red_shape, math.prod(self.leaf.lane_shape)
        )

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


class _VecEval:
    """Evaluates an expression over a leaf's broadcast loop axes.

    Loads read through the access their plan resolved (a strided view or
    a gather); channel pops and arithmetic on loaded values run here, in
    phase B.
    """

    def __init__(
        self, leaf: _Leaf, it: "VectorizedInterpreter",
        scratch: Dict[str, np.ndarray],
    ) -> None:
        self.leaf = leaf
        self.it = it
        self.scratch = scratch

    def storage(self, buffer: Buffer) -> np.ndarray:
        arr = self.scratch.get(buffer.name)
        if arr is not None:
            return arr
        return self.it._storage(buffer)

    def eval(self, e: _e.Expr):
        if isinstance(e, _e.IntImm):
            return e.value
        if isinstance(e, _e.FloatImm):
            return _F32(e.value)
        if isinstance(e, _e.Var):
            arr = self.leaf.env.get(e)
            if arr is not None:
                return arr
            try:
                return self.it.env[e]
            except KeyError:
                raise RuntimeSimError(f"unbound variable {e.name}") from None
        if isinstance(e, _e.Load):
            # phase A resolved an access for every Load it admitted
            # (private lane bases included); evaluating e.index here would
            # miss the base, so a cache miss is a planning bug, not a path.
            return _read(self.storage(e.buffer), self.leaf.access[id(e)])
        if isinstance(e, _e.ChannelRead):
            state = self.it._channel(e.channel)
            per_sample = self.leaf.numel // self.leaf.shape[0]
            return state.read_chunk(per_sample).reshape(self.leaf.shape)
        if isinstance(e, _e._BinaryOp):
            return self._binop(e)
        if isinstance(e, _e.Not):
            return np.logical_not(self.eval(e.a))
        if isinstance(e, _e.Cast):
            v = self.eval(e.value)
            if e.dtype == _e.FLOAT32:
                return _to_f32(v)
            if isinstance(v, np.ndarray):
                return v.astype(np.int64)
            return int(v)
        if isinstance(e, _e.Select):
            cond = self.eval(e.cond)
            t = self.eval(e.then_value)
            f = self.eval(e.else_value)
            return np.where(cond, t, f)
        if isinstance(e, _e.Call):
            # contiguous operands: the intrinsic ufunc loops then take the
            # same path a gathered operand always took
            args = [np.ascontiguousarray(_to_f32(self.eval(a)))
                    for a in e.args]
            return _to_f32(_INTRINSICS[e.name](*args))
        raise RuntimeSimError(f"cannot evaluate {type(e).__name__}")

    def _binop(self, e: _e._BinaryOp):
        a = self.eval(e.a)
        b = self.eval(e.b)
        if e.dtype == _e.FLOAT32:
            a = _to_f32(a)
            b = _to_f32(b)
        cls = type(e)
        if cls is _e.Add:
            return a + b
        if cls is _e.Sub:
            return a - b
        if cls is _e.Mul:
            return a * b
        if cls is _e.Div:
            return a / b
        if cls is _e.FloorDiv:
            return a // b
        if cls is _e.Mod:
            return a % b
        if cls is _e.Min:
            return np.minimum(a, b)
        if cls is _e.Max:
            return np.maximum(a, b)
        if cls is _e.LT:
            return a < b
        if cls is _e.LE:
            return a <= b
        if cls is _e.GT:
            return a > b
        if cls is _e.GE:
            return a >= b
        if cls is _e.EQ:
            return np.equal(a, b)
        if cls is _e.NE:
            return np.not_equal(a, b)
        if cls is _e.And:
            return np.logical_and(a, b)
        if cls is _e.Or:
            return np.logical_or(a, b)
        raise RuntimeSimError(f"unhandled op {type(e).__name__}")


class _BlockEval(_VecEval):
    """Evaluates a reduction's update one block at a time, in fold order.

    Every array the update reads from its leaf — a loop variable's
    ``arange``, a strided or gathered load, a popped channel chunk — is
    built once per execution as a view over the leaf's whole shape with
    the reduction axes first; evaluation at :attr:`block` indexes those
    views, so each op runs on one contiguous block of fold steps.
    """

    def __init__(
        self, leaf: _Leaf, it: "VectorizedInterpreter",
        scratch: Dict[str, np.ndarray],
    ) -> None:
        super().__init__(leaf, it, scratch)
        #: index of the current block into the fold-order views
        self.block: tuple = ()
        self.views: Dict[int, np.ndarray] = {}
        self._bind(leaf.update)

    def _bind(self, e: _e.Expr) -> None:
        if isinstance(e, (_e.Load, _e.ChannelRead, _e.Var)):
            acc = self.leaf.access.get(id(e))
            if isinstance(acc, _Strided):
                # the leaf-shaped view: stride 0 along every axis the
                # address does not advance along (no broadcast_to needed)
                x = _view(self.storage(e.buffer),
                          acc._replace(shape=self.leaf.shape))
            else:
                x = super().eval(e)  # pops a channel chunk once
            if isinstance(x, np.ndarray):
                if x.shape != self.leaf.shape:
                    x = np.broadcast_to(x, self.leaf.shape)
                self.views[id(e)] = x.transpose(self.leaf.perm)
            return
        for c in e.children():
            self._bind(c)

    def eval(self, e: _e.Expr):
        view = self.views.get(id(e))
        if view is not None:
            return view[self.block]
        return super().eval(e)

    def eval_into(self, e: _e.Expr, out: np.ndarray) -> None:
        """Evaluate ``e`` at the current block, its top-level op writing
        ``out`` (float32 arithmetic, as :meth:`_binop` computes it)."""
        ufunc = _UFUNC.get(type(e))
        if ufunc is not None and e.dtype == _e.FLOAT32 and out.dtype == _F32:
            ufunc(_to_f32(self.eval(e.a)), _to_f32(self.eval(e.b)), out=out)
        else:
            out[...] = self.eval(e)


class _BandCache:
    """Every plan of one band root, keyed by what phase A reads.

    ``vars`` are the variables the band reads from outside itself and
    ``buffers`` the non-private buffers it touches; a plan's key is their
    values and sizes in one interpreter.  A refused band caches its
    reason string instead of a plan.
    """

    __slots__ = ("vars", "buffers", "plans")

    def __init__(self, root: _s.For) -> None:
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
        shapes = []
        for name in self.buffers:
            arr = it.buffers.get(name)
            shapes.append(None if arr is None else arr.shape)
        return (
            tuple(it.env.get(v) for v in self.vars), tuple(shapes), it.batch,
        )


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
        self._plans: Dict[_s.For, _BandCache] = {}

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
        # loop at this level; either way its inner loops re-try
        if not (isinstance(s, _s.For) and self._exec_band(s)):
            super()._exec(s)

    def _sample(self, n: int) -> "VectorizedInterpreter":
        sub = super()._sample(n)
        sub._plans = self._plans
        sub.events = self.events
        return sub

    def _exec_band(self, root: _s.For) -> bool:
        """Run one band vectorized if its plan allows; record the event."""
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
        name = root.loop_var.name
        try:
            if isinstance(plan, str):
                raise _Fallback(plan)
            plan.check_channels(self)
        except _Fallback as fb:
            self.events.append(BandEvent("fallback", name, fb.reason, reused))
            return False
        plan.execute(self)  # phase B: cannot fail after phase A passed
        self.events.append(BandEvent(
            "vectorized", name, f"{len(plan.leaves)} statement(s)", reused,
        ))
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
