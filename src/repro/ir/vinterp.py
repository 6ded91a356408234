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
:class:`_Fallback` on any violation.  An index whose affine form
(:func:`~repro.ir.analysis.affine_form` over the band's loop variables,
one walk per access) is affine in them under the bindings is kept as an
``(offset, strides)`` descriptor: its bounds follow in closed form, and
a store's addresses are distinct when its strides, sorted by magnitude
over the loops of extent > 1, each reach at least the span of the loops
inside them (the disjointness proof ``verify/races.py`` makes for
unrolled stores).  Only
indices outside that fragment — the clamped padding loads, the flatten's
``//`` and ``%`` — are evaluated to index arrays, and only a store
outside it is checked with ``np.unique``; :attr:`_BandPlan.unique_stores`
counts those.  Phase A ends by compiling each leaf (:class:`_Compiler`)
into closures over its operands.  Phase B (execution) only makes the
operands — a strided view of the buffer per affine access, a gather per
other one, the channel chunks — calls the closures and stores; by
construction it cannot fail after phase A passed.

A reduction whose update ends in a float32 binary op (``leaf.top``)
reads, per block, views that step some axes by 0: a conv's input window
along its output channels, its weights along the batch and the output
pixels.  NumPy's iterator merges axes into one inner loop only while
every operand steps them contiguously, so such a view can cut the op
into inner loops as short as one output row.  Phase A therefore decides
once per block shape which operands to *compact*: a float32 load with a
zero-stride axis is copied, each block, into one contiguous array with
those axes at extent 1, which the ufunc broadcasts back.  It compacts
the smallest set of operands that makes the op's innermost coalesced run
(:func:`_inner_run`, from the block's shape and the byte strides of the
output and both operands as phase A's buffers make them) longest, and
none unless that is strictly longer than without.  Phase B only copies.
The same values meet the same ufunc in the same order, so results stay
bit-identical whatever is decided; a plan replayed over buffers of other
strides keeps its decision, which then affects speed only.

Compaction cannot join lanes that loop order keeps apart: a conv's
input steps the batch and the output pixels but not the output
channel, which loop order puts between them.  So before the update
compiles, phase A also orders such a reduction's lanes
(:func:`_order_lanes`): it groups the lane axes of extent > 1 by which
of the top op's operands steps them by 0, keeps loop order within each
group, tries every order of the groups (at most a handful, loop order
first) with the compactions each allows, and keeps the one whose first
block has the strictly longest inner run.  The reduction axes keep
their order.  The block buffer and the carry hold the lanes in the
chosen order; the carry is made from the store target in loop order
and written back to it through the inverse transposition, whether the
target is a strided view, a gather or a private scratch buffer.  Lanes
fold independently and each meets the same values in the same order,
so results stay bit-identical; a conv's batch lane then joins its
output pixels inside the output channel, and LeNet-5's ``k_conv1`` at
batch 8 multiplies in runs of 5408 elements instead of 676.

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
cached with its reason.  On a hit only the channel-fill check
(:meth:`_BandPlan.check_channels`, one length per channel read) runs
again, since FIFO state is the one runtime input of phase A.  A plan
holds no per-run state: no interpreter, buffer or FIFO, and its
privatized scratch is allocated per execution.

An interpreter may run its kernel again over the arrays it was given
(the executor's bound forwards do, once per forward).  Its first run
binds the kernel (:class:`_Binding`): the plan each top-level band's
key selects is kept, since outside any loop that key reads only
bindings, buffer shapes and the batch size, and so is the strided view
of each affine access to one of those arrays, whose byte strides and
contiguity are then decided once.  A plan is kept once its channels
held the chunks it reads, and its replay skips the fill check: a bound
forward runs its producers in the same order every time.  A later run
of the same kernel over the same arrays computes no key, checks no fill
and makes no such view; a band nested in a loop that fell back keeps
its per-call key.  (A kept plan whose channel is short anyway raises
the scalar interpreter's empty-channel error from its read.)

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
batch costs one plan and one phase-B pass.  A channel keeps one FIFO
stream per sample in one store of chunks
(:class:`~repro.ir.interp.ChannelState`): a band writes its chunk whole,
as one ``(N, k)`` array, and a band reading that chunk whole gets the
array itself (or a column slice of it) with no per-sample pop; a
per-sample access reads and writes the same streams sample by sample.
A statement outside any loop (softmax's scalar initializers) is planned
likewise, over the batch axis alone, and records no event.  A band or
statement the batched plan refuses runs once per sample on that
sample's rows and stream, through the same interpreter.

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

from repro.counters import count
from repro.errors import RuntimeSimError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import affine_form, eval_int
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


class _Leaf:
    """One vectorizable leaf statement plus its planning results."""

    __slots__ = (
        "stmt", "path", "shape", "numel", "kind", "perm", "unperm",
        "red_shape", "lane_shape", "combine", "update", "access", "env",
        "reads", "reads_channels", "sources", "value", "top", "blocks",
        "compact", "spare", "loops", "target",
    )

    def __init__(self, stmt: _s.Stmt, path: Tuple[_Axis, ...]) -> None:
        self.stmt = stmt
        self.path = path
        self.shape = tuple(ax.extent for ax in path)
        self.numel = math.prod(self.shape)
        self.kind = ""
        #: a reduction's fold order: its reduction axes in loop order,
        #: then its lane axes in the order :func:`_order_lanes` chose
        #: (loop order unless another order lengthens the top op's run);
        #: ``unperm`` is its inverse, which the store writes back through
        self.perm: Tuple[int, ...] = ()
        self.unperm: Tuple[int, ...] = ()
        #: a reduction's extents: its reduction axes (stepped in scalar
        #: iteration order) and its lane axes, each in fold order; the
        #: block buffer and the carry have its lanes in that order
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
        #: the detail of the band's "vectorized" event
        self.detail = f"{len(self.leaves)} statement(s)"

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
        that op's ufunc and operands, to write each block in place, the
        order of its lanes (:func:`_order_lanes`, decided before the
        update compiles, since its operands are made in that order) and
        the operands each block compacts (:func:`_plan_compactions`)."""
        s = leaf.stmt
        fold = leaf.kind == "reduce"
        leaf.target = _target(leaf, self.privates)
        comp = _Compiler(leaf, it, self.privates, fold)
        u = leaf.update
        top = fold and type(u) in _UFUNC and u.dtype == _e.FLOAT32
        leaf.top, leaf.blocks, leaf.compact, leaf.spare = None, (), (), {}
        leaf.loops = 0
        if fold:
            loops = [comp.loop_layout(u.a), comp.loop_layout(u.b)] if top else ()
            leaf.blocks = _blocks(leaf.red_shape, leaf.lane_shape)
            if top and leaf.blocks and _order_lanes(leaf, loops):
                leaf.blocks = _blocks(leaf.red_shape, leaf.lane_shape)
            leaf.unperm = tuple(int(j) for j in np.argsort(leaf.perm))
        leaf.value = comp.compile(u if fold else s.value)
        if fold:
            layouts = None
            if top:
                leaf.top = (_UFUNC[type(u)], comp.as_f32(comp.compile(u.a)),
                            comp.as_f32(comp.compile(u.b)))
                layouts = [comp.layout(found) for found in loops]
            _plan_compactions(leaf, layouts)
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

    def check_channels(self, it: "VectorizedInterpreter") -> Optional[str]:
        """Why the FIFOs cannot feed a run, or None: the budget per
        sample, the one phase-A check a plan's key does not cover."""
        for name, needed in self.channel_needs:
            state = it.channels.get(name)
            if state is None or len(state) < needed:
                return f"channel {name} holds fewer than {needed} values"
        return None

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
                val = leaf.value(ops)
                if leaf.target is not None:
                    lanes = leaf.target(it, scratch)
                    lanes[...] = _to_f32(val) if lanes.dtype == _F32 else val
                    continue
                arr = leaf.storage(it, scratch)
                if arr.dtype == _F32:
                    val = _to_f32(val)
                arr[leaf.access[id(leaf.stmt)]] = np.broadcast_to(
                    val, leaf.shape).ravel()
            elif leaf.kind == "chanwrite":
                val = _to_f32(leaf.value(ops))
                it._channel(leaf.stmt.channel).write_chunk(
                    np.broadcast_to(val, leaf.shape))
        # Scalar semantics leave the last iteration's allocation visible in
        # the buffer map after the band; reproduce that so post-run buffer
        # inspection (and the soundness tests) see identical state.  Each
        # execution allocates its own scratch, so a view of the last lane
        # is never written again.
        for name, pb in self.privates.items():
            if pb.lane_count > 0:
                start = (pb.lane_count - 1) * pb.numel
                it.buffers[name] = scratch[name][start : start + pb.numel]


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


def _c_strides(shape: Tuple[int, ...], item: int) -> Tuple[int, ...]:
    """The byte strides of a C-contiguous array of ``shape`` as NumPy's
    iterator sees them: 0 along each axis of extent 1."""
    strides, step = [], item
    for n in reversed(shape):
        strides.append(step if n > 1 else 0)
        step *= n
    return tuple(reversed(strides))


def _inner_run(shape: Tuple[int, ...], operands: List[tuple]) -> int:
    """The innermost run of an elementwise ufunc over ``shape`` whose
    output is C-contiguous: how many elements one call of its inner loop
    covers, given each operand's byte strides (the output's included).

    The output's strides shrink from the outer to the inner axis, so it
    votes against every reordering of NumPy's iterator (and C order wins
    a conflict): the axes stay in C order.  Axes of extent 1 drop out.
    From the innermost axis, each next one coalesces into the run while
    every operand steps it by the run's length times its innermost
    stride.
    """
    run, first = 1, None
    for j in reversed(range(len(shape))):
        if shape[j] == 1:
            continue
        if first is None:
            first = j
        elif any(s[j] != s[first] * run for s in operands):
            break
        run *= shape[j]
    return run


class _Compaction(NamedTuple):
    """One operand of a block's top op, copied to a contiguous array.

    ``select`` keeps index 0 of every axis the operand's view does not
    advance along, which leaves its distinct values; they are copied to
    a C-contiguous array of ``shape`` (those axes of extent 1), which the
    ufunc broadcasts.
    """

    slot: int
    select: tuple
    shape: Tuple[int, ...]
    size: int


def _compactions(
    shape: Tuple[int, ...], layouts: List[tuple]
) -> Tuple[int, Tuple[_Compaction, ...]]:
    """The operands of one block's top op worth compacting, after the
    :func:`_inner_run` they leave the op.

    ``layouts`` are its two operands' ``(slot, byte strides)`` over the
    block (``slot`` None for a constant).  A float32 load with a
    broadcast (zero-stride) axis of extent > 1 may be compacted; the
    chosen set is the smallest that makes :func:`_inner_run` longest,
    and empty unless it strictly lengthens the run.  The same values
    meet the same ufunc in the same order either way, so the choice
    changes speed only.
    """
    item = np.dtype(_F32).itemsize
    out = _c_strides(shape, item)
    compacted = {}
    for slot, strides in layouts:
        if slot is not None and any(
                not s and n > 1 for s, n in zip(strides, shape)):
            cshape = tuple(n if s else 1 for s, n in zip(strides, shape))
            compacted[slot] = (_c_strides(cshape, item), _Compaction(
                slot, tuple(slice(None) if s else slice(0, 1)
                            for s in strides), cshape, math.prod(cshape)))

    def run(chosen) -> int:
        return _inner_run(shape, [out] + [
            compacted[slot][0] if slot in chosen else strides
            for slot, strides in layouts])

    best, pick = run(()), ()
    for k in range(1, len(compacted) + 1):
        for chosen in itertools.combinations(sorted(compacted), k):
            length = run(chosen)
            if length > best:
                best, pick = length, chosen
    return best, tuple(compacted[slot][1] for slot in pick)


def _block_layouts(index: tuple, layouts: List[tuple]) -> List[tuple]:
    """``layouts`` (fold-order strides over the leaf) over one block,
    which drops the leading reduction axes its ``index`` fixes."""
    drop = max(len(index) - 1, 0)
    return [(slot, strides[drop:]) for slot, strides in layouts]


def _order_lanes(leaf: _Leaf, layouts: List[Optional[tuple]]) -> bool:
    """Order a reduction's lane axes for its top op; True if it moved one.

    ``layouts`` are the top op's two operands' ``(key, byte strides)``
    in loop order over the leaf's shape (``key`` None for a constant),
    or None where unknown (then loop order stays).  The lane axes of
    extent > 1 are grouped by which operands step them by 0, loop order
    kept within a group; every order of the groups is tried, loop order
    first, with the compactions :func:`_compactions` decides for it, and
    the order whose first block gives the strictly longest
    :func:`_inner_run` is kept.  Lanes of extent 1 and the reduction
    axes keep their places.  Lanes fold independently, so results stay
    bitwise alike whatever is chosen.
    """
    if None in layouts:
        return False
    nred = len(leaf.red_shape)
    red, lanes = leaf.perm[:nred], leaf.perm[nred:]
    groups: Dict[tuple, list] = {}
    for j in lanes:
        if leaf.shape[j] > 1:
            groups.setdefault(tuple(not s[j] for _, s in layouts),
                              []).append(j)
    if len(groups) < 2:
        return False
    wide = [i for i, j in enumerate(lanes) if leaf.shape[j] > 1]
    index, shape, _ = leaf.blocks[0]
    head = shape[:len(shape) - len(lanes)]
    best, pick = 0, leaf.perm
    for grouped in itertools.permutations(groups.values()):
        order = list(lanes)
        for i, j in zip(wide, itertools.chain.from_iterable(grouped)):
            order[i] = j
        perm = red + tuple(order)
        run, _ = _compactions(
            head + tuple(leaf.shape[j] for j in order), _block_layouts(
                index, [(key, tuple(s[j] for j in perm))
                        for key, s in layouts]))
        if run > best:
            best, pick = run, perm
    if pick == leaf.perm:
        return False
    leaf.perm = pick
    leaf.lane_shape = tuple(leaf.shape[j] for j in pick[nred:])
    return True


def _plan_compactions(leaf: _Leaf, layouts: Optional[list]) -> None:
    """Decide, once per block shape, which operands of the leaf's top op
    each block compacts (:func:`_compactions`; none without a top op or
    when an operand's layout is unknown).  ``leaf.compact`` runs
    parallel to ``leaf.blocks``, and ``leaf.spare`` sizes each
    compacted slot's copy buffer for the largest of its blocks.
    ``leaf.loops`` counts the inner-loop calls the top op makes over
    all blocks: each block's elements over its run (0 when unknown)."""
    if layouts is None or None in layouts:
        leaf.compact = ((),) * len(leaf.blocks)
        return
    decided: Dict[Tuple[int, ...], tuple] = {}
    compact = []
    for index, shape, _ in leaf.blocks:
        if shape not in decided:
            decided[shape] = _compactions(
                shape, _block_layouts(index, layouts))
        run, chosen = decided[shape]
        leaf.loops += math.prod(shape) // max(run, 1)  # a zero-trip lane: 0
        compact.append(chosen)
        for c in chosen:
            leaf.spare[c.slot] = max(leaf.spare.get(c.slot, 0), c.size)
    leaf.compact = tuple(compact)


def _compact(view: np.ndarray, c: _Compaction, spare: np.ndarray) -> np.ndarray:
    """The distinct values of a block operand's ``view``, copied to a
    contiguous array in ``spare``."""
    count("fold_compactions")
    out = spare[:c.size].reshape(c.shape)
    np.copyto(out, view[c.select])
    return out


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
    rows (the outer axis, so row by row) carries the block.  The buffer
    and the carry hold the lanes in fold order; the store target holds
    them in loop order, so the carry is made from it and written back
    to it through the lane order's transposition.
    """
    if leaf.target is not None:
        lanes = leaf.target(it, scratch)
    else:
        arr = leaf.storage(it, scratch)
        lanes = arr[leaf.access[id(leaf.stmt)]]
    # the lanes with an extent-1 axis per reduction axis, in fold order
    # and in loop order (the target's shape)
    fold = (1,) * len(leaf.red_shape) + leaf.lane_shape
    loop = tuple([fold[j] for j in leaf.unperm])
    # a C-contiguous copy: lanes may view the buffer
    carry = lanes.reshape(loop).transpose(leaf.perm).reshape(
        leaf.lane_shape).copy()
    combine = leaf.combine
    views = [source(it, scratch) for source in leaf.sources]
    spare = {slot: np.empty(size, _F32) for slot, size in leaf.spare.items()}
    buf = np.empty((leaf.blocks[0][2],) + leaf.lane_shape, lanes.dtype)
    for (index, shape, rows), compact in zip(leaf.blocks, leaf.compact):
        out = buf[:rows]
        ops = [x[index] for x in views]
        for c in compact:
            ops[c.slot] = _compact(ops[c.slot], c, spare[c.slot])
        _eval_block(leaf, ops, out.reshape(shape))
        combine(carry, out[0], out=out[0])
        if carry.size == 1:
            # one lane makes the rows the contiguous axis, which
            # ``reduce`` would sum pairwise
            combine.accumulate(out, axis=0, out=out)
            carry[...] = out[-1]
        else:
            combine.reduce(out, axis=0, out=carry)
    if leaf.loops:
        count("fold_inner_loops", leaf.loops)
    back = carry.reshape(fold).transpose(leaf.unperm)
    if leaf.target is not None:
        lanes[...] = back
    else:
        arr[leaf.access[id(leaf.stmt)]] = back.reshape(-1)


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
        when its affine form is not affine in them under the bindings."""
        env = self.it.env
        loops = self.leaf.path[1:]  # no index reads the batch axis
        if any(ax.var in env for ax in loops):
            return None
        loop_vars = [ax.var for ax in loops]
        strides = affine_form(index, loop_vars).strides(loop_vars, env)
        if None in strides:
            return None
        at_zero = dict(env)
        at_zero.update((ax.var, 0) for ax in loops)
        offset = eval_int(index, at_zero)
        if offset is None:
            return None
        return offset, [0] + strides

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
        self._slots: Dict[int, int] = {}

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
            slot = self._slots[id(e)] = len(self.sources)
            self.sources.append(source)
        return operator.itemgetter(slot)

    def loop_layout(self, e: _e.Expr) -> Optional[Tuple[Optional[int], tuple]]:
        """``(id(e), loop-order byte strides)`` of the operand that
        compiles ``e`` when it is a float32 load, ``(None, zeros)`` for a
        scalar constant, None for a computed value (its layout is
        NumPy's choice).  Known before ``e`` compiles."""
        if isinstance(e, _e.Load):
            strides = self._loop_strides(e)
            return None if strides is None else (id(e), strides)
        if isinstance(e, (_e.IntImm, _e.FloatImm)) or (
                isinstance(e, _e.Var) and e not in self.leaf.env):
            return None, (0,) * len(self.leaf.shape)
        return None

    def layout(self, found: Optional[tuple]) -> Optional[tuple]:
        """A :meth:`loop_layout` once compiled: ``(slot, fold-order byte
        strides)`` (``slot`` None for a constant), or None."""
        if found is None:
            return None
        key, strides = found
        return (None if key is None else self._slots[key],
                tuple(strides[j] for j in self.leaf.perm))

    def _loop_strides(self, e: _e.Load) -> Optional[Tuple[int, ...]]:
        """The byte strides, in loop order over the leaf's shape, of the
        operand :meth:`_source` makes for float32 load ``e`` from this
        interpreter's buffers (None for another dtype): a strided view's
        own, or a gather's (a new C-contiguous array) broadcast."""
        leaf, name = self.leaf, e.buffer.name
        if name in self.privates:
            arr = None
        else:
            arr = self.it.buffers[name]
            if arr.dtype != _F32:
                return None
        acc = leaf.access[id(e)]
        item = np.dtype(_F32).itemsize
        if isinstance(acc, _Strided):
            acc = acc._replace(shape=leaf.shape)
            strides = (_view(arr, acc).strides if arr is not None
                       else tuple(s * item for s in acc.strides))
        else:
            parts = acc if isinstance(acc, tuple) else (acc,)
            shape = np.broadcast_shapes(*(np.shape(p) for p in parts))
            shape = (1,) * (len(leaf.shape) - len(shape)) + shape
            strides = _c_strides(shape, item)
        return tuple(strides)

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
            if isinstance(acc, _Strided):
                if self.fold:
                    # the leaf-shaped view: stride 0 along every axis the
                    # address does not advance along (no broadcast_to)
                    acc = acc._replace(shape=leaf.shape)
                fold = leaf if self.fold else None
                if name not in self.privates:
                    make = _maker(acc, fold)
                    return lambda it, scratch: it._operand(name, make)
                make = _scratch_maker(acc, fold)
                return lambda it, scratch: make(scratch[name])
            private = name in self.privates

            def read(it, scratch):
                return (scratch[name] if private else it.buffers[name])[acc]
        if not self.fold:
            return read
        return lambda it, scratch: _fold_order(read(it, scratch), leaf)


def _maker(acc: _Strided, leaf: Optional[_Leaf]) -> Callable:
    """``make(arr)``: the strided view ``acc`` describes, in a reduction
    leaf's fold order when ``leaf`` is given."""
    if leaf is None:
        return lambda arr: _view(arr, acc)
    return lambda arr: _fold_order(_view(arr, acc), leaf)


def _scratch_maker(acc: _Strided, leaf: Optional[_Leaf]) -> Callable:
    """:func:`_maker` for a private buffer's scratch, a fresh contiguous
    float32 array: its byte strides, in fold order, are fixed here."""
    shape, strides = acc.shape, acc.strides
    if leaf is not None:
        shape = tuple(shape[j] for j in leaf.perm)
        strides = tuple(strides[j] for j in leaf.perm)
    item = np.dtype(_F32).itemsize
    offset, strides = acc.offset * item, tuple(s * item for s in strides)
    return lambda arr: np.ndarray(shape, _F32, arr, offset, strides)


def _target(leaf: _Leaf, privates: Dict[str, _Private]) -> Optional[Callable]:
    """``target(it, scratch)``: the strided view a store leaf writes (its
    lanes, for a reduction), or None for a gather, a channel write or an
    ``Evaluate``."""
    s = leaf.stmt
    acc = leaf.access.get(id(s)) if isinstance(s, _s.Store) else None
    if not isinstance(acc, _Strided):
        return None
    name = s.buffer.name
    if name in privates:
        make = _scratch_maker(acc, None)
        return lambda it, scratch: make(scratch[name])
    make = _maker(acc, None)
    return lambda it, scratch: it._operand(name, make)


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
        count("plan_keys")
        shapes = tuple(getattr(it.buffers.get(name), "shape", None)
                       for name in self.buffers)
        return tuple(it.env.get(v) for v in self.vars), shapes, it.batch


class _Binding:
    """What an interpreter fixes on its first run of a kernel.

    ``fixed`` are the kernel's buffers the interpreter was given, by
    array; the binding holds while the interpreter runs the same kernel
    over the same arrays.  ``top`` are the statements at the kernel's
    top level (outside any loop), whose plan keys read only bindings,
    buffer shapes and the batch size, so ``selected`` keeps the refusal
    each one's key selected, or its plan once the channels fed it: a
    replay of a selected plan runs no fill check.  ``views`` keeps each
    strided view of a fixed buffer, by the plan closure that makes it,
    so its byte strides and contiguity are decided once.
    """

    __slots__ = ("kernel", "fixed", "top", "selected", "views")

    def __init__(self, it: "VectorizedInterpreter", kernel: Kernel) -> None:
        self.kernel = kernel
        self.fixed = {b.name: it.buffers[b.name] for b in kernel.args
                      if b.name in it.buffers}
        self.top = _top_level(kernel)
        self.selected: Dict[_s.Stmt, Union[_BandPlan, str]] = {}
        self.views: Dict[Callable, np.ndarray] = {}

    def holds(self, it: "VectorizedInterpreter", kernel: Kernel) -> bool:
        return kernel is self.kernel and all(map(
            operator.is_, map(it.buffers.get, self.fixed),
            self.fixed.values()))


def _top_level(kernel: Kernel) -> frozenset:
    """The statements a run reaches without entering a loop or a branch:
    the kernel's band roots and, in a batch, statements outside any loop
    (kept in the kernel's lifetime memo)."""
    top = kernel.derived.get(_top_level)
    if top is None:
        found: List[_s.Stmt] = []

        def walk(s: _s.Stmt) -> None:
            if isinstance(s, _s.SeqStmt):
                for child in s.stmts:
                    walk(child)
            elif isinstance(s, (_s.AttrStmt, _s.Allocate)):
                walk(s.body)
            else:
                found.append(s)

        walk(kernel.body)
        top = kernel.derived[_top_level] = frozenset(found)
    return top


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
        #: what run() fixed for its kernel over these buffers
        self._bound: Optional[_Binding] = None

    @property
    def planned(self) -> int:
        """Bands this interpreter planned (phase A ran)."""
        return sum(1 for ev in self.events if not ev.reused)

    @property
    def reused(self) -> int:
        """Bands whose plan (or refusal) was replayed from the cache."""
        return sum(1 for ev in self.events if ev.reused)

    def run(self, kernel: Kernel) -> None:
        """Run ``kernel``; :attr:`events` then holds this run's bands.

        The first run of a kernel over the interpreter's buffers binds
        it (:class:`_Binding`); a later run of the same kernel over the
        same arrays reuses the binding.
        """
        if self._bound is None or not self._bound.holds(self, kernel):
            self._bound = _Binding(self, kernel)
        self._plans = kernel.derived.setdefault(_BandCache, {})
        self.events = []
        super().run(kernel)

    def _operand(self, name: str, make: Callable) -> np.ndarray:
        """``make(buffer)`` of buffer ``name``: made once per binding when
        the buffer is one the binding fixed, per call otherwise."""
        arr = self.buffers[name]
        bound = self._bound
        if bound is None or bound.fixed.get(name) is not arr:
            return make(arr)
        view = bound.views.get(make)
        if view is None:
            view = bound.views[make] = make(arr)
        return view

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
        bound = self._bound
        plan = bound.selected.get(root) if bound is not None else None
        proven = reused = plan is not None
        if not reused:
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
        if isinstance(plan, str):
            reason: Optional[str] = plan
        else:
            reason = None if proven else plan.check_channels(self)
        if not proven and bound is not None and root in bound.top and (
                reason is None or reason is plan):
            # a refusal, or a plan its channels could feed: the bound
            # kernel's producers fill them alike on every run
            bound.selected[root] = plan
        name = root.loop_var.name if isinstance(root, _s.For) else None
        if reason is not None:
            if name is not None:
                self.events.append(
                    BandEvent("fallback", name, reason, reused))
            return False
        plan.execute(self)  # phase B: cannot fail after phase A passed
        if name is not None:
            self.events.append(
                BandEvent("vectorized", name, plan.detail, reused))
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
