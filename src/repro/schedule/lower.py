"""Lowering: turn scheduled compute ops into kernel loop-nest IR.

Reproduces the structures in the thesis's Chapter 5 listings:

* naive reduction stages accumulate into a **global** scratchpad with a
  separate writeback loop (Listing 5.1, the II=5 serial-execution culprit);
* optimized stages accumulate into a **register/local** tile with the
  epilogue fused into the writeback at the tile boundary (Listings 5.2-5.4,
  three nests: init / reduce / write, all inner loops unrolled);
* stages can be *attached* (``compute_at``) inside a consumer loop, which
  is how the naive softmax (Listing 5.7) recomputes its max/sum per output
  element and how LICM (Listing 5.8) hoists them out;
* output feature maps can stream to an OpenCL channel instead of global
  memory, and inputs can arrive from channels into a local copy (§4.6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import LoweringError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import stmt_free_vars
from repro.ir.buffer import Buffer, Channel
from repro.ir.functor import StmtMutator, substitute
from repro.ir.kernel import Kernel
from repro.ir.tensor import IterVar, Tensor
from repro.schedule.schedule import Schedule, Stage


class _BufferReplacer(StmtMutator):
    """Replace loads/stores on one buffer with another buffer."""

    def __init__(self, mapping: Dict[Buffer, Buffer]) -> None:
        self.mapping = mapping

    def mutate_Load(self, e: _e.Load) -> _e.Expr:
        idx = self.mutate(e.index)
        buf = self.mapping.get(e.buffer, e.buffer)
        if buf is e.buffer and idx is e.index:
            return e
        return _e.Load(buf, idx)

    def mutate_Store(self, s: _s.Store) -> _s.Stmt:
        idx = self.mutate(s.index)
        val = self.mutate(s.value)
        buf = self.mapping.get(s.buffer, s.buffer)
        if buf is s.buffer and idx is s.index and val is s.value:
            return s
        return _s.Store(buf, idx, val)


def _loop_kind(stage: Stage, axis: IterVar) -> Tuple[_s.ForKind, Optional[int]]:
    if stage.is_unrolled(axis):
        return _s.ForKind.UNROLLED, stage.unrolled[axis]
    return _s.ForKind.SERIAL, None


def _nest(
    stage: Stage,
    axes: Sequence[IterVar],
    innermost: _s.Stmt,
    attachments: Optional[Dict[IterVar, List[_s.Stmt]]] = None,
) -> _s.Stmt:
    """Wrap ``innermost`` in loops over ``axes`` (outermost first).

    ``attachments`` maps an axis to statements emitted at the top of that
    axis's loop body (compute_at support).
    """
    body = innermost
    for ax in reversed(axes):
        if attachments and ax in attachments:
            body = _s.seq(*(attachments[ax] + [body]))
        kind, factor = _loop_kind(stage, ax)
        body = _s.For(ax.var, ax.extent_expr(), body, kind, factor)
    return body


class _StageLowerer:
    """Lower one stage to a statement, tracking scratch allocations."""

    def __init__(self, owner: "_ScheduleLowerer", stage: Stage, out_buffer: Buffer,
                 output_channel: Optional[Channel] = None) -> None:
        self.owner = owner
        self.stage = stage
        self.out_buffer = out_buffer
        self.output_channel = output_channel

    # ------------------------------------------------------------------
    def lower(self, attachments: Optional[Dict[IterVar, List[_s.Stmt]]] = None) -> _s.Stmt:
        stage, op = self.stage, self.stage.op
        sub = stage.substitution()
        data_idx = [substitute(ax.var, sub) for ax in op.axes]

        if not op.has_reduction:
            value = substitute(op.body, sub)
            value = self._epilogue(value, data_idx)
            store = self._store_out(data_idx, value)
            return _nest(stage, stage.leaf_axes, store, attachments)

        outer, region = stage.outer_and_region()
        tile_axes = [ax for ax in region if not ax.is_reduce]
        reduce_body: _e.Reduce = op.body  # type: ignore[assignment]

        tmp_shape: List[int] = []
        for ax in tile_axes:
            ext = ax.static_extent
            if ext is None:
                raise LoweringError(
                    f"{op.name}: accumulator tile axis {ax.name} must have a "
                    "static extent"
                )
            tmp_shape.append(ext)
        if not tmp_shape:
            tmp_shape = [1]
        scope = stage.scratch_scope
        tmp = Buffer(
            self.owner.fresh_name(op.name + "_acc"),
            tmp_shape,
            _e.FLOAT32,
            scope if scope != "global" else "global",
        )
        if scope == "global":
            self.owner.global_scratch.append(tmp)

        if tile_axes:
            tmp_idx = tmp.flatten_index([ax.var for ax in tile_axes])
        else:
            tmp_idx = _e.IntImm(0)

        init = _nest(
            stage,
            tile_axes,
            _s.Store(tmp, tmp_idx, reduce_body.identity),
        )
        update = substitute(reduce_body.value, sub)
        acc = _nest(
            stage,
            region,
            _s.Store(tmp, tmp_idx, reduce_body.combine(_e.Load(tmp, tmp_idx), update)),
        )
        final = self._epilogue(_e.Load(tmp, tmp_idx), data_idx)
        wb = _nest(stage, tile_axes, self._store_out(data_idx, final))

        inner = _s.seq(init, acc, wb)
        if scope != "global":
            inner = _s.Allocate(tmp, inner)
        return _nest(stage, outer, inner, attachments)

    # ------------------------------------------------------------------
    def _epilogue(self, value: _e.Expr, data_idx: Sequence[_e.Expr]) -> _e.Expr:
        if self.stage.op.epilogue is None:
            return value
        return self.stage.op.epilogue(value, *data_idx)

    def _store_out(self, data_idx: Sequence[_e.Expr], value: _e.Expr) -> _s.Stmt:
        if self.output_channel is not None:
            return _s.ChannelWrite(self.output_channel, value)
        return _s.Store(self.out_buffer, self.out_buffer.flatten_index(data_idx), value)


class _ScheduleLowerer:
    """Lower a whole schedule (possibly multi-stage) into one kernel."""

    def __init__(self, sch: Schedule) -> None:
        self.sch = sch
        self.global_scratch: List[Buffer] = []
        self._names: Set[str] = set()

    def fresh_name(self, base: str) -> str:
        name = base
        i = 0
        while name in self._names:
            i += 1
            name = f"{base}_{i}"
        self._names.add(name)
        return name

    def lower_body(
        self,
        output_channel: Optional[Channel],
        attach: Dict[Stage, Tuple[Stage, IterVar]],
    ) -> _s.Stmt:
        # group attachments per (consumer stage, axis)
        per_site: Dict[Tuple[int, IterVar], List[Stage]] = {}
        roots: List[Tuple[Tensor, Stage]] = []
        for tensor, stage in zip(self.sch.tensors, self.sch.stages):
            site = attach.get(stage)
            if site is None:
                roots.append((tensor, stage))
            else:
                consumer, axis = site
                key = (id(consumer), axis)
                per_site.setdefault(key, []).append(stage)

        stage_tensor = {stage: tensor for tensor, stage in zip(self.sch.tensors, self.sch.stages)}
        parts: List[_s.Stmt] = []
        for i, (tensor, stage) in enumerate(roots):
            is_output = tensor is self.sch.output
            parts.append(self.lower_stage(
                tensor, stage, output_channel if is_output else None,
                per_site, stage_tensor))
        return _s.seq(*parts)

    def lower_stage(
        self,
        tensor: Tensor,
        stage: Stage,
        channel: Optional[Channel],
        per_site: Dict[Tuple[int, IterVar], List[Stage]],
        stage_tensor: Dict[Stage, Tensor],
    ) -> _s.Stmt:
        """Lower one stage, with the stages attached at its axes."""
        attachments: Dict[IterVar, List[_s.Stmt]] = {}
        for ax in stage.leaf_axes:
            key = (id(stage), ax)
            if key in per_site:
                attachments[ax] = [
                    self.lower_stage(stage_tensor[child], child, None,
                                     per_site, stage_tensor)
                    for child in per_site[key]
                ]
        return _StageLowerer(self, stage, tensor.buffer, channel).lower(attachments)


def _loop_vars(s: _s.Stmt) -> Set[_e.Var]:
    """Every loop variable a statement tree binds."""
    found = {s.loop_var} if isinstance(s, _s.For) else set()
    return found.union(*map(_loop_vars, s.children()))


def lower_stage_body(sch: Schedule) -> _s.Stmt:
    """Lower a schedule to its raw loop-nest statement, pre-simplification.

    The equivalence certifier (:mod:`repro.verify.equiv`) compares the
    naive and scheduled lowerings *before* :func:`simplify_stmt` folds
    constants and collapses trip-1 loops, so the store/loop structure it
    reasons about is exactly what the lowerer emitted.
    """
    return _ScheduleLowerer(sch).lower_body(None, {})


def lower(
    sch: Schedule,
    kernel_name: str,
    *,
    output_channel: Optional[Channel] = None,
    input_channels: Optional[Dict[str, Channel]] = None,
    compute_at: Optional[Dict[Stage, Tuple[Stage, IterVar]]] = None,
    autorun: bool = False,
) -> Kernel:
    """Lower a schedule to a :class:`~repro.ir.kernel.Kernel`.

    Parameters
    ----------
    output_channel:
        If given, the output tensor is streamed to this channel instead of
        being written to global memory (pipelined execution, §4.6).
    input_channels:
        Maps input tensor *names* to channels; the kernel begins by reading
        the whole tensor from the channel into a local copy (channel data
        cannot be re-read, §4.6), and all body reads are redirected there.
    compute_at:
        Optional stage attachment map: stage -> (consumer stage, axis).
    autorun:
        Declare the kernel autorun (requires no global buffers, §4.7).
    """
    input_channels = input_channels or {}
    lowerer = _ScheduleLowerer(sch)
    body = lowerer.lower_body(output_channel, compute_at or {})

    # collect input placeholder buffers (those not computed by this schedule)
    computed = {t.name for t in sch.tensors}
    inputs: List[Buffer] = []
    seen: Set[str] = set()
    for stage in sch.stages:
        for t in stage.op.inputs:
            if t.name not in computed and t.name not in seen:
                seen.add(t.name)
                inputs.append(t.buffer)

    # channel-fed inputs: copy into a local buffer, then redirect reads
    preludes: List[_s.Stmt] = []
    replaced: Dict[Buffer, Buffer] = {}
    channel_input_names: Set[str] = set()
    for buf in inputs:
        ch = input_channels.get(buf.name)
        if ch is None:
            continue
        n = buf.num_elements()
        if n is None:
            raise LoweringError(
                f"channel-fed input {buf.name} must have a static shape"
            )
        local = Buffer(lowerer.fresh_name(buf.name + "_ch"), buf.shape, buf.dtype, "local")
        i = _e.Var(lowerer.fresh_name("cidx"))
        preludes.append(
            _s.For(i, _e.IntImm(n), _s.Store(local, i, _e.ChannelRead(ch)))
        )
        replaced[buf] = local
        channel_input_names.add(buf.name)

    if replaced:
        new_body = _BufferReplacer(replaced).mutate_stmt(body)
        assert new_body is not None
        body = _s.seq(*preludes, new_body)
        for local in replaced.values():
            body = _s.Allocate(local, body)

    args: List[Buffer] = [b for b in inputs if b.name not in channel_input_names]
    if output_channel is None:
        args.append(sch.output.buffer)
    # intermediate stage outputs (multi-stage kernels like softmax) are
    # global scratch buffers in TVM's lowering (Listings 5.7/5.8)
    intermediates = [
        t.buffer
        for t in sch.tensors[:-1]
        if t.buffer.scope == "global"
    ]
    args.extend(intermediates)
    args.extend(lowerer.global_scratch)

    # scalar args: free vars that are not loop-bound (symbolic shapes/strides)
    loop_vars = _loop_vars(body)
    scalar_args = sorted(
        (v for v in stmt_free_vars(body) if v not in loop_vars),
        key=lambda v: v.name,
    )

    # fold constants and collapse degenerate (trip-1) loops, as AOC's
    # front end would before scheduling
    from repro.ir.simplify import simplify_stmt

    body = simplify_stmt(body)
    kernel = Kernel(kernel_name, args, body, scalar_args=scalar_args, autorun=autorun)
    # propagate schedule metadata for the AOC model and the host runtime
    kernel.cached_reads = sorted(
        {name for stage in sch.stages for name in stage.cached_reads}
    )
    kernel.scratch_args = tuple(b.name for b in intermediates) + tuple(
        b.name for b in lowerer.global_scratch
    )
    kernel.output_buffer = (
        sch.output.buffer.name if output_channel is None else None
    )
    return kernel
