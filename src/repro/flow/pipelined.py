"""Pipelined (layer-parallel) deployment builder — thesis Section 6.3.1.

Builds the five LeNet bitstreams of Table 6.4, each adding one
optimization over the previous:

``base``
    TVM's default schedules; activations through global memory.  Boards
    whose Quartus auto-unrolls small loops get the free FxF unroll.
``unroll``
    Convolution FxF reductions unrolled explicitly; dense layers
    strip-mined and unrolled by 40/40/4.
``channels``
    Output feature maps stream through buffered CL channels sized to the
    producer's OFM; activations fused into the channel write; register
    write caches.
``autorun``
    Weight-free kernels (pooling, flatten) declared autorun.
``tvm_autorun``
    Same optimizations applied through TVM schedule primitives, which
    also tile a little further (the thesis measures this marginally ahead
    of the hand-written variant).

The builder is generic over *chain* graphs (every kernel feeds exactly
the next one), which is all pipelined execution supports — residual
topologies need folded execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import repro.ir as ir
from repro.device.boards import Board
from repro.errors import ReproError, UnsupportedError
from repro.flow.artifacts import PipelinedSchedule, ScheduledKernel
from repro.flow.incremental import prebuilt_kernel
from repro.relay.passes import FusedGraph, FusedNode
from repro.runtime.plan import PipelinePlan, PipelineStage
from repro.schedule import Schedule
from repro.topi import (
    ConvSpec,
    ConvTiling,
    DenseSpec,
    PoolSpec,
    conv2d_tensors,
    dense_tensors,
    flatten_tensors,
    gap_tensors,
    pad_tensors,
    pool_tensors,
    schedule_conv2d_naive,
    schedule_conv2d_opt,
    schedule_dense_naive,
    schedule_dense_opt,
    schedule_pool_naive,
    schedule_pool_opt,
    schedule_transform,
    softmax_kernel_licm,
    softmax_kernel_naive,
)

LEVELS = ("base", "unroll", "channels", "autorun", "tvm_autorun")

#: dense strip-mine factors per layer position (thesis Table 6.4: 40/40/4)
DENSE_UNROLL = {"dense1": 40, "dense2": 40, "dense3": 4}

#: extra tiling the TVM-scheduled variant applies (marginal gains)
TVM_EXTRA_TILING = {"conv1": ConvTiling(w2vec=2), "conv2": ConvTiling(c1vec=3)}


def _conv_spec(fn: FusedNode) -> ConvSpec:
    a = fn.anchor.attrs
    c1, h, w = fn.anchor.inputs[0].out_shape
    if a.get("pad", 0) not in (0, (0, 0)):
        raise UnsupportedError("conv kernels expect explicit pad nodes")
    if fn.has_residual:
        raise UnsupportedError("pipelined execution cannot fuse residuals")
    fn.check_canonical_epilogue()
    return ConvSpec(
        c1=c1, h=h, w=w, k=a["filters"], f=a["field"], s=a["stride"],
        bias=a.get("bias", True), activation=fn.activation, residual=False,
        batchnorm=fn.has_batchnorm,
    )


def _dense_spec(fn: FusedNode) -> DenseSpec:
    a = fn.anchor.attrs
    (n,) = fn.anchor.inputs[0].out_shape
    return DenseSpec(n=n, m=a["units"], bias=a.get("bias", True),
                     activation=fn.activation)


class _ChainKernelBuilder:
    """Build one kernel per fused node of a chain graph at a given level."""

    def __init__(self, level: str, board: Board,
                 channel_depth_scale: float = 1.0) -> None:
        if level not in LEVELS:
            raise ReproError(f"unknown optimization level {level!r}")
        self.level = level
        self.board = board
        self.channel_depth_scale = channel_depth_scale
        self.use_channels = level in ("channels", "autorun", "tvm_autorun")
        self.use_autorun = level in ("autorun", "tvm_autorun")
        self.optimized = level != "base"

    # -- per-op schedule selection --------------------------------------
    def conv_schedule(self, out: ir.Tensor, fn: FusedNode) -> Schedule:
        if self.level == "base":
            return schedule_conv2d_naive(
                out, auto_unroll_ff=self.board.auto_unroll_small_loops
            )
        if self.level == "unroll":
            sch = schedule_conv2d_naive(out, auto_unroll_ff=False)
            st = sch.stages[0]
            for ax in st.reduce_axes[-2:]:
                st.unroll(ax)
            return sch
        tiling = ConvTiling()
        if self.level == "tvm_autorun":
            tiling = TVM_EXTRA_TILING.get(fn.name, tiling)
        return schedule_conv2d_opt(out, tiling)

    def dense_schedule(self, out: ir.Tensor, fn: FusedNode) -> Schedule:
        if self.level == "base":
            return schedule_dense_naive(out)
        factor = DENSE_UNROLL.get(fn.name, 1)
        if self.level == "unroll":
            # unrolled but still accumulating through global memory
            sch = schedule_dense_naive(out)
            st = sch.stages[0]
            if factor > 1:
                _, ki = st.split(st.reduce_axes[0], factor)
                st.unroll(ki)
            return sch
        return schedule_dense_opt(out, factor)

    def pool_schedule(self, out: ir.Tensor) -> Schedule:
        if self.level == "base":
            return schedule_pool_naive(out)
        return schedule_pool_opt(out)

    # ------------------------------------------------------------------
    def schedule_graph(self, fused: FusedGraph) -> PipelinedSchedule:
        """Select a schedule (and channel wiring) for every fused node."""
        nodes = list(fused)
        # chain check
        for prev, nxt in zip(nodes, nodes[1:]):
            if nxt.anchor.inputs[0] is not prev.output_node:
                raise UnsupportedError(
                    f"pipelined builder needs a chain graph; {nxt.name} does "
                    f"not consume {prev.name}"
                )

        channels: Dict[str, ir.Channel] = {}
        if self.use_channels:
            for prev, nxt in zip(nodes, nodes[1:]):
                n = 1
                for d in prev.out_shape:
                    n *= d
                # depth sized to hold the producer's whole OFM (§4.11),
                # optionally scaled for the channel-depth ablation
                depth = max(0, int(n * self.channel_depth_scale))
                channels[prev.name] = ir.Channel(f"ch_{prev.name}", depth=depth)

        specs: List[ScheduledKernel] = []
        for i, fn in enumerate(nodes):
            ch_in = channels.get(nodes[i - 1].name) if i > 0 else None
            ch_out = channels.get(fn.name)
            specs.append(self._schedule_kernel(fn, ch_in, ch_out))
        return PipelinedSchedule(
            level=self.level,
            program_name=f"{fused.graph.name}_{self.level}",
            kernels=specs,
            channels=channels,
            uses_channels=self.use_channels,
        )

    # ------------------------------------------------------------------
    def _schedule_kernel(
        self,
        fn: FusedNode,
        ch_in: Optional[ir.Channel],
        ch_out: Optional[ir.Channel],
    ) -> ScheduledKernel:
        op = fn.op
        kname = f"k_{fn.name}"
        autorun = False

        if op == "conv2d":
            spec = _conv_spec(fn)
            ins, out = conv2d_tensors(spec, fn.name)
            sch = self.conv_schedule(out, fn)
        elif op == "dense":
            spec = _dense_spec(fn)
            ins, out = dense_tensors(spec, fn.name)
            sch = self.dense_schedule(out, fn)
        elif op in ("maxpool", "avgpool"):
            a = fn.anchor.attrs
            c, h, w = fn.anchor.inputs[0].out_shape
            pspec = PoolSpec(
                c=c, h=h, w=w, field=a["field"], stride=a["stride"],
                kind="max" if op == "maxpool" else "avg",
            )
            ins, out = pool_tensors(pspec, fn.name)
            sch = self.pool_schedule(out)
            autorun = self.use_autorun and ch_in is not None and ch_out is not None
        elif op == "global_avgpool":
            c, h, w = fn.anchor.inputs[0].out_shape
            ins, out = gap_tensors(c, h, w, fn.name)
            sch = self.pool_schedule(out)
            autorun = self.use_autorun and ch_in is not None and ch_out is not None
        elif op == "flatten":
            c, h, w = fn.anchor.inputs[0].out_shape
            ins, out = flatten_tensors(c, h, w, fn.name)
            sch = schedule_transform(out)
            autorun = self.use_autorun and ch_in is not None and ch_out is not None
        elif op == "pad":
            before, after = fn.anchor.attrs["pad"]
            c, h, w = fn.anchor.inputs[0].out_shape
            ins, out = pad_tensors(c, h, w, before, after, fn.name)
            sch = schedule_transform(out)
            autorun = self.use_autorun and ch_in is not None and ch_out is not None
        elif op == "softmax":
            (n,) = fn.anchor.inputs[0].out_shape
            # softmax is the terminal kernel: channel input supported via
            # rebuild with lowering options below
            if ch_in is not None or ch_out is not None:
                return self._softmax_with_channels(fn, n, kname, ch_in, ch_out)
            if self.optimized and self.level != "unroll":
                build = softmax_kernel_licm
            else:
                build = softmax_kernel_naive
            kern = prebuilt_kernel(build, n, fn.name, kname)
            return ScheduledKernel(name=kname, layer=fn.name, prebuilt=kern)
        else:  # pragma: no cover - vocabulary guard
            raise UnsupportedError(f"pipelined builder: unsupported op {op}")

        input_channels = (
            {f"{fn.name}_in": ch_in} if ch_in is not None else None
        )
        return ScheduledKernel(
            name=kname,
            layer=fn.name,
            schedule=sch,
            lower_options={
                "output_channel": ch_out,
                "input_channels": input_channels,
                "autorun": autorun,
            },
        )

    def _softmax_with_channels(
        self,
        fn: FusedNode,
        n: int,
        kname: str,
        ch_in: Optional[ir.Channel],
        ch_out: Optional[ir.Channel],
    ) -> ScheduledKernel:
        from repro.schedule import create_schedule
        from repro.topi.softmax import softmax_tensors

        _, tensors = softmax_tensors(n, fn.name)
        sch = create_schedule(*tensors)
        if not (self.optimized and self.level != "unroll"):
            maxelem, exps, expsum, norm = tensors
            norm_stage = sch[norm]
            (i1,) = norm_stage.data_axes
            attach = {
                sch[maxelem]: (norm_stage, i1),
                sch[exps]: (norm_stage, i1),
                sch[expsum]: (norm_stage, i1),
            }
        else:
            attach = None
        input_channels = (
            {f"{fn.name}_in": ch_in} if ch_in is not None else None
        )
        return ScheduledKernel(
            name=kname,
            layer=fn.name,
            schedule=sch,
            lower_options={
                "output_channel": ch_out,
                "input_channels": input_channels,
                "compute_at": attach,
            },
        )


def schedule_pipelined(
    fused: FusedGraph, level: str, board: Board,
    channel_depth_scale: float = 1.0,
) -> PipelinedSchedule:
    """``schedule`` stage: pick per-kernel schedules + channel wiring.

    ``channel_depth_scale`` scales every channel FIFO relative to the
    thesis's rule (depth = producer OFM size); values below 1 model the
    under-buffered channels whose stalls Section 4.6 warns about.
    """
    ir.reset_fresh_names()
    builder = _ChainKernelBuilder(level, board, channel_depth_scale)
    return builder.schedule_graph(fused)


def lower_pipelined(sched: PipelinedSchedule) -> ir.Program:
    """``lower`` stage: lower every scheduled kernel to statement IR.

    Runs through the per-kernel lower cache of
    :mod:`repro.flow.incremental`; pipelined kernels carry channel
    wiring in their lowering options, so most lower uncached today and
    are counted as such in the ``lower`` stage trace counters.
    """
    from repro.flow.incremental import lower_cache_stats, lower_kernels

    before = lower_cache_stats()
    program = ir.Program(lower_kernels(sched.kernels), sched.program_name)
    after = lower_cache_stats()
    program.lower_cache = {k: after[k] - before[k] for k in after}
    return program


def plan_pipelined(fused: FusedGraph, sched: PipelinedSchedule) -> PipelinePlan:
    """``plan`` stage: derive the host-runtime execution plan."""
    nodes = list(fused)
    stages: List[PipelineStage] = []
    for i, (fn, spec) in enumerate(zip(nodes, sched.kernels)):
        ch_in = sched.channels.get(nodes[i - 1].name) if i > 0 else None
        ch_out = sched.channels.get(fn.name)
        out_elems = 1
        for d in fn.out_shape:
            out_elems *= d
        stages.append(
            PipelineStage(
                kernel_name=spec.name,
                layer=fn.name,
                channel_in=ch_in is not None,
                channel_out=ch_out is not None,
                autorun=spec.autorun,
                channel_depth=ch_out.depth if ch_out is not None else 0,
                output_elems=out_elems,
            )
        )
    graph = fused.graph
    in_elems = 1
    for d in graph.input.out_shape:
        in_elems *= d
    out_elems = 1
    for d in graph.output.out_shape:
        out_elems *= d
    plan = PipelinePlan(
        stages=stages,
        input_bytes=in_elems * 4,
        output_bytes=out_elems * 4,
        uses_channels=sched.uses_channels,
    )
    # attach the DDR residency plan (all globally-buffered stages are
    # concurrently live, so there is no reuse — but RM003 capacity and
    # the serving layer's replicas-per-board packing still need it)
    from repro.verify.memory import plan_memory

    plan.memory = plan_memory(fused, plan, subject=f"pipelined:{graph.name}")
    return plan


def build_pipelined(
    fused: FusedGraph, level: str, board: Board,
    channel_depth_scale: float = 1.0,
) -> Tuple[ir.Program, PipelinePlan]:
    """One-shot schedule + lower + plan (the pre-pipeline API surface)."""
    sched = schedule_pipelined(fused, level, board, channel_depth_scale)
    return lower_pipelined(sched), plan_pipelined(fused, sched)
