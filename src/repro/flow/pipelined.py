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

Every kernel is built like a folded one: the layer's tensors from
:func:`~repro.flow.artifacts.tensor_call`, scheduled by the level's
recipe from :mod:`repro.topi.recipes` (or its override), through the
schedule memo and the lower cache.  The level adds only the channel
wiring and autorun flag it lowers with.

The builder is generic over *chain* graphs (every kernel feeds exactly
the next one), which is all pipelined execution supports — residual
topologies need folded execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import repro.ir as ir
from repro import counters
from repro.device.boards import Board
from repro.errors import ReproError, UnsupportedError
from repro.flow.artifacts import (
    PipelinedSchedule,
    ScheduledKernel,
    final_recipe,
    scheduled,
    tensor_call,
)
from repro.flow.incremental import (
    SCHEDULE_COUNTS,
    lower_program,
    scheduled_kernel,
)
from repro.relay.passes import FusedGraph, FusedNode
from repro.runtime.plan import PipelinePlan, PipelineStage
from repro.schedule import ScheduleRecipe, create_schedule
from repro.topi import (
    ConvTiling,
    conv2d_naive_recipe,
    conv2d_opt_recipe,
    dense_naive_recipe,
    dense_opt_recipe,
    pool_naive_recipe,
    pool_opt_recipe,
    softmax_schedule,
    transform_recipe,
)

LEVELS = ("base", "unroll", "channels", "autorun", "tvm_autorun")

#: dense strip-mine factors per layer position (thesis Table 6.4: 40/40/4)
DENSE_UNROLL = {"dense1": 40, "dense2": 40, "dense3": 4}

#: extra tiling the TVM-scheduled variant applies (marginal gains)
TVM_EXTRA_TILING = {"conv1": ConvTiling(w2vec=2), "conv2": ConvTiling(c1vec=3)}

#: ops whose kernels take no weights: autorun when channel-fed both ways
WEIGHT_FREE = ("maxpool", "avgpool", "global_avgpool", "flatten", "pad")


class _ChainKernelBuilder:
    """Build one kernel per fused node of a chain graph at a given level."""

    def __init__(
        self, level: str, board: Board, channel_depth_scale: float = 1.0,
        recipe_overrides: Optional[Dict[str, ScheduleRecipe]] = None,
    ) -> None:
        if level not in LEVELS:
            raise ReproError(f"unknown optimization level {level!r}")
        self.level = level
        self.board = board
        self.channel_depth_scale = channel_depth_scale
        self.recipe_overrides = recipe_overrides or {}
        self.use_channels = level in ("channels", "autorun", "tvm_autorun")
        self.use_autorun = level in ("autorun", "tvm_autorun")
        #: base and unroll keep TVM's default (naive) schedule families
        self.naive = level in ("base", "unroll")

    def _base_recipe(self, fn: FusedNode):
        """The recipe that schedules ``fn`` at this level (as in the
        folded builder, ``pool_opt_recipe`` itself reads the output)."""
        op, level = fn.op, self.level
        if op == "conv2d":
            if level == "base":
                return conv2d_naive_recipe(self.board.auto_unroll_small_loops)
            if level == "unroll":
                return conv2d_naive_recipe(auto_unroll_ff=True)
            tiling = ConvTiling()
            if level == "tvm_autorun":
                tiling = TVM_EXTRA_TILING.get(fn.name, tiling)
            return conv2d_opt_recipe(tiling)
        if op == "dense":
            factor = DENSE_UNROLL.get(fn.name, 1)
            if level == "base" or (level == "unroll" and factor == 1):
                return dense_naive_recipe()
            if level == "unroll":
                # unrolled but still accumulating through global memory
                return dense_naive_recipe().split("k", factor).unroll("ki")
            return dense_opt_recipe(factor)
        if op in ("maxpool", "avgpool", "global_avgpool"):
            return pool_naive_recipe() if level == "base" else pool_opt_recipe
        if op in ("flatten", "pad", "softmax"):
            return transform_recipe()
        raise UnsupportedError(f"pipelined builder: unsupported op {op}")

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
        kname = f"k_{fn.name}"
        inputs = {f"{fn.name}_in": ch_in} if ch_in is not None else None
        if fn.op == "softmax":
            (n,) = fn.anchor.inputs[0].out_shape
            call = (softmax_schedule, n, fn.name, self.naive)
            autorun = None
        else:
            if fn.has_residual:
                raise UnsupportedError("pipelined execution cannot fuse residuals")
            call = tensor_call(fn)
            autorun = (
                self.use_autorun and fn.op in WEIGHT_FREE
                and ch_in is not None and ch_out is not None
            )
        rec = final_recipe(kname, self._base_recipe(fn), self.recipe_overrides)

        def construct() -> ScheduledKernel:
            if fn.op == "softmax":  # four stages, maybe attached
                sch, attach = call[0](*call[1:])
                options = {"compute_at": attach}
            else:
                sch = create_schedule(call[0](*call[1:])[1])
                options = {"autorun": autorun}
            return scheduled(
                kname, fn.name, sch, rec, output_channel=ch_out,
                input_channels=inputs, **options,
            )

        return scheduled_kernel(
            ("pipelined", fn.name, kname, call, rec, ch_in, ch_out, autorun),
            construct,
        )


def schedule_pipelined(
    fused: FusedGraph, level: str, board: Board,
    channel_depth_scale: float = 1.0,
    recipe_overrides: Optional[Dict[str, ScheduleRecipe]] = None,
) -> PipelinedSchedule:
    """``schedule`` stage: pick per-kernel schedules + channel wiring.

    ``channel_depth_scale`` scales every channel FIFO relative to the
    thesis's rule (depth = producer OFM size); values below 1 model the
    under-buffered channels whose stalls Section 4.6 warns about.
    ``recipe_overrides`` maps a kernel name to a whole recipe that
    replaces its level's, as ``FoldedConfig.recipe_overrides`` does.
    """
    ir.reset_fresh_names()
    builder = _ChainKernelBuilder(
        level, board, channel_depth_scale, recipe_overrides
    )
    with counters.delta("schedule_", SCHEDULE_COUNTS) as memo:
        sched = builder.schedule_graph(fused)
    sched.schedule_cache = memo
    return sched


#: ``lower`` stage: the lower key covers the channel wiring, so a
#: rebuilt level replays every kernel
lower_pipelined = lower_program


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
