"""Folded (time-multiplexed) deployment builder — thesis Sections 4.9/6.3.2.

Larger networks cannot map one kernel per layer: the LSUs alone exhaust
board resources.  Folded execution groups convolutions by (operation,
filter size, stride, fused-epilogue signature) into **parameterized
kernels** whose channel counts and spatial sizes are runtime arguments
(Section 5.3); every layer becomes one invocation of its group's kernel.
The naive mode builds one static kernel per layer with default schedules —
the baseline that fails to fit on the Arria 10.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import repro.ir as ir
from repro import counters
from repro.device.boards import Board
from repro.errors import ScheduleError, UnsupportedError
from repro.flow.artifacts import FoldedSchedule, ScheduledKernel
from repro.flow.incremental import (
    LOWER_COUNTS,
    SCHEDULE_COUNTS,
    lower_kernels,
    prebuilt_kernel,
    scheduled_kernel,
)
from repro.relay.passes import FusedGraph, FusedNode
from repro.runtime.plan import FoldedPlan, Invocation
from repro.schedule import ScheduleRecipe, create_schedule
from repro.topi import (
    ConvSpec,
    ConvTiling,
    DenseSpec,
    PoolSpec,
    conv1x1_opt_recipe,
    conv2d_naive_recipe,
    conv2d_opt_recipe,
    conv2d_symbolic,
    conv2d_tensors,
    dense_naive_recipe,
    dense_opt_recipe,
    dense_tensors,
    depthwise_naive_recipe,
    depthwise_opt_recipe,
    depthwise_symbolic,
    depthwise_tensors,
    flatten_tensors,
    gap_tensors,
    pad_symbolic,
    pad_tensors,
    pool_naive_recipe,
    pool_opt_recipe,
    pool_tensors,
    softmax_kernel_licm,
    softmax_kernel_naive,
    symbolic_conv_recipe,
    transform_recipe,
)

GroupKey = Tuple


@dataclass
class FoldedConfig:
    """Tiling configuration for a folded deployment.

    ``conv_tilings`` maps ``('conv'|'dw', field, stride)`` to a
    :class:`ConvTiling`; unlisted groups default to FxF unrolling only.
    ``recipe_deltas`` maps a kernel name to extra transform steps
    appended after that kernel's base recipe (how ``flow.autofix``
    rewrites schedules); ``recipe_overrides`` replaces a kernel's base
    recipe entirely with a deserialized one (the round-trip replay
    path).
    """

    conv_tilings: Dict[Tuple[str, int, int], ConvTiling] = field(default_factory=dict)
    dense_unroll: int = 32
    naive: bool = False
    #: model the Listing 5.11 stride-pinning workaround (True = coalesced)
    pin_unit_stride: bool = True
    recipe_deltas: Dict[str, ScheduleRecipe] = field(default_factory=dict)
    recipe_overrides: Dict[str, ScheduleRecipe] = field(default_factory=dict)

    def tiling_for(self, kind: str, f: int, s: int) -> ConvTiling:
        return self.conv_tilings.get((kind, f, s), ConvTiling())

    def copy(self) -> "FoldedConfig":
        """Every field carried over (``naive`` included), with fresh
        tables so the copy's tilings and recipes mutate independently."""
        return replace(
            self,
            conv_tilings=dict(self.conv_tilings),
            recipe_deltas=dict(self.recipe_deltas),
            recipe_overrides=dict(self.recipe_overrides),
        )


def op_label(fn: FusedNode) -> str:
    """Operation label used by the per-op profiling tables."""
    a = fn.anchor.attrs
    if fn.op == "conv2d":
        f, s = a["field"], a["stride"]
        return f"{f}x{f} conv S={s}"
    if fn.op == "depthwise_conv2d":
        return f"3x3 DW conv S={a['stride']}"
    if fn.op == "pad":
        return "pad"
    if fn.op == "dense":
        return "dense"
    if fn.op in ("maxpool", "avgpool"):
        return "pool"
    if fn.op == "global_avgpool":
        return "avgpool"
    return fn.op


def group_key(fn: FusedNode) -> GroupKey:
    """The kernel a layer shares in a folded build: convolutions by
    (kind, field, stride, fused-epilogue signature), pads by padding,
    every other layer its own (``('static', layer)``)."""
    a = fn.anchor.attrs
    if fn.op == "conv2d":
        return (
            "conv", a["field"], a["stride"], a.get("bias", True),
            fn.activation, fn.has_residual, fn.has_batchnorm,
        )
    if fn.op == "depthwise_conv2d":
        return (
            "dw", a["field"], a["stride"], a.get("bias", True),
            fn.activation, fn.has_batchnorm,
        )
    if fn.op == "pad":
        return ("pad",) + tuple(a["pad"])
    return ("static", fn.name)


def _final_recipe(config: FoldedConfig, kname: str, base):
    """The kernel's final recipe: its override in ``config`` wins, else
    ``base`` + its delta.  A ``base`` that reads the kernel's output
    tensor (``pool_opt_recipe``) resolves to the pair ``(base, delta)``,
    which :func:`_scheduled` finishes once the tensor exists."""
    rec = config.recipe_overrides.get(kname)
    if rec is not None:
        return rec
    delta = config.recipe_deltas.get(kname)
    if callable(base):
        return base, delta
    return base + delta if delta else base


def _scheduled(kname: str, layer: str, out: ir.Tensor, rec) -> ScheduledKernel:
    """``out`` scheduled by ``rec``, a :func:`_final_recipe`."""
    if isinstance(rec, tuple):
        base, delta = rec
        rec = base(out) + delta if delta else base(out)
    return ScheduledKernel(
        name=kname, layer=layer, schedule=rec.apply(create_schedule(out)),
        recipe=rec,
    )


def group_kernel(
    fn: FusedNode,
    key: GroupKey,
    config: FoldedConfig,
    name_start: Optional[int] = None,
) -> Tuple[ScheduledKernel, object]:
    """The parameterized kernel a folded build makes for group ``key``.

    ``fn`` is any member layer.  Returns the scheduled kernel — the
    build's kernel and tensor names, and its recipe resolved from
    ``config`` (its tiling for the group, then ``recipe_overrides`` or
    base + ``recipe_deltas``) — plus the symbolic handle that binds each
    member's shapes.  ``name_start`` resumes the IR name uniquifier
    there first (:func:`group_name_starts` gives the build's value), so
    the kernel's loop variables, and with them its lower key, are the
    build's; None constructs at the uniquifier's current value.  The
    kernel comes from :func:`~repro.flow.incremental.scheduled_kernel`,
    so the build and the prover share one object per content.
    """
    if name_start is not None:
        ir.reset_fresh_names(name_start)
    a = fn.anchor.attrs
    pin = config.pin_unit_stride
    base = "_".join(str(p) for p in key).replace("-", "m")
    kname = f"k_{base}"
    if fn.op == "conv2d":
        fn.check_canonical_epilogue()
        f, s = a["field"], a["stride"]
        call = (conv2d_symbolic, f, s, base, a.get("bias", True),
                fn.activation, fn.has_residual, fn.has_batchnorm, pin)
        base_recipe = symbolic_conv_recipe(
            config.tiling_for("conv", f, s), is_1x1=(f == 1)
        )
    elif fn.op == "depthwise_conv2d":
        fn.check_canonical_epilogue()
        f, s = a["field"], a["stride"]
        call = (depthwise_symbolic, f, s, base, a.get("bias", True),
                fn.activation, fn.has_batchnorm, pin)
        base_recipe = symbolic_conv_recipe(
            config.tiling_for("dw", f, s), is_1x1=False, depthwise=True
        )
    elif fn.op == "pad":
        call = (pad_symbolic, *a["pad"], base)
        base_recipe = transform_recipe()
    else:  # pragma: no cover
        raise UnsupportedError(f"cannot parameterize {fn.op}")
    rec = _final_recipe(config, kname, base_recipe)

    def construct():
        handle, _, out = call[0](*call[1:])
        return _scheduled(kname, fn.name, out, rec), handle

    return scheduled_kernel(("group", fn.name, kname, call, rec), construct)


#: fused graph -> the uniquifier's value at each group key's first layer
#: in that graph's folded build (see group_name_starts)
_NAME_STARTS: "weakref.WeakKeyDictionary[FusedGraph, Dict[GroupKey, int]]" = (
    weakref.WeakKeyDictionary()
)


def group_name_starts(fused: FusedGraph) -> Dict[GroupKey, int]:
    """Where a folded build of ``fused`` has the IR name uniquifier when
    it reaches each group key's first layer.

    Loop-variable names carry the uniquifier's count and the lower key
    hashes them, so a group kernel constructed outside the build (the
    dominance prover's) has the build's lower key only when constructed
    from the build's value.  That value depends on the fused graph
    alone: recipes construct no tensors, and a ``naive`` build, whose
    count differs, makes no group kernels.  So one schedule of the
    default configuration per graph records it.
    """
    starts = _NAME_STARTS.get(fused)
    if starts is None:
        builder = _FoldedBuilder(fused, FoldedConfig(), None)
        ir.reset_fresh_names()
        builder.schedule_graph()
        starts = _NAME_STARTS[fused] = builder.name_starts
    return starts


class _FoldedBuilder:
    def __init__(
        self, fused: FusedGraph, config: FoldedConfig, board: Optional[Board]
    ) -> None:
        self.fused = fused
        self.config = config
        self.board = board
        self.kernels: List[ScheduledKernel] = []
        self.invocations: List[Invocation] = []
        #: group key -> (kernel name, symbolic handle or None)
        self.groups: Dict[GroupKey, Tuple[str, object]] = {}
        #: group key -> the uniquifier's value at its first layer
        self.name_starts: Dict[GroupKey, int] = {}

    # ------------------------------------------------------------------
    def schedule_graph(self) -> FoldedSchedule:
        """Group layers into kernels and pick every kernel's schedule."""
        keys = [group_key(fn) for fn in self.fused]
        counts: Dict[GroupKey, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        for fn, key in zip(self.fused, keys):
            self.name_starts.setdefault(key, ir.fresh_name_count())
            parameterize = (
                not self.config.naive
                and counts[key] > 1
                and fn.op in ("conv2d", "depthwise_conv2d", "pad")
            )
            if parameterize:
                kname, handle = self._get_group_kernel(fn, key)
                bindings = self._bindings(fn, handle)
                prefix = kname[2:]  # strip the "k_" kernel prefix
            else:
                kname = self._schedule_static_kernel(fn)
                bindings = None
                prefix = fn.name
            self.invocations.append(
                Invocation(
                    kernel_name=kname,
                    layer=fn.name,
                    op_label=op_label(fn),
                    bindings=bindings,
                    flops=fn.flops(),
                    buffer_prefix=prefix,
                    input_node=fn.anchor.inputs[0].name,
                    extra_input_nodes=tuple(n.name for n in fn.extra_inputs),
                )
            )
        suffix = "naive" if self.config.naive else "folded"
        return FoldedSchedule(
            program_name=f"{self.fused.graph.name}_{suffix}",
            kernels=self.kernels,
            invocations=self.invocations,
            groups={k: name for k, (name, _) in self.groups.items()},
        )

    # ------------------------------------------------------------------
    def _get_group_kernel(self, fn: FusedNode, key: GroupKey):
        if key not in self.groups:
            sk, handle = group_kernel(fn, key, self.config)
            self.kernels.append(sk)
            self.groups[key] = (sk.name, handle)
        return self.groups[key]

    def _bindings(self, fn: FusedNode, handle):
        c_in = fn.anchor.inputs[0].out_shape
        a = fn.anchor.attrs
        if fn.op == "conv2d":
            c1, hi, wi = c_in
            return handle.bindings(c1, hi, wi, a["filters"])
        if fn.op == "depthwise_conv2d":
            c1, hi, wi = c_in
            return handle.bindings(c1, hi, wi)
        if fn.op == "pad":
            c, hi, wi = c_in
            return handle.bindings(c, hi, wi)
        raise UnsupportedError(fn.op)  # pragma: no cover

    # ------------------------------------------------------------------
    def _schedule_static_kernel(self, fn: FusedNode) -> str:
        """Schedule ``fn``'s own kernel through the schedule memo, keyed
        like a group kernel (:func:`group_kernel`)."""
        kname = f"k_{fn.name}"
        if fn.op == "softmax":
            (n,) = fn.anchor.inputs[0].out_shape
            build = (
                softmax_kernel_naive if self.config.naive
                else softmax_kernel_licm
            )
            self.kernels.append(prebuilt_kernel(build, n, fn.name, kname))
            return kname
        call, base = self._static_parts(fn)
        rec = _final_recipe(self.config, kname, base)
        self.kernels.append(scheduled_kernel(
            ("static", fn.name, kname, call, rec),
            lambda: _scheduled(kname, fn.name, call[0](*call[1:])[1], rec),
        ))
        return kname

    def _static_parts(self, fn: FusedNode):
        """``(call, base)``: the call ``(constructor, *args)`` that
        builds ``fn``'s tensors (the output second), and the kernel's
        base recipe (``pool_opt_recipe`` itself where the recipe reads
        the output tensor)."""
        a = fn.anchor.attrs
        naive = self.config.naive
        if fn.op == "conv2d":
            fn.check_canonical_epilogue()
            c1, h, w = fn.anchor.inputs[0].out_shape
            spec = ConvSpec(
                c1=c1, h=h, w=w, k=a["filters"], f=a["field"], s=a["stride"],
                bias=a.get("bias", True), activation=fn.activation,
                residual=fn.has_residual, batchnorm=fn.has_batchnorm,
            )
            if naive:
                base = conv2d_naive_recipe(
                    auto_unroll_ff=self.board.auto_unroll_small_loops
                )
            else:
                tiling = self.config.tiling_for("conv", spec.f, spec.s)
                tiling = self._legal_tiling(tiling, spec)
                if spec.f == 1:
                    base = conv1x1_opt_recipe(tiling)
                else:
                    if tiling.c2vec != 1:
                        raise ScheduleError(
                            "c2vec tiling applies to 1x1 convs only (use conv1x1)"
                        )
                    base = conv2d_opt_recipe(tiling)
            return (conv2d_tensors, spec, fn.name), base
        if fn.op == "depthwise_conv2d":
            fn.check_canonical_epilogue()
            c1, h, w = fn.anchor.inputs[0].out_shape
            spec = ConvSpec(
                c1=c1, h=h, w=w, k=c1, f=a["field"], s=a["stride"],
                bias=a.get("bias", True), activation=fn.activation,
                batchnorm=fn.has_batchnorm,
            )
            if naive:
                base = depthwise_naive_recipe(
                    auto_unroll_ff=self.board.auto_unroll_small_loops
                )
            else:
                tiling = self._legal_tiling(
                    self.config.tiling_for("dw", spec.f, spec.s), spec
                )
                base = depthwise_opt_recipe(tiling)
            return (depthwise_tensors, spec, fn.name), base
        if fn.op == "pad":
            before, after = a["pad"]
            c, h, w = fn.anchor.inputs[0].out_shape
            call = (pad_tensors, c, h, w, before, after, fn.name)
            return call, transform_recipe()
        if fn.op in ("maxpool", "avgpool", "global_avgpool"):
            c, h, w = fn.anchor.inputs[0].out_shape
            base = pool_naive_recipe() if naive else pool_opt_recipe
            if fn.op == "global_avgpool":
                return (gap_tensors, c, h, w, fn.name), base
            spec = PoolSpec(
                c=c, h=h, w=w, field=a["field"], stride=a["stride"],
                kind="max" if fn.op == "maxpool" else "avg",
            )
            return (pool_tensors, spec, fn.name), base
        if fn.op == "flatten":
            c, h, w = fn.anchor.inputs[0].out_shape
            return (flatten_tensors, c, h, w, fn.name), transform_recipe()
        if fn.op == "dense":
            (n,) = fn.anchor.inputs[0].out_shape
            spec = DenseSpec(
                n=n, m=a["units"], bias=a.get("bias", True),
                activation=fn.activation,
            )
            if naive:
                base = dense_naive_recipe()
            else:
                factor = self.config.dense_unroll
                while factor > 1 and n % factor != 0:
                    factor //= 2
                base = dense_opt_recipe(factor)
            return (dense_tensors, spec, fn.name), base
        raise UnsupportedError(  # pragma: no cover
            f"folded builder: unsupported op {fn.op}"
        )

    @staticmethod
    def _legal_tiling(tiling: ConvTiling, spec: ConvSpec) -> ConvTiling:
        """Clamp tiling factors to divide this static layer's dims
        (thesis requirement 2 in Section 4.11)."""

        def fit(factor: int, extent: int) -> int:
            while factor > 1 and extent % factor != 0:
                factor -= 1
            return factor

        return ConvTiling(
            w2vec=fit(tiling.w2vec, spec.wo),
            c2vec=fit(tiling.c2vec, spec.k),
            c1vec=fit(tiling.c1vec, spec.c1),
            unroll_ff=tiling.unroll_ff,
        )


def schedule_folded(
    fused: FusedGraph, config: FoldedConfig, board: Board
) -> FoldedSchedule:
    """``schedule`` stage: group layers and pick per-kernel schedules.

    Every kernel comes through the schedule memo
    (:func:`repro.flow.incremental.scheduled_kernel`), so a DSE build
    constructs only the kernels its tiling changes; this run's hit/miss
    deltas land on the schedule for the stage's trace counters.
    """
    ir.reset_fresh_names()
    with counters.delta("schedule_", SCHEDULE_COUNTS) as memo:
        sched = _FoldedBuilder(fused, config, board).schedule_graph()
    sched.schedule_cache = memo
    return sched


def lower_folded(sched: FoldedSchedule) -> ir.Program:
    """``lower`` stage: lower every scheduled kernel to statement IR.

    Lowering is incremental (:mod:`repro.flow.incremental`): a kernel
    whose schedule fingerprint was lowered before — e.g. every untouched
    group when a DSE step changes one tiling — replays its IR from the
    per-kernel cache; this run's hit/miss/uncached deltas land on the
    program for the ``lower`` stage trace counters.
    """
    with counters.delta("lower_", LOWER_COUNTS) as memo:
        program = ir.Program(lower_kernels(sched.kernels), sched.program_name)
    program.lower_cache = memo
    return program


def plan_folded(fused: FusedGraph, sched: FoldedSchedule) -> FoldedPlan:
    """``plan`` stage: wrap the invocation sequence into a runtime plan."""
    graph = fused.graph
    in_elems = 1
    for d in graph.input.out_shape:
        in_elems *= d
    out_elems = 1
    for d in graph.output.out_shape:
        out_elems *= d
    plan = FoldedPlan(
        invocations=sched.invocations,
        input_bytes=in_elems * 4,
        output_bytes=out_elems * 4,
    )
    # attach the certified DDR arena: the deep import (not the package)
    # keeps plan construction decoupled from the analyzer suite
    from repro.verify.memory import plan_memory

    plan.memory = plan_memory(fused, plan, subject=f"folded:{graph.name}")
    return plan


def build_folded(
    fused: FusedGraph, config: FoldedConfig, board: Board
) -> Tuple[ir.Program, FoldedPlan]:
    """One-shot schedule + lower + plan (the pre-pipeline API surface)."""
    sched = schedule_folded(fused, config, board)
    return lower_folded(sched), plan_folded(fused, sched)
