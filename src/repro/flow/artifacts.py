"""Typed artifacts flowing between the deployment pipeline's stages.

The ``schedule`` stage produces a :class:`PipelinedSchedule` or
:class:`FoldedSchedule` — kernels that have been scheduled but not yet
lowered — which the ``lower`` stage turns into an :class:`ir.Program`
and the ``plan`` stage into a runtime execution plan.  Keeping these as
first-class artifacts lets the pipeline time, fingerprint and size each
phase independently.

:func:`tensor_call` is the one map from a fused node to the topi
constructor of its tensors, shared by the pipelined and folded
builders; each builder only picks the base recipe that schedules them
(:func:`final_recipe` and :func:`scheduled` resolve and apply it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import repro.ir as ir
from repro.errors import UnsupportedError
from repro.pipeline import register_canonicalizer, register_describer
from repro.relay.passes import FusedNode
from repro.runtime.plan import Invocation
from repro.schedule import Schedule, ScheduleRecipe
from repro.schedule import lower as lower_schedule
from repro.topi import (
    ConvSpec,
    DenseSpec,
    PoolSpec,
    conv2d_tensors,
    dense_tensors,
    depthwise_tensors,
    flatten_tensors,
    gap_tensors,
    pad_tensors,
    pool_tensors,
)


@dataclass
class ScheduledKernel:
    """One kernel after schedule selection, before lowering.

    Either ``schedule`` (+ ``lower_options`` forwarded to
    :func:`repro.schedule.lower`) or a ``prebuilt`` kernel for ops whose
    builders emit IR directly (softmax).  ``recipe`` is the declarative
    transform sequence the schedule was built from (:func:`scheduled`);
    its fingerprint enters the kernel's canonical form, so the
    content-addressed compile cache keys on the recipe.  It is None for
    prebuilt kernels only.  Both builders memoize scheduled kernels
    (:func:`repro.flow.incremental.scheduled_kernel`), so nothing
    mutates one after it is built.
    """

    name: str
    layer: str
    schedule: Optional[Schedule] = None
    prebuilt: Optional[ir.Kernel] = None
    lower_options: Dict[str, object] = field(default_factory=dict)
    recipe: Optional[ScheduleRecipe] = None

    @property
    def autorun(self) -> bool:
        if self.prebuilt is not None:
            return self.prebuilt.autorun
        return bool(self.lower_options.get("autorun", False))

    @cached_property
    def lower_key(self) -> Optional[str]:
        """:func:`~repro.flow.incremental.kernel_lower_key` of this kernel,
        computed once: lowering and the equivalence certifier both key on
        it, and a scheduled kernel is not modified after it is built."""
        from repro.flow.incremental import kernel_lower_key

        return kernel_lower_key(self)

    def lower(self) -> ir.Kernel:
        return lower_schedule(self.schedule, self.name, **self.lower_options)


def final_recipe(
    kname: str,
    base,
    overrides: Dict[str, ScheduleRecipe],
    deltas: Optional[Dict[str, ScheduleRecipe]] = None,
):
    """Kernel ``kname``'s final recipe: its entry in ``overrides`` wins,
    else ``base`` + its entry in ``deltas``.  A ``base`` that reads the
    kernel's output tensor (``pool_opt_recipe``) resolves to the pair
    ``(base, delta)``, which :func:`scheduled` finishes once the tensor
    exists.  A value either way, so builders key their memo on it."""
    rec = overrides.get(kname)
    if rec is not None:
        return rec
    delta = deltas.get(kname) if deltas else None
    if callable(base):
        return base, delta
    return base + delta if delta else base


def scheduled(
    kname: str, layer: str, sch: Schedule, rec, **lower_options: object
) -> ScheduledKernel:
    """``sch`` scheduled by ``rec``, a :func:`final_recipe`."""
    if isinstance(rec, tuple):
        base, delta = rec
        rec = base(sch.output) + delta if delta else base(sch.output)
    return ScheduledKernel(
        name=kname, layer=layer, schedule=rec.apply(sch),
        lower_options=lower_options, recipe=rec,
    )


def tensor_call(fn: FusedNode) -> Tuple:
    """The call ``(constructor, *args)`` that builds ``fn``'s tensors
    as ``(inputs, output)``: the layer's spec or shapes, then its name.

    A tuple of values, so the folded builder keys its schedule memo on
    it.  Softmax, whose four stages form their own schedule, has no
    entry here (:func:`repro.topi.softmax.softmax_schedule`).
    """
    a = fn.anchor.attrs
    shape = fn.anchor.inputs[0].out_shape
    if fn.op in ("conv2d", "depthwise_conv2d"):
        if a.get("pad", 0) not in (0, (0, 0)):
            raise UnsupportedError("conv kernels expect explicit pad nodes")
        fn.check_canonical_epilogue()
        c1, h, w = shape
        dw = fn.op == "depthwise_conv2d"
        spec = ConvSpec(
            c1=c1, h=h, w=w, k=c1 if dw else a["filters"], f=a["field"],
            s=a["stride"], bias=a.get("bias", True), activation=fn.activation,
            residual=not dw and fn.has_residual, batchnorm=fn.has_batchnorm,
        )
        return (depthwise_tensors if dw else conv2d_tensors), spec, fn.name
    if fn.op == "dense":
        (n,) = shape
        spec = DenseSpec(n=n, m=a["units"], bias=a.get("bias", True),
                         activation=fn.activation)
        return dense_tensors, spec, fn.name
    if fn.op in ("maxpool", "avgpool"):
        c, h, w = shape
        spec = PoolSpec(
            c=c, h=h, w=w, field=a["field"], stride=a["stride"],
            kind="max" if fn.op == "maxpool" else "avg",
        )
        return pool_tensors, spec, fn.name
    if fn.op == "global_avgpool":
        return (gap_tensors, *shape, fn.name)
    if fn.op == "flatten":
        return (flatten_tensors, *shape, fn.name)
    if fn.op == "pad":
        return (pad_tensors, *shape, *a["pad"], fn.name)
    raise UnsupportedError(f"no kernel builder for op {fn.op}")


@dataclass
class PipelinedSchedule:
    """Scheduled chain network: one kernel per fused node + channel wiring."""

    level: str
    program_name: str
    kernels: List[ScheduledKernel]
    #: producer layer name -> inter-kernel channel
    channels: Dict[str, ir.Channel]
    uses_channels: bool
    #: this build's schedule-memo hit/miss deltas (schedule_* counters)
    schedule_cache: Dict[str, int] = field(default_factory=dict)


@dataclass
class FoldedSchedule:
    """Scheduled folded network: grouped kernels + per-layer invocations."""

    program_name: str
    kernels: List[ScheduledKernel]
    invocations: List[Invocation]
    #: group key -> kernel name, for introspection/tests
    groups: Dict[Tuple, str] = field(default_factory=dict)
    #: this build's schedule-memo hit/miss deltas (schedule_* counters)
    schedule_cache: Dict[str, int] = field(default_factory=dict)


# -- pipeline integration ---------------------------------------------------
# The synthesize key hashes the schedule artifact, and the folded flow's
# stage configs hold recipes (FoldedConfig.recipe_deltas/_overrides).

register_canonicalizer(
    ScheduleRecipe,
    lambda r: ["schedule-recipe", r.to_dict()],
)
register_canonicalizer(
    ScheduledKernel,
    lambda s: [
        "scheduled-kernel", s.name, s.layer, s.prebuilt is not None,
        sorted(s.lower_options),
        None if s.recipe is None else s.recipe.fingerprint(),
    ],
)
register_canonicalizer(
    PipelinedSchedule,
    lambda s: [
        "pipelined-schedule", s.level, s.program_name,
        [k for k in s.kernels], s.channels, s.uses_channels,
    ],
)
register_canonicalizer(
    FoldedSchedule,
    lambda s: [
        "folded-schedule", s.program_name, [k for k in s.kernels],
        [i.kernel_name for i in s.invocations],
    ],
)


def _memo_counters(s) -> Dict[str, int]:
    """A schedule's memo deltas as ``schedule_hits``/``schedule_misses``."""
    return {f"schedule_{k}": v for k, v in s.schedule_cache.items()}


register_describer(
    PipelinedSchedule,
    lambda s: (
        len(s.kernels),
        {"kernels": len(s.kernels), "channels": len(s.channels),
         **_memo_counters(s)},
    ),
)
register_describer(
    FoldedSchedule,
    lambda s: (
        len(s.kernels),
        {"kernels": len(s.kernels), "invocations": len(s.invocations),
         **_memo_counters(s)},
    ),
)
