"""Typed artifacts flowing between the deployment pipeline's stages.

The ``schedule`` stage produces a :class:`PipelinedSchedule` or
:class:`FoldedSchedule` — kernels that have been scheduled but not yet
lowered — which the ``lower`` stage turns into an :class:`ir.Program`
and the ``plan`` stage into a runtime execution plan.  Keeping these as
first-class artifacts lets the pipeline time, fingerprint and size each
phase independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import repro.ir as ir
from repro.pipeline import register_canonicalizer, register_describer
from repro.runtime.plan import Invocation
from repro.schedule import Schedule, ScheduleRecipe
from repro.schedule import lower as lower_schedule


@dataclass
class ScheduledKernel:
    """One kernel after schedule selection, before lowering.

    Either ``schedule`` (+ ``lower_options`` forwarded to
    :func:`repro.schedule.lower`) or a ``prebuilt`` kernel for ops whose
    builders emit IR directly (softmax).  ``recipe`` is the declarative
    transform sequence the schedule was built from (None for prebuilt
    kernels); its fingerprint enters the kernel's canonical form, so the
    content-addressed compile cache keys on the recipe.
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
        if self.prebuilt is not None:
            return self.prebuilt
        return lower_schedule(self.schedule, self.name, **self.lower_options)


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
