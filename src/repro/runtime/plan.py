"""Deployment plans: how a network maps onto a bitstream's kernels.

Two execution modes, as in thesis Chapter 3:

* **Pipelined** (:class:`PipelinePlan`): one kernel per layer, activations
  stream through channels, all kernels concurrently resident.  Used for
  LeNet.
* **Folded** (:class:`FoldedPlan`): a time-multiplexed sequence of kernel
  invocations (possibly re-using one parameterized kernel for many
  layers), activations through global memory.  Used for MobileNet/ResNet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir import expr as _e

Bindings = Dict[_e.Var, int]


class _Memo:
    """A plan's lifetime memo, ``derived``: what the executor binds for
    the plan (:class:`repro.runtime.executor.BoundForward`, one per batch
    size and interpreter).  It is not a dataclass field, so it stays out
    of comparisons and fingerprints, and it pickles empty, like
    :attr:`repro.ir.kernel.Kernel.derived`."""

    def __post_init__(self) -> None:
        self.derived: Dict[object, object] = {}

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "derived": {}}


@dataclass
class PipelineStage:
    """One kernel in a pipelined deployment."""

    kernel_name: str
    #: human label ("conv1", "pool2", ...)
    layer: str
    #: kernel is fed by a channel (no global input traffic)
    channel_in: bool = False
    #: kernel streams its output to a channel
    channel_out: bool = False
    autorun: bool = False
    #: output-channel FIFO depth in elements (0 = register channel)
    channel_depth: int = 0
    #: elements the stage streams out per image (its OFM size)
    output_elems: int = 0


@dataclass
class PipelinePlan(_Memo):
    """Pipelined (layer-parallel) deployment description."""

    stages: List[PipelineStage]
    #: host->device bytes per image (the input feature map)
    input_bytes: int = 0
    #: device->host bytes per image (the classification output)
    output_bytes: int = 0
    #: whether stages communicate via channels at all (base/unroll levels
    #: move activations through global memory instead)
    uses_channels: bool = False
    #: certified DDR residency (:class:`repro.verify.memory.MemoryPlan`);
    #: ``None`` when the footprint could not be bounded statically
    memory: Optional[object] = None


@dataclass
class Invocation:
    """One kernel launch in a folded deployment."""

    kernel_name: str
    layer: str
    #: operation label for per-op profiling ("1x1 conv", "3x3 DW conv"...)
    op_label: str
    bindings: Optional[Bindings] = None
    #: FLOPs this invocation performs (for GFLOPS accounting)
    flops: int = 0
    #: tensor-name prefix of the kernel's buffers (group base name)
    buffer_prefix: str = ""
    #: graph node whose value feeds the kernel's primary input
    input_node: str = ""
    #: graph nodes feeding extra inputs (residual shortcuts), in order
    extra_input_nodes: tuple = ()


@dataclass
class FoldedPlan(_Memo):
    """Folded (time-multiplexed) deployment description."""

    invocations: List[Invocation]
    input_bytes: int = 0
    output_bytes: int = 0
    #: certified DDR arena (:class:`repro.verify.memory.MemoryPlan`):
    #: non-interfering activations share global-memory slots, and the
    #: functional executor allocates the arena instead of one buffer per
    #: activation.  ``None`` when liveness could not be bounded.
    memory: Optional[object] = None
