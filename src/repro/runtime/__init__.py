"""OpenCL host-runtime simulation: plans, timing, event profiling.

Execution plans, serial/concurrent pipelined timing, folded timing,
batched dispatch timing (``simulate_batched``) and the functional
executors.  Contract: timing is one deterministic closed-form model
over virtual microseconds — ``simulate_pipelined`` is the only code
that costs a ``PipelinePlan`` and ``simulate_batched`` the only code
that costs a ``FoldedPlan`` — with no wall clock anywhere.
"""

from repro.runtime.plan import (
    FoldedPlan,
    Invocation,
    PipelinePlan,
    PipelineStage,
)
from repro.runtime.simulate import (
    RunResult,
    event_profile,
    per_op_profile,
    simulate_batched,
    simulate_folded,
    simulate_pipelined,
)
from repro.runtime.executor import run_folded_functional, run_pipelined_functional

__all__ = [
    "FoldedPlan", "Invocation", "PipelinePlan", "PipelineStage", "RunResult",
    "event_profile", "per_op_profile", "run_folded_functional",
    "run_pipelined_functional", "simulate_batched", "simulate_folded",
    "simulate_pipelined",
]
