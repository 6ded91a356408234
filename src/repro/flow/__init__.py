"""End-to-end deployment flow: model -> kernels -> bitstream -> simulation.

The user-facing drivers ``deploy_pipelined`` / ``deploy_folded`` /
``deploy_resilient``, the thesis tiling tables, the tiling DSE and the
whole-network autotuner, and the degradation ladder.  Contract: a
deploy returns a :class:`Deployment` that can be timed (``run``,
``run_batch``), inspected (``area``, ``opencl_source``, ``trace``) and
executed functionally (``forward``, ``classify``).
"""

from repro.flow.deploy import (
    DegradationLadder,
    Deployment,
    ResilientDeployment,
    RungAttempt,
    build_rung,
    default_folded_config,
    deploy_folded,
    deploy_pipelined,
    deploy_resilient,
    MOBILENET_1X1_TILINGS,
)
from repro.flow.artifacts import FoldedSchedule, PipelinedSchedule, ScheduledKernel
from repro.flow.folded import (
    FoldedConfig,
    build_folded,
    lower_folded,
    op_label,
    plan_folded,
    schedule_folded,
)
from repro.flow.pipelined import (
    LEVELS,
    build_pipelined,
    lower_pipelined,
    plan_pipelined,
    schedule_pipelined,
)
from repro.flow.stages import MODELS, folded_flow, pipelined_flow, synthesize_key
from repro.flow.autofix import (
    AutofixResult,
    BlockedFix,
    FixStep,
    autofix_folded,
    autofix_network,
    autofix_pipelined,
    plan_recipe_fixes,
)
from repro.flow.autotune import TuneResult, autotune_folded
from repro.flow.dse import (
    DSEPoint,
    SweepSummary,
    bandwidth_roof_elems,
    choose_tiling,
    divides_all,
    evaluate_tiling,
    sweep_conv1x1,
)

__all__ = [
    "AutofixResult", "BlockedFix", "DSEPoint", "DegradationLadder",
    "FixStep", "TuneResult", "autofix_folded", "autofix_network",
    "autofix_pipelined", "autotune_folded", "plan_recipe_fixes",
    "Deployment", "ResilientDeployment", "RungAttempt", "deploy_resilient",
    "FoldedConfig",
    "FoldedSchedule", "LEVELS", "MOBILENET_1X1_TILINGS", "MODELS",
    "PipelinedSchedule", "ScheduledKernel", "SweepSummary",
    "bandwidth_roof_elems", "build_folded", "build_pipelined", "build_rung",
    "choose_tiling",
    "default_folded_config", "deploy_folded", "deploy_pipelined", "divides_all",
    "evaluate_tiling", "folded_flow", "lower_folded",
    "lower_pipelined", "op_label", "pipelined_flow", "plan_folded",
    "plan_pipelined", "schedule_folded", "schedule_pipelined", "sweep_conv1x1",
    "synthesize_key",
]
