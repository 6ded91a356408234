"""Stage definitions wiring the deployment flow into :mod:`repro.pipeline`.

The thesis' Figure 3.1 flow becomes eight named stages —
``import -> fuse -> schedule -> lower -> codegen -> plan -> verify ->
synthesize`` — each producing one typed artifact:

========== ============ ==========================================
stage      artifact     type
========== ============ ==========================================
import     graph        :class:`repro.relay.graph.Graph`
fuse       fused        :class:`repro.relay.passes.FusedGraph`
schedule   schedule     ``PipelinedSchedule`` / ``FoldedSchedule``
lower      program      :class:`repro.ir.Program`
codegen    source       ``str`` (the generated ``.cl`` file)
plan       plan         ``PipelinePlan`` / ``FoldedPlan``
verify     verify       :class:`repro.verify.VerifyReport`
synthesize bitstream    :class:`repro.aoc.compiler.Bitstream`
========== ============ ==========================================

The ``plan`` stage derives the host-runtime execution plan once per
build; the ``verify`` stage runs the static analyzers of
:mod:`repro.verify` (bounds, unroll races, channel protocol, OpenCL
lint) over the lowered program, the emitted source and that plan, and
fails the deploy with :class:`~repro.errors.VerificationError` on any
error-severity finding — *before* any synthesis time is spent.

The ``synthesize`` stage — by far the most expensive in a real flow —
is content-addressed: its cache key hashes the generated OpenCL source,
the program's channel depths, the board and the AOC cost-model
constants, so any change to graph, schedule, tiling, board or constants
misses while a repeated deploy hits.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.codegen import generate_opencl
from repro.device.boards import Board
from repro.flow.folded import (
    FoldedConfig,
    lower_folded,
    plan_folded,
    schedule_folded,
)
from repro.flow.pipelined import lower_pipelined, plan_pipelined, schedule_pipelined
from repro.models import (
    alexnet,
    lenet5,
    mobilenet_v1,
    resnet,
    resnet18,
    resnet34,
    resnet50,
)
from repro.pipeline import (
    BY_CONTENT,
    CompileCache,
    Context,
    Pipeline,
    Stage,
    default_cache,
)
from repro.pipeline.fingerprint import fingerprint
from repro.relay import fuse_operators
from repro.resilience.synth import synthesize_resilient
from repro.verify import assert_clean, verify_build

#: name -> graph constructor, the networks the flow knows how to import
MODELS: Dict[str, Callable] = {
    "lenet5": lenet5,
    "mobilenet_v1": mobilenet_v1,
    "resnet18": resnet18,
    "resnet34": resnet34,
    # published conv-BN-activation variants (bias-free convolutions)
    "mobilenet_v1_bn": lambda: mobilenet_v1(batchnorm=True),
    "resnet18_bn": lambda: resnet(18, batchnorm=True),
    "resnet34_bn": lambda: resnet(34, batchnorm=True),
    # extensions beyond the thesis: the §6.6 comparison networks
    "resnet50": resnet50,
    "alexnet": alexnet,
}

#: pass ``cache=DISABLED`` to run a flow without any compile cache
DISABLED = False

CacheOption = Union[CompileCache, None, bool]


def resolve_cache(cache: CacheOption) -> Optional[CompileCache]:
    """``None`` -> the process-wide default cache, ``DISABLED`` -> no cache."""
    if cache is None:
        return default_cache()
    if cache is False:
        return None
    return cache


def synthesize_key(config_fingerprint: str) -> Callable[[Context], str]:
    """Content-addressed key for the ``synthesize`` stage.

    Hashes the emitted OpenCL source (which embeds every schedule and
    tiling decision, including ``__attribute__((depth(N)))`` channel
    depths), the schedule artifact (whose kernels canonicalize to their
    recipe fingerprints, so a DSE/autotune point is cached as its
    (tiling, recipe) identity), the channel list, and the stage's
    ``config_fingerprint`` — every field of the target board and of the
    cost-model constants, so a board that differs from a shipped one in
    any resource (not only by name) misses.  Source text is reproducible
    because builders reset the IR name uniquifier
    (:func:`repro.ir.reset_fresh_names`) per build.  The tag names the
    key's format; entries keyed by an older one miss.
    """

    def key(ctx: Context) -> str:
        program = ctx.value("program")
        channels = sorted((c.name, c.depth) for c in program.all_channels())
        return fingerprint(
            [
                "synthesize/config-fingerprint",
                ctx.value("source"),
                ctx.value("schedule"),
                channels,
                config_fingerprint,
            ]
        )

    return key


def _import_stage(network: str) -> Stage:
    return Stage("import", "graph", lambda ctx: MODELS[network](), BY_CONTENT)


def _fuse_stage() -> Stage:
    return Stage(
        "fuse", "fused", lambda ctx: fuse_operators(ctx.value("graph")), ()
    )


def _codegen_stage() -> Stage:
    """Fingerprinted by content: the source text is what the synthesize
    key hashes, and two builds that emit the same text compare equal."""
    return Stage(
        "codegen", "source",
        lambda ctx: generate_opencl(ctx.value("program")), BY_CONTENT,
    )


def _synthesize_stage(board: Board, constants: AOCConstants) -> Stage:
    stage = Stage(
        "synthesize",
        "bitstream",
        lambda ctx: synthesize_resilient(ctx.value("program"), board, constants),
        (board, constants),
    )
    stage.cache_key = synthesize_key(stage.config_fingerprint)
    return stage


def _verify_stage(
    board: Optional[Board] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> Stage:
    """The static-verification gate between ``plan`` and ``synthesize``.

    The verifier reads the ``plan`` artifact, when the flow has one, for
    channel/plan cross-checks and for the binding sets of folded
    kernels.  A report with any error-severity diagnostic raises
    :class:`~repro.errors.VerificationError`, so no synthesis time is
    ever spent on a provably broken build.  With a
    ``board`` the performance advisor (RP rules) runs too; its
    advice-severity findings never fail the stage but land in the stage
    trace as notes.

    The schedule-equivalence certifier (RE rules,
    :mod:`repro.verify.equiv`) runs as part of this stage: every
    recipe-backed kernel's scheduled lowering is statically proven
    equivalent to its naive lowering, an ``RE`` error fails the build
    exactly like an RB/RR/RC finding, and the per-status certificate
    counts (``equiv_certified``/``equiv_unknown``/...) land on the
    stage's trace counters.  The stage itself never runs the
    interpreter: an unprovable kernel surfaces as an ``RE006`` warning
    and is left for the accept paths (autofix/DSE) to dynamically
    cross-check.

    The memory certifier (RM rules, :mod:`repro.verify.memory`) runs
    here too: activation liveness over the plan, arena-slot soundness
    (RM001/RM004), symbolic-size bounds (RM002) and board DDR capacity
    (RM003) all gate synthesis; the footprint counters
    (``memory_arena_bytes``/``memory_saved_bytes``/...) land on the
    stage trace.

    The report keeps what the certifiers return — the per-kernel
    certificates and the memory plan with its certificate — so
    ``python -m repro.report --check`` renders this one stage's output
    instead of re-running any analyzer.
    """

    def fn(ctx: Context):
        from repro.verify.equiv import certify_build
        from repro.verify.memory import check_memory

        plan = ctx.value("plan") if "plan" in ctx else None
        report = verify_build(
            ctx.value("program"),
            source=ctx.value("source"),
            plan=plan,
            subject=ctx.pipeline,
            board=board,
            constants=constants,
        )
        if "schedule" in ctx:
            equiv_report, report.certificates = certify_build(
                ctx.value("schedule"), plan=plan, subject=ctx.pipeline,
                dynamic_fallback=False,
            )
            report.merge(equiv_report)
        # memory certifier (RM rules): liveness, arena soundness, board
        # DDR capacity — an RM error fails the build pre-synthesis.
        # Plan-less runs (bare-program verification) have no invocation
        # sequence to analyze, so the RM gate has nothing to certify.
        if plan is not None and "fused" in ctx:
            mem_report, report.memory, report.memory_certificate = check_memory(
                ctx.value("fused"), plan,
                program=ctx.value("program"), board=board,
                subject=ctx.pipeline,
            )
            report.merge(mem_report)
        return assert_clean(report)

    return Stage("verify", "verify", fn, (board, constants))


def pipelined_flow(
    network: str,
    board: Board,
    level: str = "tvm_autorun",
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
    channel_depth_scale: float = 1.0,
) -> Pipeline:
    """The eight-stage pipelined (LeNet-class) deployment flow."""
    return Pipeline(
        f"pipelined:{network}:{level}:{board.name}",
        [
            _import_stage(network),
            _fuse_stage(),
            Stage(
                "schedule",
                "schedule",
                lambda ctx: schedule_pipelined(
                    ctx.value("fused"), level, board, channel_depth_scale
                ),
                (level, board, channel_depth_scale),
            ),
            Stage("lower", "program",
                  lambda ctx: lower_pipelined(ctx.value("schedule")), ()),
            _codegen_stage(),
            Stage(
                "plan",
                "plan",
                lambda ctx: plan_pipelined(ctx.value("fused"), ctx.value("schedule")),
                (),
            ),
            _verify_stage(board, constants),
            _synthesize_stage(board, constants),
        ],
        cache=resolve_cache(cache),
    )


def folded_flow(
    network: str,
    board: Board,
    config: FoldedConfig,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
    autofix: bool = False,
) -> Pipeline:
    """The eight-stage folded (MobileNet/ResNet-class) deployment flow.

    With ``autofix`` an extra ``autofix`` stage runs between ``fuse``
    and ``schedule``: the advise->rewrite loop of
    :mod:`repro.flow.autofix` iterates the given config to an
    advice-clean fixpoint (or a structured stuck report) *before* any
    synthesis, and the downstream stages build its fixed configuration.
    The :class:`~repro.flow.autofix.AutofixResult` lands in the stage
    trace as the ``autofix`` artifact.
    """
    stages = [_import_stage(network), _fuse_stage()]
    if autofix:
        from repro.flow.autofix import autofix_folded

        stages.append(
            Stage(
                "autofix",
                "autofix",
                lambda ctx: autofix_folded(
                    ctx.value("fused"), board, config=config,
                    constants=constants,
                ),
                (board, config, constants),
            )
        )

        def config_of(ctx: Context) -> FoldedConfig:
            return ctx.value("autofix").config
    else:
        def config_of(ctx: Context) -> FoldedConfig:
            return config

    stages += [
        Stage(
            "schedule",
            "schedule",
            lambda ctx: schedule_folded(ctx.value("fused"), config_of(ctx), board),
            (config, board),
        ),
        Stage("lower", "program",
              lambda ctx: lower_folded(ctx.value("schedule")), ()),
        _codegen_stage(),
        Stage(
            "plan",
            "plan",
            lambda ctx: plan_folded(ctx.value("fused"), ctx.value("schedule")),
            (),
        ),
        _verify_stage(board, constants),
        _synthesize_stage(board, constants),
    ]
    return Pipeline(
        f"folded:{network}:{board.name}" + (":autofix" if autofix else ""),
        stages,
        cache=resolve_cache(cache),
    )
