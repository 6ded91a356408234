"""Advice-driven auto-scheduler: rewrite schedules until the advisor is clean.

The thesis's optimization workflow is a human loop: read AOC's static
reports, rewrite the schedule, re-compile, repeat until the bottleneck
moves (Section 6).  :mod:`repro.verify.perf` automates the *reading*
half — every RP finding now carries a machine-readable ``fix`` — and
this module automates the *rewriting* half: it consumes the advisor's
findings, applies the matching recipe delta or tiling adjustment,
re-runs the verifier + advisor, and iterates to an advice-clean fixpoint
or a provably-stuck report.

Termination is by construction: every applicable fix moves the
configuration strictly up a finite lattice (recipe deltas only grow,
tiling factors only shrink, ``pin_unit_stride`` only flips to True), so
the loop either reaches a state with no applicable fixes or revisits a
state — both detected.  A bounded iteration count and a fingerprint-set
cycle check guard the invariant against a fix that fails to move its
finding.  Every intermediate configuration is re-verified (never
synthesized), and the final recipes round-trip through JSON back into a
bit-identical build via ``recipe_overrides``.  Folded and pipelined
builds run one loop driver; this is the fixpoint strategy of the
candidate search (:mod:`repro.flow.search`), whose conv-group extents
and certificate record it shares.

A *stuck* result is structured, not a failure: each blocking finding
names why no mechanical rewrite exists (a prebuilt kernel, an
accumulator already cached, a working set that is the whole buffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.codegen import generate_opencl
from repro.device.boards import Board
from repro.errors import ReproError
from repro.flow.artifacts import ScheduledKernel
from repro.flow.dse import divides_all
from repro.flow.folded import (
    FoldedConfig,
    lower_folded,
    plan_folded,
    schedule_folded,
)
from repro.flow.pipelined import (
    LEVELS,
    lower_pipelined,
    plan_pipelined,
    schedule_pipelined,
)
from repro.flow.search import CertCounters, GroupId, group_extents, group_of
from repro.pipeline.fingerprint import fingerprint
from repro.relay.passes import FusedGraph
from repro.schedule import ScheduleRecipe
from repro.verify import VerifyReport, certify_build, verify_build
from repro.verify.diagnostics import Diagnostic

#: hard bound on rewrite iterations; the lattice argument makes this
#: generous (each iteration must change at least one knob)
MAX_ITERATIONS = 16


@dataclass
class FixStep:
    """One fix the engine applied, tied to the finding that caused it."""

    iteration: int
    rule: str
    kernel: str
    location: str
    #: human-readable description of the rewrite
    action: str
    #: the machine-readable ``fix`` payload consumed
    fix: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "iteration": self.iteration, "rule": self.rule,
            "kernel": self.kernel, "location": self.location,
            "action": self.action, "fix": self.fix,
        }

    def format(self) -> str:
        where = self.kernel + (f":{self.location}" if self.location else "")
        return f"#{self.iteration} [{self.rule}] {where}: {self.action}"


@dataclass
class BlockedFix:
    """A finding with no applicable mechanical rewrite, and why."""

    rule: str
    kernel: str
    location: str
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule, "kernel": self.kernel,
            "location": self.location, "reason": self.reason,
        }

    def format(self) -> str:
        where = self.kernel + (f":{self.location}" if self.location else "")
        return f"[{self.rule}] {where}: {self.reason}"


@dataclass
class AutofixResult(CertCounters):
    """Outcome of one auto-scheduling run.

    ``status`` is ``'clean'`` (the advisor has nothing left to say) or
    ``'stuck'`` with a ``stuck_reason`` of ``'blocked'`` (every
    remaining finding has no mechanical rewrite — the provably-stuck
    case), ``'cycle'`` (a fix failed to move its finding and the
    configuration repeated), ``'iteration-limit'`` or
    ``'verify-error'`` (a rewrite introduced an error-severity finding;
    never expected, always fatal).  In folded mode the certificate
    counters describe the final build and sum the dynamic cross-checks
    of every iteration: the loop accepts rewrites on certificates, so
    ``cert_dynamic_runs`` is 0 when every rewrite certified.
    """

    subject: str
    mode: str  # 'folded' | 'pipelined'
    status: str = "stuck"
    stuck_reason: Optional[str] = None
    iterations: int = 0
    applied: List[FixStep] = field(default_factory=list)
    blocked: List[BlockedFix] = field(default_factory=list)
    #: advice findings still present in the final build
    remaining: List[Diagnostic] = field(default_factory=list)
    #: kernel name -> final recipe fingerprint
    recipes: Dict[str, str] = field(default_factory=dict)
    #: kernel name -> final recipe serialized to JSON
    recipes_json: Dict[str, str] = field(default_factory=dict)
    #: final folded configuration (None in pipelined mode)
    config: Optional[FoldedConfig] = None
    #: True when the serialized recipes rebuilt a bit-identical source
    roundtrip_ok: Optional[bool] = None
    #: per-iteration narration of the loop
    log: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.status == "clean"

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "mode": self.mode,
            "status": self.status,
            "stuck_reason": self.stuck_reason,
            "iterations": self.iterations,
            "applied": [s.to_dict() for s in self.applied],
            "blocked": [b.to_dict() for b in self.blocked],
            "remaining": [
                {"rule": d.rule, "kernel": d.kernel, "location": d.location,
                 "fix": d.fix}
                for d in self.remaining
            ],
            "recipes": dict(sorted(self.recipes.items())),
            "roundtrip_ok": self.roundtrip_ok,
            "certified": self.certified,
            "cert_unknown": self.cert_unknown,
            "cert_uncertified": self.cert_uncertified,
            "cert_dynamic_runs": self.cert_dynamic_runs,
            "log": list(self.log),
        }

    def format(self) -> str:
        lines = [f"autofix: {self.subject} ({self.mode})"]
        tag = self.status + (
            f" ({self.stuck_reason})" if self.stuck_reason else ""
        )
        lines.append(
            f"  {tag} after {self.iterations} iteration(s), "
            f"{len(self.applied)} fix(es) applied"
        )
        for s in self.applied:
            lines.append("  + " + s.format())
        for b in self.blocked:
            lines.append("  ! " + b.format())
        if self.roundtrip_ok is not None:
            lines.append(
                "  recipes round-trip: "
                + ("bit-identical" if self.roundtrip_ok else "MISMATCH")
            )
        if self.mode == "folded":
            lines.append(
                f"  equivalence: {self.certified} certified, "
                f"{self.cert_unknown} unknown, "
                f"{self.cert_uncertified} uncertified, "
                f"{self.cert_dynamic_runs} dynamic run(s)"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fix planning: one advisor finding -> one lattice move (or a reason why not)


class _Plan:
    """Fixes planned for one iteration: apply thunks + blocked reasons."""

    def __init__(self) -> None:
        self.steps: List[Tuple[FixStep, Callable[[], None]]] = []
        self.blocked: List[BlockedFix] = []
        self._knobs: set = set()

    def add(self, step: FixStep, knob: Tuple, thunk: Callable[[], None]) -> None:
        if knob in self._knobs:  # one move per knob per iteration
            return
        self._knobs.add(knob)
        self.steps.append((step, thunk))

    def block(self, d: Diagnostic, reason: str) -> None:
        self.blocked.append(BlockedFix(d.rule, d.kernel, d.location, reason))


#: plan_fix(finding, its scheduled kernel, iteration, plan)
_PlanFix = Callable[[Diagnostic, Optional[ScheduledKernel], int, _Plan], None]
#: edit(kernel, delta): append ``delta`` to the kernel's recipe
_Edit = Callable[[ScheduledKernel, ScheduleRecipe], None]


def _plan_all(
    advice: List[Diagnostic],
    kernels: Dict[str, ScheduledKernel],
    plan_fix: _PlanFix,
    iteration: int,
) -> _Plan:
    plan = _Plan()
    for d in advice:
        plan_fix(d, kernels.get(d.kernel), iteration, plan)
    return plan


def _append_to(table: Dict[str, ScheduleRecipe], whole: bool = False) -> _Edit:
    """Append each fix to its kernel's entry in ``table``: a delta on the
    base recipe (``FoldedConfig.recipe_deltas``) or, ``whole``, the
    kernel's whole recipe (recipe overrides)."""

    def edit(sk: ScheduledKernel, delta: ScheduleRecipe) -> None:
        existing = table.get(sk.name, sk.recipe if whole else None)
        table[sk.name] = existing + delta if existing else delta

    return edit


def _next_factor(current: int, extents: List[int]) -> Optional[int]:
    """Largest factor below ``current`` dividing every group extent."""
    for v in range(current - 1, 0, -1):
        if divides_all(v, extents):
            return v
    return None


def _step(d: Diagnostic, iteration: int, action: str) -> FixStep:
    return FixStep(iteration=iteration, rule=d.rule, kernel=d.kernel,
                   location=d.location, action=action, fix=dict(d.fix))


def _unfixable(d: Diagnostic, sk: Optional[ScheduledKernel], plan: _Plan) -> bool:
    """Block a finding no schedule rewrite can address (True if blocked)."""
    if d.fix is None:
        reason = "finding carries no machine-readable fix"
    elif sk is None:
        reason = "finding is not attached to a scheduled kernel"
    elif sk.prebuilt is not None:
        reason = "kernel is prebuilt IR — no schedule to rewrite"
    else:
        return False
    plan.block(d, reason)
    return True


def _stage_for_finding(sk: ScheduledKernel, d: Diagnostic) -> int:
    """Schedule stage a finding points at (multi-stage kernels).

    RP001/RP002 locate a loop variable, RP003/RP004 a buffer; the stage
    whose axes or inputs carry that name is the one to rewrite.
    """
    for i, st in enumerate(sk.schedule.stages):
        if any(ax.name == d.location for ax in st.leaf_axes):
            return i
        if any(t.name == d.location for t in st.op.inputs):
            return i
    return 0


#: why a build without a ``FoldedConfig`` (pipelined) blocks a config move
_NO_CONFIG = {
    "pin_unit_stride": "pipelined kernels have static strides; nothing to pin",
    "shrink": "pipelined schedules expose no shrink knob",
}


def _plan_fix(
    d: Diagnostic,
    sk: Optional[ScheduledKernel],
    edit: _Edit,
    iteration: int,
    plan: _Plan,
    config: Optional[FoldedConfig] = None,
    fused: Optional[FusedGraph] = None,
    extents: Optional[Dict[GroupId, Dict[str, List[int]]]] = None,
    allow_shrink: bool = True,
) -> None:
    """Map one finding to a move; record it (or why it is blocked).

    ``cache_write``/``cache_read`` fixes go through ``edit`` as a recipe
    delta on the stage of ``sk`` the finding points at (a multi-stage
    kernel's delta selects it with ``stage(index)``); pin and shrink
    change ``config`` (a pipelined build has none, so it blocks them).
    """
    if _unfixable(d, sk, plan):
        return
    transform = d.fix.get("transform")
    idx = _stage_for_finding(sk, d)
    stage = sk.schedule.stages[idx]
    head = ScheduleRecipe()
    if len(sk.schedule.stages) > 1:
        head = head.stage(idx)

    def recipe_fix(move: str, delta: ScheduleRecipe) -> None:
        where = f"stage({idx})." if head else ""
        plan.add(
            _step(d, iteration, f"{where}{move} appended to the kernel's "
                                f"recipe"),
            ("recipe", sk.name, idx),
            lambda: edit(sk, delta),
        )

    if transform == "cache_write":
        scope = d.fix.get("args", {}).get("scope", "register")
        if stage.scratch_scope != "global":
            plan.block(
                d, f"accumulator is already cached in "
                   f"'{stage.scratch_scope}' scope"
            )
        else:
            recipe_fix(f"cache_write('{scope}')", head.cache_write(scope))
    elif transform == "cache_read":
        name = d.fix.get("input")
        if name in stage.cached_reads:
            plan.block(
                d, f"'{name}' is already staged through a cached read; its "
                   f"working set is the whole buffer and no schedule "
                   f"transform shrinks it"
            )
        elif name not in [t.name for t in stage.op.inputs]:
            plan.block(d, f"'{name}' is not an input of this kernel")
        else:
            recipe_fix(f"cache_read('{name}')", head.cache_read(tensor=name))
    elif config is None and transform in _NO_CONFIG:
        plan.block(d, _NO_CONFIG[transform])
    elif transform == "pin_unit_stride":
        if config.pin_unit_stride:
            plan.block(d, "innermost strides are already pinned "
                          "(pin_unit_stride=True)")
            return
        plan.add(
            _step(d, iteration, "pin_unit_stride=True (Listing 5.11 "
                                "workaround)"),
            ("pin",),
            lambda: setattr(config, "pin_unit_stride", True),
        )
    elif transform == "shrink":
        if allow_shrink:  # the single-pass planner leaves tilings alone
            _plan_shrink(d, sk, config, fused, extents, iteration, plan)
    else:
        plan.block(d, f"unknown fix transform {transform!r}")


def _plan_shrink(
    d: Diagnostic,
    sk: ScheduledKernel,
    config: FoldedConfig,
    fused: FusedGraph,
    extents: Dict[GroupId, Dict[str, List[int]]],
    iteration: int,
    plan: _Plan,
) -> None:
    fn = next((f for f in fused if f.name == sk.layer), None)
    if fn is None:
        plan.block(d, f"layer {sk.layer!r} not found in the fused graph")
        return
    if fn.op == "dense":
        if config.dense_unroll <= 1:
            plan.block(d, "dense reduction unroll is already 1")
            return
        new = config.dense_unroll // 2
        plan.add(
            _step(d, iteration, f"dense_unroll {config.dense_unroll} -> {new}"),
            ("dense_unroll",),
            lambda: setattr(config, "dense_unroll", new),
        )
        return
    gid = group_of(fn)
    if gid is None:
        plan.block(d, f"{fn.op} kernel exposes no shrink knob")
        return
    tiling = config.tiling_for(*gid)
    ext = extents.get(gid, {"w2": [], "c2": [], "c1": []})
    dims = {"w2vec": (tiling.w2vec, ext["w2"]),
            "c2vec": (tiling.c2vec, ext["c2"]),
            "c1vec": (tiling.c1vec, ext["c1"])}
    want = d.fix.get("dim", "widest")
    if want == "widest":
        dim = max(dims, key=lambda k: dims[k][0])
    else:
        dim = want
    current, dim_ext = dims[dim]
    if current <= 1:
        if want == "widest":
            plan.block(d, "no tiling dimension left to shrink "
                          "(all factors are 1)")
        else:
            plan.block(d, f"{dim} is already 1")
        return
    new = _next_factor(current, dim_ext) or 1

    def apply() -> None:
        config.conv_tilings[gid] = replace(config.tiling_for(*gid), **{dim: new})

    plan.add(
        _step(d, iteration, f"{'/'.join(str(p) for p in gid)} {dim} "
                            f"{current} -> {new}"),
        ("tiling", gid, dim),
        apply,
    )


# ---------------------------------------------------------------------------
# the fixpoint driver both modes share


def _fixpoint(
    result: AutofixResult,
    max_iterations: int,
    verify: Callable[[], Tuple[VerifyReport, object, str]],
    plan_fix: _PlanFix,
    state: object,
    rebuild: Callable[[Dict[str, ScheduleRecipe]], str],
) -> None:
    """Iterate verify -> plan -> apply to a fixpoint, a stuck state or
    the iteration bound, recording the outcome on ``result``.

    ``verify`` re-verifies the current configuration and returns the
    report, the build's schedule and its source; ``plan_fix`` maps one
    advice finding onto the iteration's plan; ``state`` is the lattice
    position the fixes mutate (the folded config or the recipe table),
    fingerprinted for cycle detection.  The last build's recipes are
    recorded on ``result``, and their JSON form replayed as recipe
    overrides through ``rebuild``, which must generate a bit-identical
    source (``roundtrip_ok``).
    """
    seen = {fingerprint(state)}
    sched = None
    for it in range(1, max_iterations + 1):
        result.iterations = it
        report, sched, source = verify()
        if report.errors:
            result.status, result.stuck_reason = "stuck", "verify-error"
            result.log.append(
                f"iteration {it}: {len(report.errors)} error finding(s) — "
                f"aborting"
            )
            break
        advice = report.advice
        if not advice:
            result.status = "clean"
            result.log.append(f"iteration {it}: advice-clean")
            break
        kernels = {sk.name: sk for sk in sched.kernels}
        plan = _plan_all(advice, kernels, plan_fix, it)
        if not plan.steps:
            result.status, result.stuck_reason = "stuck", "blocked"
            result.blocked = plan.blocked
            result.remaining = list(advice)
            result.log.append(
                f"iteration {it}: {len(advice)} finding(s), none applicable "
                f"— provably stuck"
            )
            break
        for step, thunk in plan.steps:
            thunk()
            result.applied.append(step)
        result.log.append(
            f"iteration {it}: {len(advice)} finding(s), "
            f"{len(plan.steps)} fix(es) applied"
        )
        position = fingerprint(state)
        if position in seen:
            result.status, result.stuck_reason = "stuck", "cycle"
            result.remaining = list(advice)
            result.log.append(
                f"iteration {it}: configuration repeated — cycle detected"
            )
            break
        seen.add(position)
    else:
        result.status, result.stuck_reason = "stuck", "iteration-limit"
        result.log.append(f"no fixpoint within {max_iterations} iterations")
    if sched is None:
        return
    recipes = [sk for sk in sched.kernels if sk.recipe is not None]
    result.recipes = {sk.name: sk.recipe.fingerprint() for sk in recipes}
    result.recipes_json = {sk.name: sk.recipe.to_json() for sk in recipes}
    if result.stuck_reason != "verify-error":
        result.roundtrip_ok = rebuild({
            k: ScheduleRecipe.from_json(v)
            for k, v in result.recipes_json.items()
        }) == source


# ---------------------------------------------------------------------------
# the folded fixpoint loop


def _verify_folded(
    fused: FusedGraph,
    board: Board,
    config: FoldedConfig,
    constants: AOCConstants,
    subject: str,
):
    """Schedule/lower/codegen/verify one folded configuration (no
    synthesis): ``(schedule, plan, source, report)``."""
    sched = schedule_folded(fused, config, board)
    program = lower_folded(sched)
    source = generate_opencl(program)
    plan = plan_folded(fused, sched)
    report = verify_build(
        program, source=source, plan=plan, subject=subject,
        board=board, constants=constants,
    )
    return sched, plan, source, report


def autofix_folded(
    fused: FusedGraph,
    board: Board,
    config: Optional[FoldedConfig] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_iterations: int = MAX_ITERATIONS,
    subject: str = "",
) -> AutofixResult:
    """Iterate advise -> rewrite -> re-verify on a folded build.

    Every iteration runs the schedule/lower/codegen/verify front of the
    pipeline (no synthesis), maps each advice finding to its lattice
    move, applies at most one move per knob, and stops at an
    advice-clean fixpoint, a provably-stuck state (every remaining
    finding blocked), or a safety bound.  The final recipes are
    serialized and replayed through ``recipe_overrides`` to prove the
    build is reproducible from their JSON form.
    """
    from repro.flow.deploy import default_folded_config

    if config is None:
        config = default_folded_config(fused.graph.name, board)
    config = config.copy()
    result = AutofixResult(
        subject=subject or f"{fused.graph.name}:{board.name}", mode="folded",
        config=config,
    )
    extents = group_extents(fused)
    edit = _append_to(config.recipe_deltas)

    def verify():
        sched, plan, source, report = _verify_folded(
            fused, board, config, constants, result.subject
        )
        # translation validation: every rewritten recipe must certify
        # equivalent to the naive lowering (repro.verify.equiv) before
        # its configuration is accepted.  Certified kernels cost zero
        # interpreter runs; an RE006-unknown kernel gets exactly one
        # dynamic cross-check, and a rejection aborts like any other
        # error-severity finding.
        equiv_report, _ = certify_build(
            sched, plan=plan, subject=result.subject, dynamic_fallback=True,
        )
        report.merge(equiv_report)
        result.count_certificates(report.counters)
        return report, sched, source

    def rebuild(overrides: Dict[str, ScheduleRecipe]) -> str:
        replay = config.copy()
        replay.recipe_deltas, replay.recipe_overrides = {}, overrides
        return generate_opencl(
            lower_folded(schedule_folded(fused, replay, board))
        )

    _fixpoint(
        result, max_iterations, verify,
        lambda d, sk, it, plan: _plan_fix(
            d, sk, edit, it, plan, config, fused, extents
        ),
        config, rebuild,
    )
    return result


def plan_recipe_fixes(
    fused: FusedGraph,
    board: Board,
    config: FoldedConfig,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> Tuple[FoldedConfig, bool]:
    """Single-pass recipe-level fixes (the DSE/autotune hook).

    Runs one verify pass and applies only the fixes that do not change
    the tiling identity of the point — recipe deltas and stride pinning,
    never shrinks — so a swept (tiling, recipe) candidate keeps its
    coordinates.  Returns the possibly-rewritten config and whether any
    fix applied.
    """
    config = config.copy()
    sched, _, _, report = _verify_folded(
        fused, board, config, constants, fused.graph.name
    )
    edit = _append_to(config.recipe_deltas)
    plan = _plan_all(
        report.advice, {sk.name: sk for sk in sched.kernels},
        lambda d, sk, it, plan: _plan_fix(
            d, sk, edit, it, plan, config, fused, {}, allow_shrink=False
        ),
        1,
    )
    for _, thunk in plan.steps:
        thunk()
    return config, bool(plan.steps)


# ---------------------------------------------------------------------------
# the pipelined fixpoint loop (LeNet-class)


def autofix_pipelined(
    fused: FusedGraph,
    board: Board,
    level: str = LEVELS[-1],
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_iterations: int = MAX_ITERATIONS,
    subject: str = "",
) -> AutofixResult:
    """Advise -> rewrite loop over a pipelined (chain) build.

    A fix appends to the kernel's recipe, which the next build takes as
    a ``recipe_overrides`` entry of :func:`schedule_pipelined` — the
    same edit the folded loop makes through ``FoldedConfig``; a
    multi-stage kernel like the channel-fed softmax gets one
    ``stage(index)`` delta per stage.  There is no configuration to pin
    or shrink: those findings are blocking by construction and the loop
    converges to clean or provably stuck.
    """
    overrides: Dict[str, ScheduleRecipe] = {}
    result = AutofixResult(
        subject=subject or f"{fused.graph.name}:{board.name}:{level}",
        mode="pipelined",
    )
    edit = _append_to(overrides, whole=True)

    def build(recipes: Dict[str, ScheduleRecipe]):
        sched = schedule_pipelined(fused, level, board, 1.0, recipes)
        program = lower_pipelined(sched)
        return sched, program, generate_opencl(program)

    def verify():
        sched, program, source = build(overrides)
        report = verify_build(
            program, source=source,
            plan=plan_pipelined(fused, sched), subject=result.subject,
            board=board, constants=constants,
        )
        return report, sched, source

    _fixpoint(
        result, max_iterations, verify,
        lambda d, sk, it, plan: _plan_fix(d, sk, edit, it, plan),
        overrides, lambda recipes: build(recipes)[2],
    )
    return result


# ---------------------------------------------------------------------------
# network-level entry point


def autofix_network(
    network: str,
    board: Board,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_iterations: int = MAX_ITERATIONS,
) -> AutofixResult:
    """Auto-schedule one shipped network build (mode chosen like deploy).

    LeNet-5 runs the pipelined loop at the top optimization level;
    everything else runs the folded loop from the thesis tiling tables.
    """
    from repro.flow.stages import MODELS
    from repro.relay import fuse_operators

    if network not in MODELS:
        raise ReproError(f"unknown network {network!r}")
    fused = fuse_operators(MODELS[network]())
    if network == "lenet5":
        return autofix_pipelined(
            fused, board, constants=constants, max_iterations=max_iterations,
        )
    return autofix_folded(
        fused, board, constants=constants, max_iterations=max_iterations,
    )


# -- pipeline integration ---------------------------------------------------

from repro.pipeline import register_describer  # noqa: E402

register_describer(
    AutofixResult,
    lambda r: (
        len(r.applied),
        {"status": r.status, "iterations": r.iterations,
         "applied": len(r.applied), "blocked": len(r.blocked)},
    ),
)
