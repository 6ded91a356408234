"""The stage/pass manager: named stages over typed, fingerprinted artifacts.

A :class:`Pipeline` is an ordered list of :class:`Stage` objects, each
consuming artifacts already in the :class:`Context` and producing exactly
one new artifact.  Running a pipeline yields a :class:`PipelineResult`
holding every artifact plus a :class:`~repro.pipeline.trace.Trace` with
per-stage wall-times, sizes and counters.

Every artifact carries a fingerprint.  A deterministic stage's is
*derived*: the stage name, the fingerprint of the stage's ``config``
(the values its function closes over) and the fingerprints of every
artifact already in the context, in order — which over-approximates
what the stage reads, so no per-stage input list can fall out of date.
Seeded artifacts, and the output of a stage built with
``config=BY_CONTENT`` (the imported graph, the generated source), carry
content fingerprints instead.

Stages constructed with a ``cache_key`` function are backed by a
:class:`~repro.pipeline.cache.CompileCache`: on a hit the stage body is
skipped entirely and the cached artifact (or a replayed deterministic
failure) is returned.

Failures raise the original :class:`~repro.errors.ReproError` subclass —
``FitError`` stays catchable as ``FitError`` — augmented with a
``.stage`` name and a ``.diagnostic`` :class:`StageDiagnostic` carrying
the artifact fingerprint and the partial trace, so a failure deep in a
DSE sweep is attributable to a concrete stage and input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.aoc.compiler import Bitstream
from repro.errors import PipelineError, ReproError
from repro.ir.buffer import Channel
from repro.ir.kernel import Program
from repro.pipeline.cache import CachedFailure, CompileCache
from repro.pipeline.fingerprint import (
    content_fingerprint,
    derived_fingerprint,
    fingerprint,
    register_canonicalizer,
)
from repro.pipeline.trace import StageRecord, Trace
from repro.resilience.events import log as _resilience_log
from repro.relay.graph import Graph
from repro.relay.passes import FusedGraph
from repro.runtime.plan import FoldedPlan, PipelinePlan
from repro.verify.diagnostics import VerifyReport


@dataclass
class Artifact:
    """One named, fingerprinted stage product."""

    name: str
    value: object
    fingerprint: str
    size: int = 0
    counters: Dict[str, float] = field(default_factory=dict)


#: ``config`` of a stage whose artifact is fingerprinted by its content
BY_CONTENT = object()


class Stage:
    """One named pipeline stage producing one artifact.

    ``config`` is every value ``fn`` closes over that can change what
    it returns (a board, a tiling configuration, cost-model constants),
    or ``()`` when there is none; it is fingerprinted once, here.  Pass
    :data:`BY_CONTENT` to fingerprint the stage's artifact by content.
    """

    def __init__(
        self,
        name: str,
        output: str,
        fn: Callable[["Context"], object],
        config: object,
        cache_key: Optional[Callable[["Context"], str]] = None,
    ) -> None:
        self.name = name
        self.output = output
        self.fn = fn
        self.cache_key = cache_key
        #: None for a stage whose artifact is fingerprinted by content
        self.config_fingerprint: Optional[str] = (
            None if config is BY_CONTENT else fingerprint(config)
        )

    def artifact_fingerprint(self, ctx: "Context", value: object) -> str:
        """Fingerprint of ``value``, this stage's output in ``ctx``."""
        if self.config_fingerprint is None:
            return content_fingerprint(value)
        return derived_fingerprint(
            self.name, self.config_fingerprint,
            [a.fingerprint for a in ctx.artifacts.values()],
        )


class Context:
    """Artifacts accumulated across one pipeline run."""

    def __init__(self, pipeline: str) -> None:
        self.pipeline = pipeline
        self.artifacts: Dict[str, Artifact] = {}

    def put(self, artifact: Artifact) -> None:
        self.artifacts[artifact.name] = artifact

    def artifact(self, name: str) -> Artifact:
        try:
            return self.artifacts[name]
        except KeyError:
            raise PipelineError(
                f"pipeline {self.pipeline}: no artifact {name!r} "
                f"(have {sorted(self.artifacts)})"
            ) from None

    def value(self, name: str) -> object:
        return self.artifact(name).value

    def __contains__(self, name: str) -> bool:
        return name in self.artifacts


@dataclass
class StageDiagnostic:
    """Where and on what a stage failed."""

    pipeline: str
    stage: str
    #: fingerprint of the last successfully produced artifact
    fingerprint: str
    #: partial trace up to and including the failing stage
    trace: Trace

    def __str__(self) -> str:
        return (
            f"stage {self.stage!r} of pipeline {self.pipeline!r} "
            f"(input fingerprint {self.fingerprint[:12] or 'n/a'})"
        )


@dataclass
class PipelineResult:
    """All artifacts plus the execution trace of one run."""

    context: Context
    trace: Trace

    def value(self, name: str) -> object:
        return self.context.value(name)

    def artifact(self, name: str) -> Artifact:
        return self.context.artifact(name)


class Pipeline:
    """An ordered sequence of stages with tracing and optional caching."""

    def __init__(
        self,
        name: str,
        stages: Sequence[Stage],
        cache: Optional[CompileCache] = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise PipelineError(f"pipeline {name}: duplicate stage names")
        self.name = name
        self.stages = list(stages)
        self.cache = cache

    # ------------------------------------------------------------------
    def run(self, seed: Optional[Dict[str, object]] = None) -> PipelineResult:
        """Execute all stages.  ``seed`` pre-supplies artifacts by name;
        stages whose output is seeded are skipped (recorded as such)."""
        ctx = Context(self.name)
        records: List[StageRecord] = []
        t0 = time.perf_counter()
        for name, value in (seed or {}).items():
            ctx.put(_make_artifact(name, value, content_fingerprint(value)))

        last_fp = ""
        for stage in self.stages:
            t_start = time.perf_counter() - t0
            if stage.output in ctx:
                art = ctx.artifact(stage.output)
                records.append(
                    StageRecord(
                        stage=stage.name, status="seeded", t_start=t_start,
                        t_end=t_start, artifact=art.name,
                        fingerprint=art.fingerprint, size=art.size,
                        counters=art.counters, notes=annotate_artifact(art.value),
                    )
                )
                last_fp = art.fingerprint
                continue

            cache_status: Optional[str] = None
            events_cursor = _resilience_log().cursor()
            try:
                value, cache_status = self._execute(stage, ctx)
            except ReproError as err:
                t_end = time.perf_counter() - t0
                records.append(
                    StageRecord(
                        stage=stage.name, status="error", t_start=t_start,
                        t_end=t_end, artifact=stage.output, cache=cache_status,
                        error=f"{type(err).__name__}: {err}",
                        events=_stage_events(events_cursor),
                    )
                )
                diag = StageDiagnostic(
                    pipeline=self.name, stage=stage.name, fingerprint=last_fp,
                    trace=Trace(self.name, records),
                )
                err.stage = stage.name
                err.diagnostic = diag
                raise
            t_end = time.perf_counter() - t0
            art = _make_artifact(
                stage.output, value, stage.artifact_fingerprint(ctx, value)
            )
            ctx.put(art)
            last_fp = art.fingerprint
            records.append(
                StageRecord(
                    stage=stage.name,
                    status="cached" if cache_status == "hit" else "ok",
                    t_start=t_start, t_end=t_end, artifact=art.name,
                    fingerprint=art.fingerprint, size=art.size,
                    counters=art.counters, cache=cache_status,
                    events=_stage_events(events_cursor),
                    notes=annotate_artifact(value),
                )
            )
        return PipelineResult(ctx, Trace(self.name, records))

    # ------------------------------------------------------------------
    def _execute(self, stage: Stage, ctx: Context) -> Tuple[object, Optional[str]]:
        if stage.cache_key is None or self.cache is None:
            return stage.fn(ctx), None
        key = stage.cache_key(ctx)
        found, value = self.cache.lookup(key)
        if found:
            if isinstance(value, CachedFailure):
                raise _replay_failure(value)
            return value, "hit"
        try:
            value = stage.fn(ctx)
        except ReproError as err:
            if _is_deterministic(err):
                self.cache.store(
                    key,
                    CachedFailure(
                        type(err).__name__, str(err),
                        seeds_tried=tuple(getattr(err, "seeds_tried", ())),
                    ),
                )
            raise
        self.cache.store(key, value)
        return value, "miss"


def _stage_events(cursor: int) -> List[Dict[str, object]]:
    """Resilience events recorded since ``cursor``, as plain dicts."""
    return [e.to_dict() for e in _resilience_log().since(cursor)]


def _is_deterministic(err: ReproError) -> bool:
    """Only model-level synthesis outcomes are safe to replay.

    Transient failures clear on retry and injected failures exist only
    under the active fault plan — caching either would poison later
    fault-free runs.
    """
    return (
        isinstance(err, _errors.AOCError)
        and not getattr(err, "transient", False)
        and not getattr(err, "injected", False)
    )


def _replay_failure(failure: CachedFailure) -> ReproError:
    cls = getattr(_errors, failure.kind, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    err = cls(failure.message)
    err.seeds_tried = tuple(getattr(failure, "seeds_tried", ()))
    return err


# ---------------------------------------------------------------------------
# artifact description: per-type sizes and counters for the trace

_DESCRIBERS: List[Tuple[type, Callable[[object], Tuple[int, Dict[str, float]]]]] = []


def register_describer(
    cls: type, fn: Callable[[object], Tuple[int, Dict[str, float]]]
) -> None:
    """Register a ``value -> (size, counters)`` describer for a type."""
    _DESCRIBERS.append((cls, fn))


def describe_artifact(value: object) -> Tuple[int, Dict[str, float]]:
    for cls, fn in reversed(_DESCRIBERS):
        if isinstance(value, cls):
            return fn(value)
    try:
        return len(value), {}  # type: ignore[arg-type]
    except TypeError:
        return 0, {}


# annotators contribute human-readable trace notes per artifact type —
# e.g. the verify report's performance-advisor findings, so
# ``repro.report --trace`` surfaces them on the verify stage line

_ANNOTATORS: List[Tuple[type, Callable[[object], List[str]]]] = []


def register_annotator(cls: type, fn: Callable[[object], List[str]]) -> None:
    """Register a ``value -> [note, ...]`` annotator for an artifact type."""
    _ANNOTATORS.append((cls, fn))


def annotate_artifact(value: object) -> List[str]:
    for cls, fn in reversed(_ANNOTATORS):
        if isinstance(value, cls):
            return fn(value)
    return []


def _make_artifact(name: str, value: object, fp: str) -> Artifact:
    size, counters = describe_artifact(value)
    return Artifact(
        name=name, value=value, fingerprint=fp, size=size, counters=counters,
    )


# -- built-in describers ----------------------------------------------------

def _describe_graph(g: Graph) -> Tuple[int, Dict[str, float]]:
    return len(g.nodes), {
        "nodes": len(g.nodes),
        "params": g.total_params(),
        "flops": g.total_flops(),
    }


def _describe_fused(fg: FusedGraph) -> Tuple[int, Dict[str, float]]:
    return len(fg), {"kernels": len(fg), "flops": fg.total_flops()}


def _describe_program(p: Program) -> Tuple[int, Dict[str, float]]:
    counters = {
        "kernels": len(p.kernels),
        "channels": len(p.all_channels()),
        "autorun": sum(1 for k in p.kernels if k.autorun),
        "parameterized": sum(1 for k in p.kernels if k.is_parameterized),
    }
    # per-kernel lower-cache deltas attached by the incremental lowerers
    # (repro.flow.incremental) — surfaced as lower_* trace counters
    for key, value in getattr(p, "lower_cache", {}).items():
        counters[f"lower_{key}"] = value
    return len(p.kernels), counters


def _describe_source(src: str) -> Tuple[int, Dict[str, float]]:
    return len(src), {
        "bytes": len(src),
        "lines": src.count("\n"),
        "kernels": src.count("kernel void"),
    }


def _describe_bitstream(bs: Bitstream) -> Tuple[int, Dict[str, float]]:
    u = bs.utilization()
    max_ii = 0
    loops = 0
    for hwk in bs.hw.values():
        loops += len(hwk.analysis.loops)
        for node in hwk.analysis.loops.values():
            max_ii = max(max_ii, node.ii)
    return len(bs.hw), {
        "kernels": len(bs.hw),
        "dsps": bs.total.dsps,
        "rams": bs.total.rams,
        "fmax_mhz": round(bs.fmax_mhz),
        "logic_pct": round(100 * u["logic"]),
        "ram_pct": round(100 * u["ram"]),
        "dsp_pct": round(100 * u["dsp"]),
        "loops": loops,
        "max_ii": max_ii,
    }


def _describe_verify_report(r: VerifyReport) -> Tuple[int, Dict[str, float]]:
    c = r.summary_counters()
    counters = {
        "errors": c["error"],
        "warnings": c["warn"],
        "advice": c["advice"],
        "info": c["info"],
        "accesses_proven": c.get("accesses_proven", 0),
        "channels_matched": c.get("channels_matched", 0),
    }
    # equivalence-certifier accounting (repro.verify.equiv): pre-bumped
    # to zero by certify_build, so presence means the certifier ran
    counters.update(
        {k: v for k, v in c.items() if k.startswith("equiv_")}
    )
    # memory-certifier footprint accounting (repro.verify.memory)
    counters.update(
        {k: v for k, v in c.items() if k.startswith("memory_")}
    )
    return len(r.diagnostics), counters


def _describe_pipeline_plan(p: PipelinePlan) -> Tuple[int, Dict[str, float]]:
    return len(p.stages), {
        "stages": len(p.stages),
        "autorun": sum(1 for s in p.stages if s.autorun),
        "channel_stages": sum(1 for s in p.stages if s.channel_out),
    }


def _describe_folded_plan(p: FoldedPlan) -> Tuple[int, Dict[str, float]]:
    return len(p.invocations), {
        "invocations": len(p.invocations),
        "kernels": len({i.kernel_name for i in p.invocations}),
    }


register_describer(Graph, _describe_graph)
register_describer(FusedGraph, _describe_fused)
register_describer(Program, _describe_program)
register_describer(str, _describe_source)
register_describer(Bitstream, _describe_bitstream)
register_describer(VerifyReport, _describe_verify_report)
register_annotator(VerifyReport, lambda r: [d.format() for d in r.advice])
register_describer(PipelinePlan, _describe_pipeline_plan)
register_describer(FoldedPlan, _describe_folded_plan)


# -- built-in canonicalizers (the synthesize key reads channels) ------------

register_canonicalizer(Channel, lambda c: ["channel", c.name, c.depth])
