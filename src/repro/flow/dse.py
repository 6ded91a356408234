"""Tiling-factor design-space exploration (thesis §4.11 + future work §8.1).

The thesis selects unroll/tiling factors manually under three
requirements and leaves an automatic explorer to future work; this module
implements that explorer against the reproduction's AOC model:

1. the widened access width must not exceed what external memory can
   feed at the design clock (the bandwidth roof);
2. factors must evenly divide every layer extent they tile;
3. the synthesized design must fit (and route on) the board.

``explore_conv1x1`` sweeps (w2vec, c2vec, c1vec) space for the MobileNet
pointwise kernel the way Table 6.6 does, and ``choose_tiling`` returns
the best configuration by modelled throughput.

Candidate synthesis runs through the staged compile pipeline, so points
sharing generated source (and re-runs of the same sweep) hit the
content-addressed compile cache; :class:`SweepSummary` reports the
hit/miss counts.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.device.boards import Board
from repro.errors import AOCError, FitError, RoutingError
from repro.flow.folded import FoldedConfig
from repro.flow.stages import CacheOption, folded_flow, resolve_cache
from repro.pipeline.cache import CompileCache, DiskBackend, MemoryBackend, MISS
from repro.relay.passes import FusedGraph
from repro.runtime.simulate import simulate_folded
from repro.schedule import ScheduleRecipe
from repro.topi import ConvTiling, symbolic_conv_recipe


@dataclass
class DSEPoint:
    """One evaluated (or statically pruned) tiling configuration.

    A point is (tiling, recipe): ``recipe`` is the transform recipe the
    tiling expands to for the swept group's kernel, whose fingerprint
    keys the compile cache.  ``fixed`` marks points the static autofix
    pass rewrote (recipe deltas / stride pinning) before synthesis.
    """

    tiling: ConvTiling
    fits: bool
    routed: bool
    fps: Optional[float] = None
    fmax_mhz: Optional[float] = None
    dsps: Optional[int] = None
    fail_reason: Optional[str] = None
    #: skipped before synthesis by a dominance/infeasibility proof
    pruned: bool = False
    recipe: Optional[ScheduleRecipe] = None
    #: rewritten by the static autofix pass before synthesis
    fixed: bool = False
    #: equivalence-certifier accounting from the build's verify stage
    #: (repro.verify.equiv): kernels statically certified, kernels the
    #: prover could not decide (RE006), kernels outside the fragment,
    #: and interpreter cross-checks actually run — 0 for a certified
    #: point, which is the whole point
    certified: int = 0
    cert_unknown: int = 0
    cert_uncertified: int = 0
    cert_dynamic_runs: int = 0

    @property
    def feasible(self) -> bool:
        return self.fits and self.routed


@dataclass
class SweepSummary:
    """All evaluated points of one sweep plus compile-cache accounting."""

    points: List[DSEPoint] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def best(self) -> DSEPoint:
        return choose_tiling(self.points)

    @property
    def failed_points(self) -> int:
        """Points the compiler rejected (fit, route, or any other AOC
        failure) plus statically pruned ones — not feasible either way."""
        return sum(1 for p in self.points if p.fail_reason is not None)

    @property
    def pruned_static(self) -> int:
        """Points skipped before synthesis by the dominance pruner."""
        return sum(1 for p in self.points if p.pruned)

    @property
    def synthesized(self) -> int:
        """Points that actually went through the compile pipeline."""
        return sum(1 for p in self.points if not p.pruned)

    @property
    def fixed_static(self) -> int:
        """Points the static autofix pass rewrote before synthesis —
        accounted distinctly from pruned ones (they did synthesize)."""
        return sum(1 for p in self.points if p.fixed)

    @property
    def certified_kernels(self) -> int:
        """Kernels across all points the equivalence certifier proved
        bit-exact statically — accepted without any interpreter run."""
        return sum(p.certified for p in self.points)

    @property
    def uncertified_kernels(self) -> int:
        """Kernels outside the certifier's fragment (prebuilt, no
        recipe) plus statically undecidable ones (RE006)."""
        return sum(p.cert_unknown + p.cert_uncertified for p in self.points)

    @property
    def cert_fallbacks(self) -> int:
        """Dynamic (interpreter) equivalence checks the sweep ran —
        zero when every recipe-backed kernel certified statically."""
        return sum(p.cert_dynamic_runs for p in self.points)

    def fail_reasons(self) -> Dict[str, int]:
        """Histogram of failure classes, keys sorted.

        The class is the leading ``SomeError``/``pruned`` tag of each
        ``fail_reason``; sorted keys make sweep logs diff cleanly
        between runs.
        """
        hist: Dict[str, int] = {}
        for p in self.points:
            if p.fail_reason is None:
                continue
            key = p.fail_reason.split(":", 1)[0]
            hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items()))

    def to_dict(self) -> Dict[str, object]:
        """Deterministic (sorted-key) summary for logs and tooling."""
        return {
            "points": len(self.points),
            "feasible": sum(1 for p in self.points if p.feasible),
            "failed": self.failed_points,
            "pruned_static": self.pruned_static,
            "fixed_static": self.fixed_static,
            "synthesized": self.synthesized,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "certified_kernels": self.certified_kernels,
            "uncertified_kernels": self.uncertified_kernels,
            "cert_fallbacks": self.cert_fallbacks,
            "fail_reasons": self.fail_reasons(),
        }

    def format(self) -> str:
        d = self.to_dict()
        reasons = " ".join(f"{k}={v}" for k, v in d["fail_reasons"].items())
        return (
            f"sweep: {d['points']} points, {d['feasible']} feasible, "
            f"{d['synthesized']} synthesized, "
            f"{d['pruned_static']} pruned statically, "
            f"{d['fixed_static']} autofixed, "
            f"{d['certified_kernels']} kernel(s) certified "
            f"({d['cert_fallbacks']} dynamic fallback(s)), "
            f"cache {d['cache_hits']}h/{d['cache_misses']}m"
            + (f" [{reasons}]" if reasons else "")
        )


def bandwidth_roof_elems(board: Board, fmax_mhz: float) -> int:
    """Max unroll width sustainable by external memory (requirement 1).

    E.g. the Arria 10's 34.1 GB/s at 250 MHz supports ~136 bytes/cycle,
    about 32 floats (the thesis's worked example).
    """
    bytes_per_cycle = board.peak_bw_gbs * 1e3 / fmax_mhz
    return max(1, int(bytes_per_cycle // 4))


def divides_all(factor: int, extents: Iterable[int]) -> bool:
    """Requirement 2: the factor must divide every tiled extent."""
    return all(e % factor == 0 for e in extents)


def evaluate_tiling(
    fused: FusedGraph,
    board: Board,
    group: Tuple[str, int, int],
    tiling: ConvTiling,
    base_config: Optional[FoldedConfig] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
) -> DSEPoint:
    """Compile + simulate the network with one tiling for one conv group.

    The build runs through the staged pipeline seeded with the
    already-fused graph, so repeated evaluations of source-identical
    candidates replay the ``synthesize`` stage from the compile cache —
    including deterministic fit/route failures.
    """
    from repro.flow.deploy import default_folded_config

    config = base_config or default_folded_config(fused.graph.name, board)
    config = FoldedConfig(
        conv_tilings=dict(config.conv_tilings),
        dense_unroll=config.dense_unroll,
        pin_unit_stride=config.pin_unit_stride,
        recipe_deltas=dict(config.recipe_deltas),
        recipe_overrides=dict(config.recipe_overrides),
    )
    config.conv_tilings[group] = tiling
    recipe = symbolic_conv_recipe(
        tiling, is_1x1=(group[1] == 1), depthwise=(group[0] == "dw")
    )
    flow = folded_flow(fused.graph.name, board, config, constants, cache=cache)
    try:
        result = flow.run(seed={"graph": fused.graph, "fused": fused})
    except FitError as e:
        return _failed_point(
            DSEPoint(tiling, fits=False, routed=True,
                     fail_reason=f"FitError: {e}", recipe=recipe), e,
        )
    except RoutingError as e:
        return _failed_point(
            DSEPoint(tiling, fits=True, routed=False,
                     fail_reason=f"RoutingError: {e}", recipe=recipe), e,
        )
    except AOCError as e:
        # any other compiler failure (crash, internal error): the point
        # is recorded as infeasible instead of aborting the whole sweep
        return _failed_point(
            DSEPoint(tiling, fits=False, routed=False,
                     fail_reason=f"{type(e).__name__}: {e}", recipe=recipe),
            e,
        )
    bs = result.value("bitstream")
    sim = simulate_folded(bs, result.value("plan"))
    point = DSEPoint(
        tiling,
        fits=True,
        routed=True,
        fps=sim.fps,
        fmax_mhz=bs.fmax_mhz,
        dsps=bs.total.dsps,
        recipe=recipe,
    )
    _attach_certification(point, result.trace)
    return point


def _failed_point(point: DSEPoint, err: AOCError) -> DSEPoint:
    """Certification counters for a point that failed past the verify
    stage (the partial trace on the error's diagnostic still has them —
    a point is certified or not regardless of whether it fits)."""
    diag = getattr(err, "diagnostic", None)
    if diag is not None:
        _attach_certification(point, diag.trace)
    return point


def _attach_certification(point: DSEPoint, trace) -> None:
    """Copy the verify stage's equivalence-certifier counters onto a point.

    The verify stage of every candidate build runs the static
    certifier (:mod:`repro.verify.equiv`); its trace counters say how
    many kernels were accepted on a certificate versus how many needed
    an interpreter fallback — the sweep-level proof that certified
    candidates cost zero interpreter equivalence runs.
    """
    try:
        c = trace.stage("verify").counters
    except KeyError:  # pragma: no cover — verify always runs pre-synthesis
        return
    point.certified = int(c.get("equiv_certified", 0))
    point.cert_unknown = int(c.get("equiv_unknown", 0))
    point.cert_uncertified = int(c.get("equiv_uncertified", 0))
    point.cert_dynamic_runs = int(c.get("equiv_dynamic_runs", 0))


# ---------------------------------------------------------------------------
# process-pool candidate synthesis
#
# Candidate builds are independent, so a sweep can fan them out over a
# fork()ed worker pool.  Workers rendezvous through a *disk* compile
# cache: source-identical candidates synthesize once pool-wide, and a
# sweep sharing the caller's disk cache directory reuses prior runs.
# Result order is deterministic (tasks are indexed and reassembled), so
# a parallel sweep returns exactly the points a serial one does.

#: per-worker context installed by the pool initializer
_WORKER_CTX: Optional[Tuple] = None


def _init_sweep_worker(fused, board, constants, cache_dir) -> None:
    global _WORKER_CTX
    _WORKER_CTX = (fused, board, constants, cache_dir)


def _open_worker_cache(cache_dir: Optional[str]) -> Optional[CompileCache]:
    """A worker-local cache layered over the shared on-disk rendezvous."""
    if cache_dir is None:
        return None
    return CompileCache(
        backends=[MemoryBackend(32), DiskBackend(cache_dir)]
    )


def _sweep_task(task):
    """Evaluate one indexed candidate in a pool worker."""
    idx, group, tiling, base_config, autofix = task
    fused, board, constants, cache_dir = _WORKER_CTX
    cache = _open_worker_cache(cache_dir)
    eff_base, fixed = base_config, False
    if autofix:
        eff_base, fixed = _autofix_candidate(
            fused, board, group, tiling, base_config, constants
        )
    point = evaluate_tiling(
        fused, board, group, tiling, base_config=eff_base,
        constants=constants, cache=cache if cache is not None else False,
    )
    point.fixed = fixed
    stats = cache.stats() if cache is not None else {"hits": 0, "misses": 0}
    return idx, point, stats["hits"], stats["misses"]


def shared_cache_dir(
    resolved: Optional[CompileCache],
) -> Tuple[Optional[str], bool]:
    """Directory pool workers rendezvous in: ``(path, ephemeral)``.

    Reuses the caller's disk backend when it has one; otherwise creates
    a sweep-scoped temporary directory (still a rendezvous *within* the
    sweep) whose entries are merged back into the caller's cache — and
    the directory deleted — when the sweep finishes.
    """
    if resolved is not None:
        for backend in resolved.backends:
            if isinstance(backend, DiskBackend):
                return str(backend.directory), False
    return tempfile.mkdtemp(prefix="repro-sweep-cache-"), True


def merge_disk_entries(
    resolved: Optional[CompileCache], directory: str
) -> None:
    """Promote a temporary rendezvous directory into the caller's cache.

    Probes backends directly (not :meth:`CompileCache.lookup`) so the
    merge stays accounting-neutral for the caller's hit/miss stats.
    """
    if resolved is None:
        return
    disk = DiskBackend(directory)
    for path in sorted(disk.directory.glob("*.pkl")):
        key = path.stem
        value = disk.get(key)
        if value is MISS:
            continue
        for backend in resolved.backends:
            if backend.get(key) is not MISS:
                break
        else:
            resolved.store(key, value)


def _run_pool(worker, initargs, tasks, workers: int):
    """Fork a pool, run ``worker`` over ``tasks``, return ordered results."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_sweep_worker,
                  initargs=initargs) as pool:
        return pool.map(worker, tasks)


def sweep_conv1x1(
    fused: FusedGraph,
    board: Board,
    w2vec_options: Sequence[int] = (7,),
    c2vec_options: Sequence[int] = (4, 8, 16, 32),
    c1vec_options: Sequence[int] = (4, 8, 16),
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
    prune: bool = False,
    base_config: Optional[FoldedConfig] = None,
    autofix: bool = False,
    workers: int = 1,
) -> SweepSummary:
    """Sweep 1x1-conv tiling space (the Table 6.6 experiment, generalized).

    Candidate factors violating divisibility over the network's 1x1
    layers are skipped before synthesis, per requirement 2.  With
    ``prune`` the dominance prover of :mod:`repro.verify.dominance`
    additionally skips candidates that are statically infeasible or
    dominated by an earlier kept point — those appear in the summary as
    pruned points (``pruned_static``) with the proof in ``fail_reason``,
    and never touch the compile pipeline.  With ``autofix`` each
    surviving candidate first runs the static recipe-level fix pass of
    :mod:`repro.flow.autofix` (one verify pass, no synthesis); rewritten
    points are marked ``fixed`` and counted as ``fixed_static``.
    Returns the evaluated points plus the compile-cache hits/misses this
    sweep incurred.

    With ``workers > 1`` surviving candidates are synthesized across a
    fork()ed process pool rendezvousing through a shared disk compile
    cache (see the module section above); point order and values match
    the serial sweep, and the hit/miss counts aggregate the workers'.
    """
    from repro.flow.deploy import default_folded_config

    resolved = resolve_cache(cache)
    point_cache: CacheOption = resolved if resolved is not None else False
    before = resolved.stats() if resolved is not None else {"hits": 0, "misses": 0}

    w2_extents, c2_extents, c1_extents = _conv1x1_extents(fused)
    tilings = [
        ConvTiling(w2vec=w2, c2vec=c2, c1vec=c1)
        for w2 in w2vec_options if divides_all(w2, w2_extents)
        for c2 in c2vec_options if divides_all(c2, c2_extents)
        for c1 in c1vec_options if divides_all(c1, c1_extents)
    ]
    base = base_config or default_folded_config(fused.graph.name, board)
    decisions = None
    if prune:
        from repro.verify.dominance import plan_conv_sweep

        decisions = plan_conv_sweep(
            fused, ("conv", 1, 1), tilings, board, constants,
            base.pin_unit_stride,
        )

    points: List[Optional[DSEPoint]] = []
    live: List[int] = []
    for i, tiling in enumerate(tilings):
        if decisions is not None and decisions[i].pruned:
            points.append(
                DSEPoint(
                    tiling, fits=False, routed=False, pruned=True,
                    fail_reason=f"pruned: {decisions[i].reason}",
                )
            )
            continue
        points.append(None)
        live.append(i)

    if workers > 1 and live:
        cache_dir, ephemeral = shared_cache_dir(resolved)
        try:
            tasks = [
                (i, ("conv", 1, 1), tilings[i], base, autofix) for i in live
            ]
            results = _run_pool(
                _sweep_task, (fused, board, constants, cache_dir),
                tasks, workers,
            )
            hits = misses = 0
            for idx, point, h, m in results:
                points[idx] = point
                hits += h
                misses += m
        finally:
            if ephemeral:
                merge_disk_entries(resolved, cache_dir)
                shutil.rmtree(cache_dir, ignore_errors=True)
        return SweepSummary(
            points=points, cache_hits=hits, cache_misses=misses
        )

    for i in live:
        tiling = tilings[i]
        eff_base, fixed = base, False
        if autofix:
            eff_base, fixed = _autofix_candidate(
                fused, board, ("conv", 1, 1), tiling, base, constants
            )
        point = evaluate_tiling(
            fused, board, ("conv", 1, 1), tiling,
            base_config=eff_base, constants=constants, cache=point_cache,
        )
        point.fixed = fixed
        points[i] = point

    after = resolved.stats() if resolved is not None else before
    return SweepSummary(
        points=points,
        cache_hits=after["hits"] - before["hits"],
        cache_misses=after["misses"] - before["misses"],
    )


def explore_conv1x1(
    fused: FusedGraph,
    board: Board,
    w2vec_options: Sequence[int] = (7,),
    c2vec_options: Sequence[int] = (4, 8, 16, 32),
    c1vec_options: Sequence[int] = (4, 8, 16),
    constants: AOCConstants = DEFAULT_CONSTANTS,
    prune: bool = False,
) -> List[DSEPoint]:
    """Points-only view of :func:`sweep_conv1x1` (original API)."""
    return sweep_conv1x1(
        fused, board, w2vec_options, c2vec_options, c1vec_options, constants,
        prune=prune,
    ).points


def choose_tiling(points: Sequence[DSEPoint]) -> DSEPoint:
    """Best feasible point by modelled FPS (requirement 3 filters)."""
    feasible = [p for p in points if p.feasible]
    if not feasible:
        raise FitError("no feasible tiling configuration in the swept space")
    return max(feasible, key=lambda p: p.fps or 0.0)


def _autofix_candidate(
    fused: FusedGraph,
    board: Board,
    group: Tuple[str, int, int],
    tiling: ConvTiling,
    base: FoldedConfig,
    constants: AOCConstants,
) -> Tuple[FoldedConfig, bool]:
    """Run the static autofix planner on one candidate configuration.

    Returns the (possibly rewritten) base config for this point plus
    whether any recipe-level fix was applied.  The planner only runs the
    schedule/lower/codegen/verify front of the pipeline — never
    synthesis — so it is safe inside a sweep loop.
    """
    from repro.flow.autofix import plan_recipe_fixes

    config = FoldedConfig(
        conv_tilings=dict(base.conv_tilings),
        dense_unroll=base.dense_unroll,
        pin_unit_stride=base.pin_unit_stride,
        recipe_deltas=dict(base.recipe_deltas),
        recipe_overrides=dict(base.recipe_overrides),
    )
    config.conv_tilings[group] = tiling
    fixed_config, changed = plan_recipe_fixes(fused, board, config, constants)
    return (fixed_config if changed else base), changed


def _conv1x1_extents(fused: FusedGraph) -> Tuple[List[int], List[int], List[int]]:
    w2, c2, c1 = [], [], []
    for fn in fused:
        if fn.op == "conv2d" and fn.anchor.attrs["field"] == 1:
            c1_, _, w_ = fn.anchor.inputs[0].out_shape
            k, _, wo = fn.anchor.out_shape
            w2.append(wo)
            c2.append(k)
            c1.append(c1_)
    return w2, c2, c1
