"""Tiling-factor design-space exploration (thesis §4.11 + future work §8.1).

The thesis selects unroll/tiling factors manually under three
requirements and leaves an automatic explorer to future work; this module
implements that explorer against the reproduction's AOC model:

1. the widened access width must not exceed what external memory can
   feed at the design clock (the bandwidth roof);
2. factors must evenly divide every layer extent they tile;
3. the synthesized design must fit (and route on) the board.

``sweep_conv1x1`` sweeps (w2vec, c2vec, c1vec) space for the MobileNet
pointwise kernel the way Table 6.6 does, and ``choose_tiling`` returns
the best configuration by modelled throughput.

The sweep is the grid strategy over :mod:`repro.flow.search`: every
candidate is judged by its evaluator, which runs the staged compile
pipeline, so points sharing generated source (and re-runs of the same
sweep) hit the content-addressed compile cache; :class:`SweepSummary`
reports the hit/miss counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.device.boards import Board
from repro.errors import FitError, ReproError
from repro.flow.folded import FoldedConfig
from repro.flow.search import (
    CertCounters,
    cache_counts,
    evaluate,
    fork_map,
    group_extents,
)
from repro.flow.stages import CacheOption, resolve_cache
from repro.relay.passes import FusedGraph
from repro.schedule import ScheduleRecipe
from repro.topi import ConvTiling, symbolic_conv_recipe


@dataclass
class DSEPoint(CertCounters):
    """One evaluated (or statically pruned) tiling configuration.

    A point is (tiling, recipe): ``recipe`` is the transform recipe the
    tiling expands to for the swept group's kernel, whose fingerprint
    keys the compile cache.  ``fixed`` marks points the static autofix
    pass rewrote (recipe deltas / stride pinning) before synthesis.
    The certificate counters come from the build's verify stage (no
    interpreter fallback per point).
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
    """Compile + simulate the network with one tiling for one conv group
    (:func:`repro.flow.search.evaluate` on the base config with that
    group's tiling replaced)."""
    from repro.flow.deploy import default_folded_config

    config = (base_config or default_folded_config(fused.graph.name, board)).copy()
    config.conv_tilings[group] = tiling
    recipe = symbolic_conv_recipe(
        tiling, is_1x1=(group[1] == 1), depthwise=(group[0] == "dw")
    )
    verdict = evaluate(fused, board, config, constants, cache)
    # a Verdict's fields are a subset of a DSEPoint's
    return DSEPoint(tiling, recipe=recipe, **vars(verdict))


#: the default 1x1 tiling grid (Table 6.6's factors), swept by
#: :func:`sweep_conv1x1` and previewed by ``--check``
W2VEC_OPTIONS, C2VEC_OPTIONS, C1VEC_OPTIONS = (7,), (4, 8, 16, 32), (4, 8, 16)


def conv1x1_tilings(
    fused: FusedGraph,
    w2vec_options: Sequence[int] = W2VEC_OPTIONS,
    c2vec_options: Sequence[int] = C2VEC_OPTIONS,
    c1vec_options: Sequence[int] = C1VEC_OPTIONS,
) -> Optional[List[ConvTiling]]:
    """Every option combination whose factors divide all ``('conv', 1,
    1)`` group layers' extents (requirement 2), in grid order; None when
    the network has no such layers."""
    extents = group_extents(fused).get(("conv", 1, 1))
    if extents is None:
        return None
    return [
        ConvTiling(w2vec=w2, c2vec=c2, c1vec=c1)
        for w2 in w2vec_options if divides_all(w2, extents["w2"])
        for c2 in c2vec_options if divides_all(c2, extents["c2"])
        for c1 in c1vec_options if divides_all(c1, extents["c1"])
    ]


def sweep_conv1x1(
    fused: FusedGraph,
    board: Board,
    w2vec_options: Sequence[int] = W2VEC_OPTIONS,
    c2vec_options: Sequence[int] = C2VEC_OPTIONS,
    c1vec_options: Sequence[int] = C1VEC_OPTIONS,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
    prune: bool = False,
    base_config: Optional[FoldedConfig] = None,
    autofix: bool = False,
    workers: int = 1,
) -> SweepSummary:
    """Sweep 1x1-conv tiling space (the Table 6.6 experiment, generalized).

    Candidate factors violating divisibility over the layers of the
    swept ``('conv', 1, 1)`` group are skipped before synthesis, per
    requirement 2; a network without such layers raises
    :class:`~repro.errors.ReproError`.  With ``prune`` the dominance
    prover of :mod:`repro.verify.dominance` additionally skips
    candidates that are statically infeasible or dominated by an
    earlier kept point — those appear in the summary as pruned points
    (``pruned_static``) with the proof in ``fail_reason``, and never
    touch the compile pipeline.  With ``autofix`` each surviving
    candidate first runs the static recipe-level fix pass of
    :mod:`repro.flow.autofix` (one verify pass, no synthesis); rewritten
    points are marked ``fixed`` and counted as ``fixed_static``.
    Returns the evaluated points plus the compile-cache hits/misses this
    sweep incurred.

    With ``workers > 1`` the first surviving candidate is synthesized
    here and the rest across :func:`repro.flow.search.fork_map`'s
    process pool; point order and values match the serial sweep, and
    the hit/miss counts add the workers' to this process's.
    """
    from repro.flow.deploy import default_folded_config

    group = ("conv", 1, 1)
    tilings = conv1x1_tilings(fused, w2vec_options, c2vec_options,
                              c1vec_options)
    if tilings is None:
        raise ReproError(
            f"{fused.graph.name} has no layers in the swept conv group "
            f"{group}"
        )
    base = base_config or default_folded_config(fused.graph.name, board)
    points: List[Optional[DSEPoint]] = [None] * len(tilings)
    if prune:
        from repro.verify.dominance import plan_conv_sweep

        decisions = plan_conv_sweep(
            fused, group, tilings, board, constants, base
        )
        for i, decision in enumerate(decisions):
            if decision.pruned:
                points[i] = DSEPoint(
                    tilings[i], fits=False, routed=False, pruned=True,
                    fail_reason=f"pruned: {decision.reason}",
                )
    live = [i for i, p in enumerate(points) if p is None]

    def build(i: int, point_cache: CacheOption) -> DSEPoint:
        eff_base, fixed = base, False
        if autofix:
            eff_base, fixed = _autofix_candidate(
                fused, board, group, tilings[i], base, constants
            )
        point = evaluate_tiling(
            fused, board, group, tilings[i], base_config=eff_base,
            constants=constants, cache=point_cache,
        )
        point.fixed = fixed
        return point

    resolved = resolve_cache(cache)
    point_cache = resolved if resolved is not None else False
    hits0, misses0 = cache_counts(resolved)
    # a pooled sweep builds its first candidate here, before forking:
    # the workers inherit its kernels lowered, verified and certified,
    # and its arena plan, so each pays only for its own group kernel
    built = [build(i, point_cache) for i in live[:1 if workers > 1 else None]]
    hits1, misses1 = cache_counts(resolved)
    hits, misses = hits1 - hits0, misses1 - misses0
    if workers > 1:
        rest, pool_hits, pool_misses = fork_map(build, live[1:], workers,
                                                resolved)
        built += rest
        hits, misses = hits + pool_hits, misses + pool_misses
    for i, point in zip(live, built):
        points[i] = point
    return SweepSummary(points=points, cache_hits=hits, cache_misses=misses)


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

    config = base.copy()
    config.conv_tilings[group] = tiling
    fixed_config, changed = plan_recipe_fixes(fused, board, config, constants)
    return (fixed_config if changed else base), changed
