"""Whole-network tiling auto-tuner (the DSE the thesis leaves to §8.1).

``autotune_folded`` performs greedy coordinate ascent over the tiling
configuration of *every* convolution group in a folded deployment: one
group at a time, it tries enlarging (or shrinking) each tiling dimension
by the divisibility-preserving candidates, keeps any change that improves
modelled FPS while still fitting and routing, and stops at a fixed point.

This is the "design space explorer [that] would benefit the performance
of [the] work by maximizing overall network performance ... rather than
the performance of individual layers" (thesis Section 4.11).  It is the
ascent strategy over :mod:`repro.flow.search`, whose evaluator judges
every trial configuration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.device.boards import Board
from repro.errors import AOCError, FitError
from repro.flow.dse import divides_all
from repro.flow.folded import FoldedConfig, plan_folded, schedule_folded
from repro.flow.search import (
    CertCounters,
    GroupId,
    cache_counts,
    evaluate,
    fork_map,
    group_extents,
)
from repro.flow.stages import CacheOption, resolve_cache
from repro.relay.passes import FusedGraph
from repro.topi import ConvTiling


@dataclass
class TuneResult(CertCounters):
    """Outcome of one auto-tuning run.

    The certificate counters describe the winning configuration: the
    tuned schedules are accepted on static certificates, with an
    RE006-unknown kernel allowed exactly one dynamic cross-check, so
    ``cert_dynamic_runs`` is 0 when every recipe-backed kernel certified.
    """

    config: FoldedConfig
    fps: float
    evaluations: int
    history: List[Tuple[GroupId, ConvTiling, float]] = field(default_factory=list)
    #: compile-cache accounting over the whole run
    cache_hits: int = 0
    cache_misses: int = 0
    #: candidate configurations the compiler rejected (any AOCError)
    failed_points: int = 0
    #: (group, tiling, reason) per rejected candidate
    failures: List[Tuple[GroupId, ConvTiling, str]] = field(default_factory=list)
    #: candidates skipped before synthesis by a dominance/infeasibility proof
    pruned_static: int = 0
    #: (group, tiling, reason) per statically pruned candidate
    pruned: List[Tuple[GroupId, ConvTiling, str]] = field(default_factory=list)
    #: kernel name -> recipe fingerprint under the winning configuration,
    #: i.e. the (tiling, recipe) identity each tuned point resolves to
    recipes: Dict[str, str] = field(default_factory=dict)


def _candidates(extents: Sequence[int], cap: int = 32) -> List[int]:
    """Divisibility-preserving factors for one tiling dimension."""
    return [f for f in (1, 2, 4, 7, 8, 14, 16, 32) if f <= cap and divides_all(f, extents)]


def _dims_for(gid: GroupId, ext: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Tiling dimensions the ascent explores for one conv group."""
    kind, f, _ = gid
    dims = {
        "w2vec": _candidates(ext["w2"], cap=16),
        "c1vec": _candidates(ext["c1"]),
    }
    if kind == "conv" and f == 1:
        dims["c2vec"] = _candidates(ext["c2"])
    return dims


def _moves(
    config: FoldedConfig, extents: Dict[GroupId, Dict[str, List[int]]]
) -> Iterator[Tuple[GroupId, ConvTiling, ConvTiling]]:
    """``(group, current, trial)`` one-dimension moves, in ascent order.

    ``current`` is read from ``config`` before each move, so an ascent
    that updates ``config`` between moves sees its accepted tilings.
    """
    for gid, ext in extents.items():
        for dim, options in _dims_for(gid, ext).items():
            for value in options:
                current = config.tiling_for(*gid)
                if value != getattr(current, dim):
                    yield gid, current, replace(current, **{dim: value})


def autotune_folded(
    fused: FusedGraph,
    board: Board,
    start: Optional[FoldedConfig] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    max_rounds: int = 4,
    cache: CacheOption = None,
    prune: bool = False,
    workers: int = 1,
) -> TuneResult:
    """Greedy coordinate-ascent tiling search over all conv groups.

    Every candidate build goes through :func:`repro.flow.search.evaluate`;
    revisited configurations (coordinate ascent retries them often)
    replay ``synthesize`` from the compile cache, and the returned
    :class:`TuneResult` reports the hit/miss counts.  With ``prune``,
    a trial tiling that the dominance prover shows statically infeasible
    or dominated by the group's *current* tiling (so it cannot beat the
    incumbent FPS) is skipped without building — counted and listed
    under ``pruned_static``/``pruned``.

    ``workers > 1`` parallelizes candidate *synthesis*, not the search:
    before each round, the trials that round will consider (enumerated
    against the round-entry configuration) are built across
    :func:`repro.flow.search.fork_map`'s pool into this run's cache,
    so the serial ascent mostly replays them as hits.  The ascent
    itself — and therefore the chosen configuration — is identical to
    ``workers=1``.  Pre-warming needs a real cache to fill, so it is
    skipped under ``cache=False``.
    """
    from repro.verify import certify_build
    from repro.verify.dominance import (
        decide, network_footprint, profile_conv_tiling,
    )

    resolved = resolve_cache(cache)
    eval_cache: CacheOption = resolved if resolved is not None else False
    hits0, misses0 = cache_counts(resolved)
    config = (start or FoldedConfig()).copy()
    extents = group_extents(fused)
    history: List[Tuple[GroupId, ConvTiling, float]] = []
    failures: List[Tuple[GroupId, ConvTiling, str]] = []
    pruned: List[Tuple[GroupId, ConvTiling, str]] = []

    # the network's DDR footprint is tiling-independent: once per run
    ddr_bytes = network_footprint(fused).ddr_bytes if prune else None

    @functools.lru_cache(maxsize=None)
    def profile(gid: GroupId, tiling: ConvTiling):
        """Static profile of one group tiling (None if the dominance
        model cannot build one — then nothing is pruned)."""
        try:
            return profile_conv_tiling(
                fused, gid, tiling, constants, config, ddr_bytes
            )
        except AOCError:
            return None

    def prune_reason(gid: GroupId, current: ConvTiling, trial: ConvTiling):
        """Why a trial needs no build (None when it must be built): a
        trial dominated by the group's current tiling cannot raise the
        design's FPS — everything outside the group is identical between
        the two configurations — and an infeasible one cannot synthesize."""
        if not prune:
            return None
        cur = profile(gid, current)
        kept = [cur] if cur is not None else []
        return decide(trial, profile(gid, trial), kept, board).reason

    def warm(trial: FoldedConfig, worker_cache) -> None:
        evaluate(fused, board, trial, constants, worker_cache)

    verdict = evaluate(fused, board, config, constants, eval_cache)
    evaluations = 1
    if verdict.fps is None:
        raise FitError(
            f"starting configuration does not fit/route: {verdict.fail_reason}"
        )
    best = verdict.fps

    for _ in range(max_rounds):
        if workers > 1 and resolved is not None:
            trials = []
            for gid, current, trial in _moves(config, extents):
                if prune_reason(gid, current, trial) is None:
                    trials.append(config.copy())
                    trials[-1].conv_tilings[gid] = trial
            fork_map(warm, trials, workers, resolved)
        improved = False
        for gid, current, trial in _moves(config, extents):
            skip = prune_reason(gid, current, trial)
            if skip is not None:
                pruned.append((gid, trial, skip))
                continue
            config.conv_tilings[gid] = trial
            verdict = evaluate(fused, board, config, constants, eval_cache)
            evaluations += 1
            if verdict.fail_reason is not None:
                failures.append((gid, trial, verdict.fail_reason))
            if verdict.fps is not None and verdict.fps > best * 1.001:
                best = verdict.fps
                history.append((gid, trial, best))
                improved = True
            else:
                config.conv_tilings[gid] = current
        if not improved:
            break

    hits1, misses1 = cache_counts(resolved)
    # accept the winner on static certificates: one certifier pass over
    # its schedule, an RE006-unknown kernel allowed one dynamic check
    folded = schedule_folded(fused, config, board)
    report, _ = certify_build(
        folded, plan=plan_folded(fused, folded),
        subject=f"autotune:{fused.graph.name}:{board.name}",
        dynamic_fallback=True,
    )
    result = TuneResult(
        config=config, fps=best, evaluations=evaluations, history=history,
        cache_hits=hits1 - hits0, cache_misses=misses1 - misses0,
        failed_points=len(failures), failures=failures,
        pruned_static=len(pruned), pruned=pruned,
        recipes={
            sk.name: sk.recipe.fingerprint()
            for sk in folded.kernels if sk.recipe is not None
        },
    )
    result.count_certificates(report.counters)
    return result
