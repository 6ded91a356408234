"""Dominance proofs between DSE points, before any synthesis is spent.

A tiling sweep (``repro.flow.dse``) compiles and simulates every
candidate; most of that work is provably wasted.  This module builds a
:class:`StaticProfile` of a candidate tiling *without running the
compile pipeline* — it takes the parameterized group kernels from the
folded builder's own constructor (:func:`repro.flow.folded.group_kernel`:
the build's names, epilogue and resolved recipe), lowers them through
the per-kernel lower cache, runs the AOC front-half analysis on them,
and records every quantity the performance model is monotone in:

* the worst loop initiation interval,
* the widest coalesced access and the LSU replica count,
* the resource estimate (a *lower bound* on the whole design, since all
  other kernels are identical across candidates),
* per-invocation cycle and traffic counts for every binding set the
  network actually runs.

Candidate A is **dominated** by an already-kept candidate B when every
one of those quantities is at least B's: the model can then only rate A
at most as fast as B, so A can never be the sweep's argmax (ties break
toward the earlier point, which is the kept one) and is skipped.
Candidates whose resource lower bound already exceeds the board — or
whose access width exceeds the bandwidth roof (sweep requirement 1) —
are **infeasible** and skipped outright.  ``SweepSummary.pruned_static``
reports how many synthesis runs this saved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.aoc.analysis import analyze
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.aoc.resources import estimate_kernel
from repro.device.boards import Board
from repro.errors import AOCError
from repro.relay.passes import FusedGraph, FusedNode
from repro.topi import ConvTiling
from repro.verify.memory import network_footprint
from repro.verify.perf import roof_elems

if TYPE_CHECKING:
    from repro.flow.folded import FoldedConfig

GroupId = Tuple[str, int, int]


@dataclass(frozen=True)
class StaticProfile:
    """Everything the performance model is monotone in, for one tiling."""

    tiling: ConvTiling
    #: worst initiation interval across the group kernels' loops
    max_ii: int
    #: widest coalesced LSU access, elements
    access_width_elems: int
    #: total LSU replica streams (routing pressure)
    replicas: int
    #: resource lower bound over the group's kernels
    aluts: int
    ffs: int
    rams: int
    dsps: int
    #: worst single-kernel DSP fanout (the router's structural limit)
    max_kernel_dsps: int
    #: per member-layer invocation cycles, in graph order
    cycles: Tuple[int, ...]
    #: per member-layer DRAM traffic bytes, in graph order
    traffic: Tuple[int, ...]
    #: whole-network resident DDR bytes (certified activation arena +
    #: weights, :func:`repro.verify.memory.network_footprint`); a
    #: tiling-independent floor within one sweep, but part of the
    #: partial order so cross-network frontiers stay sound
    ddr_bytes: int = 0


def group_members(fused: FusedGraph, group: GroupId) -> List[FusedNode]:
    """Fused nodes a conv group's parameterized kernels will serve."""
    from repro.flow.search import group_of

    return [fn for fn in fused if group_of(fn) == group]


def profile_conv_tiling(
    fused: FusedGraph,
    group: GroupId,
    tiling: ConvTiling,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    config: Optional["FoldedConfig"] = None,
    ddr_bytes: Optional[int] = None,
) -> StaticProfile:
    """Static profile of one candidate tiling for one conv group.

    Mirrors ``repro.flow.folded``'s group-kernel construction exactly:
    it calls the builder's constructor for each distinct group key among
    the group's members (one kernel per fused-epilogue signature), on
    ``config`` (the sweep's base, default :class:`FoldedConfig`) with
    the group's tiling replaced by ``tiling`` — the build's names,
    recipe deltas and overrides included.  So the profile describes the
    very kernels the candidate build would synthesize (the certificate
    is exact within the model), and, taken from the schedule memo and
    lowered through the lower cache, they are the very kernels that
    build schedules and replays, analyses included.
    ``ddr_bytes`` is the network's footprint, tiling-independent, so a
    sweep passes it once for every candidate; None computes it.
    Raises :class:`~repro.errors.AOCError` when the group has no member
    layers or a kernel defeats the front-half analysis.
    """
    from repro.flow.folded import (
        FoldedConfig, group_kernel, group_key, group_name_starts,
    )
    from repro.flow.incremental import lower_kernel

    kind, f, s = group
    members = group_members(fused, group)
    if not members:
        raise AOCError(f"no {kind} {f}x{f}/{s} layers in {fused.graph.name}")
    base = config or FoldedConfig()
    config = replace(base, conv_tilings={**base.conv_tilings, group: tiling})
    by_key: Dict[tuple, List[FusedNode]] = {}
    for fn in members:
        by_key.setdefault(group_key(fn), []).append(fn)
    starts = group_name_starts(fused)

    max_ii = 1
    width = 0
    replicas = 0
    aluts = ffs = rams = dsps = max_kernel_dsps = 0
    cycles: List[int] = []
    traffic: List[int] = []
    for key, fns in sorted(by_key.items(), key=lambda kv: str(kv[0])):
        sk, handle = group_kernel(fns[0], key, config, starts[key])
        an = analyze(lower_kernel(sk), constants)
        res = estimate_kernel(an, constants)
        max_ii = max(max_ii, an.max_ii())
        width = max(width, max((l.width_elems for l in an.lsus), default=0))
        replicas += an.total_lsu_replicas()
        aluts += res.aluts
        ffs += res.ffs
        rams += res.rams
        dsps += res.dsps
        max_kernel_dsps = max(max_kernel_dsps, an.dsp_count())
        for fn in fns:
            c1, hi, wi = fn.anchor.inputs[0].out_shape
            k = fn.anchor.attrs.get("filters") if kind == "conv" else None
            b = handle.bindings(c1, hi, wi, k) if kind == "conv" else (
                handle.bindings(c1, hi, wi)
            )
            cycles.append(an.compute_cycles(b))
            traffic.append(an.traffic_bytes(b))
    return StaticProfile(
        tiling=tiling, max_ii=max_ii, access_width_elems=width,
        replicas=replicas, aluts=aluts, ffs=ffs, rams=rams, dsps=dsps,
        max_kernel_dsps=max_kernel_dsps,
        cycles=tuple(cycles), traffic=tuple(traffic),
        ddr_bytes=(network_footprint(fused).ddr_bytes
                   if ddr_bytes is None else ddr_bytes),
    )


def dominates(better: StaticProfile, worse: StaticProfile) -> bool:
    """True when ``better`` is at-least-as-good in *every* modelled
    dimension — II, access width, replicas, resources, and per-binding
    cycles and traffic — so the model cannot rate ``worse`` faster."""
    if len(better.cycles) != len(worse.cycles):
        return False
    return (
        better.max_ii <= worse.max_ii
        and better.access_width_elems <= worse.access_width_elems
        and better.replicas <= worse.replicas
        and better.aluts <= worse.aluts
        and better.ffs <= worse.ffs
        and better.rams <= worse.rams
        and better.dsps <= worse.dsps
        and better.max_kernel_dsps <= worse.max_kernel_dsps
        and better.ddr_bytes <= worse.ddr_bytes
        and all(b <= w for b, w in zip(better.cycles, worse.cycles))
        and all(b <= w for b, w in zip(better.traffic, worse.traffic))
    )


def infeasible_reason(profile: StaticProfile, board: Board) -> Optional[str]:
    """Why this candidate can never synthesize (None when it might).

    The profile's resources are a lower bound on the whole design —
    every other kernel is identical across candidates — so exceeding the
    board here guarantees the compiler's own FitError/RoutingError.  The
    bandwidth-roof check enforces sweep requirement 1 at the board's
    base clock.
    """
    if profile.dsps > board.avail_dsps:
        return (
            f"needs >= {profile.dsps} DSPs, board has {board.avail_dsps} "
            f"(FitError guaranteed)"
        )
    if profile.max_kernel_dsps > board.max_kernel_fanout:
        return (
            f"kernel fanout {profile.max_kernel_dsps} exceeds "
            f"{board.max_kernel_fanout} (RoutingError guaranteed)"
        )
    if board.ddr_bytes and profile.ddr_bytes > board.ddr_bytes:
        return (
            f"network needs {profile.ddr_bytes} DDR bytes, board has "
            f"{board.ddr_bytes} (RM003: statically infeasible)"
        )
    roof = roof_elems(board)
    if profile.access_width_elems > roof:
        return (
            f"access width {profile.access_width_elems} elems exceeds the "
            f"bandwidth roof (~{roof} elems/cycle at "
            f"{board.base_fmax_mhz:.0f} MHz)"
        )
    return None


@dataclass
class PruneDecision:
    """Keep-or-skip verdict for one candidate tiling."""

    tiling: ConvTiling
    profile: Optional[StaticProfile]
    pruned: bool
    reason: Optional[str] = None
    dominated_by: Optional[ConvTiling] = None


def decide(
    tiling: ConvTiling,
    profile: Optional[StaticProfile],
    kept: List[StaticProfile],
    board: Board,
) -> PruneDecision:
    """Keep-or-skip verdict for one candidate against the kept ones.

    The candidate is pruned when it is statically infeasible or
    dominated by a kept profile (the first one that dominates is named).
    A candidate whose profile the model could not build (``None``) is
    kept — never wrongly skipped.
    """
    if profile is None:
        return PruneDecision(tiling, None, pruned=False)
    reason = infeasible_reason(profile, board)
    if reason is not None:
        return PruneDecision(tiling, profile, pruned=True,
                             reason=f"infeasible: {reason}")
    by = next((k for k in kept if dominates(k, profile)), None)
    if by is not None:
        return PruneDecision(
            tiling, profile, pruned=True,
            reason=(
                f"dominated by w2vec={by.tiling.w2vec} "
                f"c2vec={by.tiling.c2vec} c1vec={by.tiling.c1vec}"
            ),
            dominated_by=by.tiling,
        )
    return PruneDecision(tiling, profile, pruned=False)


def plan_conv_sweep(
    fused: FusedGraph,
    group: GroupId,
    tilings: List[ConvTiling],
    board: Board,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    config: Optional["FoldedConfig"] = None,
) -> List[PruneDecision]:
    """Decide, in sweep order, which candidates need synthesis.

    A candidate is pruned when it is statically infeasible or dominated
    by an earlier *kept* candidate; ties break toward the earlier point,
    matching ``choose_tiling``'s first-max selection, so the kept set
    always contains the sweep's argmax.  ``config`` is the sweep's base
    configuration, each candidate's tiling replacing the group's.
    """
    decisions: List[PruneDecision] = []
    kept: List[StaticProfile] = []
    ddr_bytes = network_footprint(fused).ddr_bytes
    for tiling in tilings:
        try:
            prof = profile_conv_tiling(
                fused, group, tiling, constants, config, ddr_bytes
            )
        except AOCError:
            prof = None
        decision = decide(tiling, prof, kept, board)
        if prof is not None and not decision.pruned:
            kept.append(prof)
        decisions.append(decision)
    return decisions
