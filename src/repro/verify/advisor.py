"""Rendering and aggregation of performance advice.

Turns the RP findings of :mod:`repro.verify.perf` into the findings
table ``python -m repro.report --check`` prints: each finding with its
rule ID, and under every RP finding the one-line schedule rewrite from
the cookbook that removes it.  :func:`prune_preview` additionally
dry-runs the dominance pruner over the default 1x1 tiling grid so the
report shows how much synthesis a pruned sweep would skip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.device.boards import Board
from repro.relay.passes import FusedGraph
from repro.topi import ConvTiling
from repro.verify.diagnostics import VerifyReport
from repro.verify.dominance import group_members, plan_conv_sweep

if TYPE_CHECKING:
    from repro.flow.folded import FoldedConfig

#: RP rule -> the cookbook rewrite that removes the finding
#: (docs/schedule_cookbook.md, "Reading advisor output")
SUGGESTIONS: Dict[str, str] = {
    "RP001": "st.cache_write('register') on the accumulator, write back after the reduction (Listing 5.2)",
    "RP002": "reorder or re-tile so the unrolled dimension strides contiguously (coalescible LSU)",
    "RP003": "build with pin_unit_stride=True so the innermost stride is the constant 1 (Listing 5.11)",
    "RP004": "st.cache_read(...) a block, or tile the reuse loop until the block fits the LSU cache",
    "RP005": "cut DRAM traffic before adding compute: fuse the epilogue, cache reuse, or change boards",
    "RP006": "reduce the unroll width along the coalesced dimension to the bandwidth roof",
}

#: rule IDs this module may mention (tools/lint.py cross-checks); the
#: advisor renders perf.py's findings and emits no IDs of its own
RULES = tuple(sorted(SUGGESTIONS))


def format_advice(report: VerifyReport) -> str:
    """All findings of one verified build, each RP finding with its fix."""
    text = report.format_table(fixes=SUGGESTIONS)
    if not report.advice:
        text += "\n  no performance findings — the schedule looks tight"
    return text


def prune_preview(
    fused: FusedGraph,
    board: Board,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    config: Optional["FoldedConfig"] = None,
    w2vec_options=(7,),
    c2vec_options=(4, 8, 16, 32),
    c1vec_options=(4, 8, 16),
) -> Optional[Dict[str, object]]:
    """Dry-run dominance pruning over the default 1x1 tiling grid.

    ``config`` is the build's folded configuration (None: the default),
    whose group kernels the profiles describe.  Returns None when the network has no 1x1 convolution group (nothing
    to sweep).  Otherwise a dict with the candidate/kept/pruned counts
    and the per-pruned-tiling reasons, deterministically ordered — the
    statistics block ``--check`` prints.
    """
    from repro.flow.dse import divides_all

    group = ("conv", 1, 1)
    members = group_members(fused, group)
    if not members:
        return None
    w2e = [fn.anchor.out_shape[2] for fn in members]
    c2e = [fn.anchor.out_shape[0] for fn in members]
    c1e = [fn.anchor.inputs[0].out_shape[0] for fn in members]
    tilings = [
        ConvTiling(w2vec=w2, c2vec=c2, c1vec=c1)
        for w2 in w2vec_options if divides_all(w2, w2e)
        for c2 in c2vec_options if divides_all(c2, c2e)
        for c1 in c1vec_options if divides_all(c1, c1e)
    ]
    decisions = plan_conv_sweep(fused, group, tilings, board, constants, config)
    pruned: List[Dict[str, object]] = [
        {
            "tiling": f"w2vec={d.tiling.w2vec} c2vec={d.tiling.c2vec} "
                      f"c1vec={d.tiling.c1vec}",
            "reason": d.reason,
        }
        for d in decisions if d.pruned
    ]
    return {
        "group": "conv 1x1/1",
        "candidates": len(decisions),
        "kept": sum(1 for d in decisions if not d.pruned),
        "pruned_static": len(pruned),
        "pruned": pruned,
    }


def format_prune_preview(preview: Dict[str, object]) -> str:
    lines = [
        f"dominance pruning ({preview['group']} tiling grid): "
        f"{preview['kept']}/{preview['candidates']} candidates need "
        f"synthesis, {preview['pruned_static']} pruned statically"
    ]
    for p in preview["pruned"]:
        lines.append(f"  - {p['tiling']}: {p['reason']}")
    return "\n".join(lines)
