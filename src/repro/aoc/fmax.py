"""Clock-frequency and routing-congestion model (thesis Section 6.5).

fmax degrades with (a) the fanout of distributing operands from global-
memory LSUs into the replicated DSP datapaths — proportional to DSP
utilization — and (b) overall logic/RAM congestion.  Past a congestion
threshold Quartus routing *fails* (the thesis's 7/16/8 tiling on the
S10SX and 7/32/8 on the S10MX).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aoc.constants import AOCConstants
from repro.aoc.resources import ResourceEstimate
from repro.device.boards import Board


@dataclass
class TimingReport:
    """Result of the place-and-route timing model."""

    fmax_mhz: float
    congestion: float
    routed: bool


def congestion_metric(
    total: ResourceEstimate, board: Board, lsu_replicas: int, c: AOCConstants
) -> float:
    """Routing-pressure proxy in [0, ~1.5]."""
    alut_frac = total.aluts / board.avail_aluts
    ram_frac = total.rams / board.avail_rams
    dsp_frac = total.dsps / board.avail_dsps
    return (
        0.45 * alut_frac
        + 0.35 * ram_frac
        + 0.20 * dsp_frac
        + c.congestion_replica_weight * lsu_replicas
    )


def timing(
    total: ResourceEstimate, board: Board, lsu_replicas: int, c: AOCConstants
) -> TimingReport:
    """Compute the design fmax, or mark the design unroutable."""
    congestion = congestion_metric(total, board, lsu_replicas, c)
    dsp_frac = total.dsps / board.avail_dsps
    derate = (
        c.fmax_dsp_slope * dsp_frac
        + c.fmax_congestion_slope * max(0.0, congestion - 0.25)
    )
    fmax = board.base_fmax_mhz * max(0.25, 1.0 - derate)
    routed = congestion <= board.routing_threshold
    return TimingReport(fmax_mhz=fmax, congestion=congestion, routed=routed)
