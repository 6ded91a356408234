"""Quantization what-if projection (thesis Section 8.1 future work).

The thesis argues reduced precision would relieve its two limits: DSP
packing ("two low-precision integer operations computed per cycle as
opposed to one per DSP") and LSU width/cache footprint ("the reduced
amount of bits decreases LSU bit width and cache sizes").

This module projects a compiled fp32 deployment onto int16/int8 using
the AOC model's own compute/memory decomposition: compute time scales
with DSP packing, memory time with bytes per element, and the resource
estimate scales accordingly.  It is a *projection*, not a re-synthesis —
exactly the kind of estimate the thesis's future-work section reasons
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ReproError

#: DSP packing factor and bytes per element per precision
PRECISIONS: Dict[str, Dict[str, float]] = {
    "fp32": {"ops_per_dsp": 1.0, "bytes": 4.0},
    "int16": {"ops_per_dsp": 2.0, "bytes": 2.0},  # 18x18 DSP mode
    "int8": {"ops_per_dsp": 4.0, "bytes": 1.0},
}


@dataclass
class PrecisionProjection:
    """Projected deployment figures at a reduced precision."""

    precision: str
    fps: float
    speedup_vs_fp32: float
    dsp_util: float
    ram_util: float
    fits: bool


def project_precision(deployment, precision: str) -> PrecisionProjection:
    """Project a folded deployment's throughput/resources to a precision.

    Per invocation the compute time divides by the DSP packing factor and
    the memory time scales with bytes-per-element; host overheads and
    transfers shrink with the input footprint.
    """
    if precision not in PRECISIONS:
        raise ReproError(
            f"unknown precision {precision!r}; options: {sorted(PRECISIONS)}"
        )
    if deployment.mode != "folded":
        raise ReproError("precision projection applies to folded deployments")
    p = PRECISIONS[precision]
    pack = p["ops_per_dsp"]
    byte_scale = p["bytes"] / 4.0

    bs = deployment.bitstream
    board = bs.board
    base = deployment.run()

    device_us = 0.0
    for inv in deployment.plan.invocations:
        t_compute, t_mem = bs.kernel_roofline_us(inv.kernel_name, inv.bindings)
        # both scales are powers of two: scaling after the roofline is exact
        device_us += max(t_compute / pack, t_mem * byte_scale)

    host_us = base.host_overhead_us
    transfer_us = (base.write_us + base.read_us) * byte_scale
    total_us = device_us + host_us + transfer_us
    fps = 1e6 / total_us

    util = bs.utilization()
    dsp_util = util["dsp"] / pack
    ram_util = max(
        board.static_rams / board.rams, util["ram"] * (0.5 + 0.5 * byte_scale)
    )
    return PrecisionProjection(
        precision=precision,
        fps=fps,
        speedup_vs_fp32=fps * base.time_per_image_us / 1e6,
        dsp_util=dsp_util,
        ram_util=ram_util,
        fits=dsp_util <= 1.0 and ram_util <= 1.0,
    )


def precision_sweep(deployment) -> Dict[str, PrecisionProjection]:
    """Project all supported precisions for one deployment."""
    return {p: project_precision(deployment, p) for p in PRECISIONS}
