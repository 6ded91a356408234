"""Winograd what-if projection over compiled deployments (§6.6 follow-up).

Projects how a deployment's single-stride 3x3 convolutions would perform
if their kernels used the Winograd F(2x2, 3x3) algorithm (as DiCecco et
al.'s engine does): per invocation the compute time divides by the 2.25x
multiplication reduction while the weight traffic grows 16/9.  Other
kernels are untouched — Winograd does not apply to them, which is the
thesis's stated reason for implementing direct convolutions instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ReproError
from repro.nn.winograd import winograd_savings

_MUL_REDUCTION = 2.25
_WEIGHT_OVERHEAD = 16.0 / 9.0


@dataclass
class WinogradProjection:
    """Projected effect of Winograd 3x3 kernels on one deployment."""

    fps_direct: float
    fps_winograd: float
    speedup: float
    eligible_time_share: float  #: runtime share of 1-stride 3x3 convs
    weight_storage_overhead: float = _WEIGHT_OVERHEAD


def project_winograd(deployment) -> WinogradProjection:
    """Project a folded deployment onto Winograd 3x3 convolutions."""
    if deployment.mode != "folded":
        raise ReproError("Winograd projection applies to folded deployments")
    bs = deployment.bitstream
    base = deployment.run()

    device_us = 0.0
    eligible_us = 0.0
    total_us = 0.0
    for inv in deployment.plan.invocations:
        t_compute, t_mem = bs.kernel_roofline_us(inv.kernel_name, inv.bindings)
        t = max(t_compute, t_mem)
        total_us += t
        if inv.op_label == "3x3 conv S=1":
            eligible_us += t
            t = max(t_compute / _MUL_REDUCTION, t_mem * _WEIGHT_OVERHEAD)
        device_us += t

    host_and_io = base.host_overhead_us + base.write_us + base.read_us
    fps_w = 1e6 / (device_us + host_and_io)
    return WinogradProjection(
        fps_direct=base.fps,
        fps_winograd=fps_w,
        speedup=fps_w / base.fps,
        eligible_time_share=eligible_us / total_us if total_us else 0.0,
    )


def layer_accounting(deployment) -> Dict[str, Dict[str, float]]:
    """Per-eligible-layer Winograd multiplication/storage accounting."""
    out: Dict[str, Dict[str, float]] = {}
    for fn in deployment.fused:
        if fn.op != "conv2d":
            continue
        a = fn.anchor.attrs
        if a["field"] != 3 or a["stride"] != 1:
            continue
        c1 = fn.anchor.inputs[0].out_shape[0]
        k, ho, wo = fn.anchor.out_shape
        out[fn.name] = winograd_savings(c1, k, ho, wo)
    return out
