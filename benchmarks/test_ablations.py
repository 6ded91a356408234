"""Ablation benches for the design choices DESIGN.md calls out.

1. **Stride pinning** (Listing 5.11): parameterized kernels without the
   explicit unit-stride workaround lose access coalescing.
2. **Tiling DSE** (Section 4.11 / future work): the automatic explorer
   versus the thesis's hand-picked configurations.
3. **Quantization projection** (Section 8.1 future work): int16/int8
   DSP packing and footprint relief.
4. **Channels/autorun/CE decomposition**: how much of LeNet's speedup
   each runtime optimization contributes.
"""

import pytest
from conftest import fmt_table, save_table

from repro.device import ARRIA10, STRATIX10_SX
from repro.flow import (
    build_folded,
    choose_tiling,
    default_folded_config,
    deploy_folded,
    deploy_pipelined,
    sweep_conv1x1,
)
from repro.aoc import compile_program
from repro.models import mobilenet_v1
from repro.perf import precision_sweep
from repro.relay import fuse_operators
from repro.runtime import simulate_folded


def test_ablation_stride_pinning(benchmark):
    """Removing the Listing 5.11 workaround slows the folded deployment."""

    def run():
        out = {}
        for pin in (True, False):
            cfg = default_folded_config("mobilenet_v1", STRATIX10_SX)
            cfg.pin_unit_stride = pin
            fused = fuse_operators(mobilenet_v1())
            prog, plan = build_folded(fused, cfg, STRATIX10_SX)
            bs = compile_program(prog, STRATIX10_SX, strict_fit=False)
            out[pin] = simulate_folded(bs, plan).fps
        return out

    fps = benchmark.pedantic(run, rounds=1, iterations=1)
    text = fmt_table(
        "Ablation: Listing 5.11 stride pinning (MobileNet, S10SX)",
        ["variant", "FPS"],
        [["pinned (thesis workaround)", f"{fps[True]:.1f}"],
         ["symbolic strides (uncoalesced)", f"{fps[False]:.1f}"]],
    )
    save_table("ablation_stride_pinning", text)
    assert fps[True] > 1.2 * fps[False]


def test_ablation_dse_vs_manual(benchmark):
    """The automatic explorer finds a config at least as good as the
    thesis's hand-picked one (within model noise)."""

    def run():
        fused = fuse_operators(mobilenet_v1())
        manual = deploy_folded("mobilenet_v1", ARRIA10).fps()
        points = sweep_conv1x1(
            fused, ARRIA10,
            c2vec_options=(4, 8, 16, 32),
            c1vec_options=(4, 8, 16),
        ).points
        best = choose_tiling(points)
        return manual, best

    manual, best = benchmark.pedantic(run, rounds=1, iterations=1)
    w2, c2, c1 = best.tiling.w2vec, best.tiling.c2vec, best.tiling.c1vec
    text = fmt_table(
        "Ablation: tiling DSE vs thesis manual config (MobileNet, A10; "
        "thesis manual = 7/8/8)",
        ["config", "FPS"],
        [["manual 7/8/8", f"{manual:.1f}"],
         [f"DSE best {w2}/{c2}/{c1}", f"{best.fps:.1f}"]],
    )
    save_table("ablation_dse", text)
    assert best.fps >= 0.95 * manual


def test_ablation_quantization(benchmark):
    """Reduced precision relieves the thesis's DSP/LSU limits (§8.1)."""

    def run():
        d = deploy_folded("mobilenet_v1", STRATIX10_SX)
        return precision_sweep(d)

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [p, f"{proj.fps:.1f}", f"{proj.speedup_vs_fp32:.2f}x",
         f"{proj.dsp_util:.0%}", f"{proj.ram_util:.0%}", proj.fits]
        for p, proj in sweep.items()
    ]
    text = fmt_table(
        "Ablation: precision projection (MobileNet, S10SX)",
        ["precision", "FPS", "speedup", "DSP", "RAM", "fits"],
        rows,
    )
    save_table("ablation_quantization", text)
    assert sweep["int16"].fps > 1.3 * sweep["fp32"].fps
    assert sweep["int8"].fps > sweep["int16"].fps
    assert sweep["int8"].dsp_util < sweep["fp32"].dsp_util


def test_ablation_runtime_optimizations(benchmark):
    """Decompose LeNet's speedup into schedule vs runtime contributions."""

    def run():
        out = {}
        for level in ("base", "unroll", "channels", "autorun", "tvm_autorun"):
            d = deploy_pipelined("lenet5", STRATIX10_SX, level)
            out[level] = {
                "serial": d.fps(concurrent=False),
                "ce": d.fps(concurrent=True),
            }
        return out

    fps = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [lv, f"{v['serial']:.0f}", f"{v['ce']:.0f}",
         f"{v['ce'] / fps['base']['serial']:.1f}x"]
        for lv, v in fps.items()
    ]
    text = fmt_table(
        "Ablation: LeNet speedup decomposition (S10SX, vs base serial)",
        ["level", "serial FPS", "CE FPS", "cumulative"],
        rows,
    )
    save_table("ablation_runtime_opts", text)
    # concurrent execution's contribution is largest for channel designs
    gain_base = fps["base"]["ce"] / fps["base"]["serial"]
    gain_chan = fps["channels"]["ce"] / fps["channels"]["serial"]
    assert gain_chan > gain_base


def test_ablation_winograd(benchmark):
    """Winograd F(2x2,3x3) what-if (§6.6): on our memory-bound ResNet
    kernels the 2.25x multiplication saving is eaten by the 16/9 weight-
    traffic inflation — quantifying why the thesis implements direct
    convolutions."""
    from repro.perf import project_winograd

    def run():
        return {
            net: project_winograd(deploy_folded(net, STRATIX10_SX))
            for net in ("resnet18", "resnet34", "mobilenet_v1")
        }

    projections = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [net, f"{p.fps_direct:.2f}", f"{p.fps_winograd:.2f}",
         f"{p.speedup:.2f}x", f"{p.eligible_time_share:.0%}"]
        for net, p in projections.items()
    ]
    text = fmt_table(
        "Ablation: Winograd 3x3 projection (S10SX) — direct vs F(2x2,3x3)",
        ["network", "direct FPS", "winograd FPS", "speedup", "eligible time"],
        rows,
    )
    save_table("ablation_winograd", text)
    # MobileNet has no eligible layers; ResNet gains are bounded by memory
    assert projections["mobilenet_v1"].speedup == pytest.approx(1.0)
    for net in ("resnet18", "resnet34"):
        assert projections[net].speedup < 2.25


def test_ablation_channel_depth(benchmark):
    """Channel FIFO depth (§4.6/§4.11): the thesis sizes every channel to
    the producer's whole OFM so producers never stall; shallower FIFOs
    trade BRAM for back-pressure stalls."""
    from repro.aoc import compile_program
    from repro.flow import build_pipelined
    from repro.models import lenet5
    from repro.relay import fuse_operators
    from repro.runtime import simulate_pipelined

    def run():
        fused = fuse_operators(lenet5())
        out = {}
        for scale in (1.0, 0.5, 0.25, 0.0):
            prog, plan = build_pipelined(
                fused, "tvm_autorun", STRATIX10_SX, channel_depth_scale=scale
            )
            bs = compile_program(prog, STRATIX10_SX)
            r = simulate_pipelined(bs, plan, concurrent=True)
            out[scale] = (r.fps, bs.utilization()["ram"])
        return out

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"x{scale}", f"{fps:.0f}", f"{ram:.1%}"]
        for scale, (fps, ram) in sweep.items()
    ]
    text = fmt_table(
        "Ablation: channel FIFO depth (LeNet, S10SX; x1.0 = thesis's "
        "OFM-sized rule)",
        ["depth scale", "FPS", "BRAM"],
        rows,
    )
    save_table("ablation_channel_depth", text)
    # the thesis's sizing rule is the fastest point
    assert sweep[1.0][0] >= sweep[0.25][0] >= sweep[0.0][0]
    # and costs (slightly) more BRAM than register channels
    assert sweep[1.0][1] >= sweep[0.0][1]
