#!/usr/bin/env python3
"""Tiling design-space exploration (thesis Section 4.11 / Table 6.6).

Sweeps pointwise-convolution tilings on the Arria 10 under the thesis's
three requirements (bandwidth roof, divisibility, fit/route), then runs
the whole-network greedy auto-tuner the thesis leaves to future work and
compares it with the hand-picked configuration.

Run:  python examples/tiling_explorer.py
"""

from repro.device import ARRIA10
from repro.flow import (
    autotune_folded,
    bandwidth_roof_elems,
    choose_tiling,
    deploy_folded,
    sweep_conv1x1,
)
from repro.models import mobilenet_v1
from repro.relay import fuse_operators
from repro.viz import bar_chart


def main() -> None:
    fused = fuse_operators(mobilenet_v1())
    board = ARRIA10

    roof = bandwidth_roof_elems(board, 250.0)
    print(f"bandwidth roof on the {board.name} @250 MHz: {roof} floats/cycle")
    print("(thesis: 'the factor should not exceed 32 for the Arria 10')\n")

    print("sweeping 1x1-conv tilings (w2vec=7; c2vec, c1vec vary)...")
    points = sweep_conv1x1(
        fused, board, c2vec_options=(4, 8, 16, 32), c1vec_options=(4, 8, 16)
    ).points
    labels, values = [], []
    for p in points:
        tag = f"{p.tiling.w2vec}/{p.tiling.c2vec}/{p.tiling.c1vec}"
        if p.feasible:
            labels.append(f"{tag} ({p.dsps} DSP, {p.fmax_mhz:.0f} MHz)")
            values.append(p.fps)
        else:
            reason = "route" if not p.routed else "fit"
            labels.append(f"{tag} [{reason} FAIL]")
            values.append(0.0)
    print(bar_chart("MobileNet FPS per 1x1 tiling (A10)", labels, values,
                    fmt="{:.1f}"))

    best = choose_tiling(points)
    t = best.tiling
    print(f"\nbest feasible point: {t.w2vec}/{t.c2vec}/{t.c1vec} "
          f"at {best.fps:.1f} FPS (thesis's manual pick: 7/8/8)")

    print("\nrunning the whole-network greedy auto-tuner...")
    result = autotune_folded(fused, board, max_rounds=2)
    manual = deploy_folded("mobilenet_v1", board).fps()
    print(f"auto-tuned: {result.fps:.1f} FPS after {result.evaluations} "
          f"evaluations (manual config: {manual:.1f} FPS)")
    for gid, tiling, fps in result.history[-5:]:
        print(f"  accepted {gid}: {tiling.w2vec}/{tiling.c2vec}/"
              f"{tiling.c1vec} -> {fps:.1f} FPS")


if __name__ == "__main__":
    main()
