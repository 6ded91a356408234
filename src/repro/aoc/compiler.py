"""The offline-compiler model: kernels -> synthesized bitstream.

``compile_program`` plays the role of ``aoc``: it analyzes every kernel,
estimates resources, checks fit against the target board (raising
:class:`~repro.errors.FitError` exactly where the thesis's naive
MobileNet/ResNet designs fail on the Arria 10), runs the timing/routing
model (raising :class:`~repro.errors.RoutingError` for over-tiled
designs), and returns a :class:`Bitstream` whose per-kernel handles the
runtime simulator uses to cost invocations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.aoc.analysis import Bindings, KernelAnalysis, analyze
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.aoc.fmax import TimingReport, timing
from repro.aoc.resources import ResourceEstimate, channel_rams, estimate_kernel
from repro.device.boards import Board
from repro.errors import AOCError, FitError, RoutingError, RuntimeSimError
from repro.ir.kernel import Kernel, Program


@dataclass
class HwKernel:
    """One synthesized kernel: its analysis + resource estimate."""

    kernel: Kernel
    analysis: KernelAnalysis
    resources: ResourceEstimate


class Bitstream:
    """A fitted, routed design for one board."""

    def __init__(
        self,
        program: Program,
        board: Board,
        hw: Dict[str, HwKernel],
        total: ResourceEstimate,
        timing_report: TimingReport,
        constants: AOCConstants,
    ) -> None:
        self.program = program
        self.board = board
        self.hw = hw
        self.total = total
        self.timing = timing_report
        self.constants = constants

    @property
    def fmax_mhz(self) -> float:
        return self.timing.fmax_mhz

    # ------------------------------------------------------------------
    def utilization(self) -> Dict[str, float]:
        """Whole-chip utilization fractions (static partition included),
        as the thesis's fitter-report tables count them."""
        b = self.board
        return {
            "logic": (self.total.aluts + b.static_aluts) / b.aluts,
            "ram": (self.total.rams + b.static_rams) / b.rams,
            "dsp": self.total.dsps / b.dsps,
        }

    # ------------------------------------------------------------------
    def hw_kernel(self, name: str) -> HwKernel:
        """The synthesized kernel named ``name``.

        Raises :class:`~repro.errors.RuntimeSimError` (not a bare
        ``KeyError``) for an unknown name, listing what the bitstream
        actually provides — the failure a bad host program hits first.
        """
        try:
            return self.hw[name]
        except KeyError:
            raise RuntimeSimError(
                f"bitstream {self.program.name!r} has no kernel {name!r}; "
                f"available kernels: {', '.join(sorted(self.hw)) or '(none)'}"
            ) from None

    def kernel_cycles(self, name: str, bindings: Optional[Bindings] = None) -> int:
        return self.hw_kernel(name).analysis.compute_cycles(bindings)

    def kernel_roofline_us(
        self, name: str, bindings: Optional[Bindings] = None
    ) -> Tuple[float, float]:
        """``(t_compute, t_mem)`` of one invocation, microseconds.

        Compute is the issue cycles at fmax (a pure transform's divided
        by the transform SIMD width); memory is the DRAM traffic at peak
        bandwidth times this kernel's LSU efficiency.
        """
        an = self.hw_kernel(name).analysis
        cycles = an.compute_cycles(bindings)
        if an.is_pure_transform():
            cycles = cycles / self.constants.transform_simd_width
        bw_bytes_per_us = self.board.peak_bw_gbs * an.bw_efficiency() * 1e3
        # MHz -> us
        return cycles / self.fmax_mhz, an.traffic_bytes(bindings) / bw_bytes_per_us

    def kernel_time_us(self, name: str, bindings: Optional[Bindings] = None) -> float:
        """Device-side execution time of one invocation, microseconds:
        the larger side of :meth:`kernel_roofline_us`."""
        return max(self.kernel_roofline_us(name, bindings))

    def kernel_flops(self, name: str, bindings: Optional[Bindings] = None) -> int:
        return self.hw_kernel(name).analysis.flops(bindings)

    def __repr__(self) -> str:
        u = self.utilization()
        return (
            f"Bitstream({self.program.name}@{self.board.name}: "
            f"logic {u['logic']:.0%}, ram {u['ram']:.0%}, dsp {u['dsp']:.0%}, "
            f"fmax {self.fmax_mhz:.0f} MHz)"
        )


def _seed_relief(program_name: str, board_name: str, seed: int) -> float:
    """Congestion relief a fresh placement seed buys, in [0, 0.08].

    Deterministic per (program, board, seed); seed 0 — the default
    placement — gets no relief, so baseline behaviour is unchanged.
    Relief is one-sided: a new seed can rescue a marginal design but
    never breaks one that already routes (optimistic vs. real Quartus,
    where seeds cut both ways, but it keeps recovery monotone).
    """
    if seed == 0:
        return 0.0
    rng = random.Random(f"placement:{program_name}:{board_name}:{seed}")
    return rng.uniform(0.0, 0.08)


def _injected_synth_fault(program: Program, board: Board) -> None:
    """Probe the active fault plan at the synthesize boundary."""
    from repro.resilience.faults import probe  # local: avoids import cycle

    fault = probe("synthesize", program.name)
    if fault is None:
        return
    if fault.kind == "routing":
        err: AOCError = RoutingError(
            f"injected: routing failure for {program.name} on {board.name} "
            f"(placement congestion, fault plan)"
        )
    elif fault.kind == "fit":
        err = FitError(
            f"injected: fit failure for {program.name} on {board.name} "
            f"(fault plan)"
        )
    else:
        err = AOCError(
            f"injected: offline-compiler crash while synthesizing "
            f"{program.name} (fault plan)"
        )
    err.transient = fault.transient
    err.injected = True
    raise err


def compile_program(
    program: Program,
    board: Board,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    strict_fit: bool = True,
    placement_seed: int = 0,
) -> Bitstream:
    """Synthesize a program for a board (the ``aoc`` invocation).

    Raises :class:`FitError` when the design exceeds board resources and
    :class:`RoutingError` when congestion defeats the router.  Pass
    ``strict_fit=False`` to obtain the bitstream object anyway (used by
    area-exploration benches to report the failure point).

    ``placement_seed`` models Quartus's ``-seed``: a non-zero seed
    re-randomizes placement, which can relieve marginal routing
    congestion (see :func:`_seed_relief`).  Structural failures — fit
    overflows and single-kernel fanout — are seed-independent, exactly
    as on real hardware.
    """
    program.validate_channels()
    _injected_synth_fault(program, board)
    hw: Dict[str, HwKernel] = {}
    total = ResourceEstimate()
    replicas = 0
    for kernel in program.kernels:
        analysis = analyze(kernel, constants)
        res = estimate_kernel(analysis, constants)
        hw[kernel.name] = HwKernel(kernel, analysis, res)
        total = total + res
        replicas += analysis.excess_lsu_replicas()
    for ch in program.all_channels():
        total = total + ResourceEstimate(
            aluts=2 * constants.alut_per_channel,
            ffs=4 * constants.alut_per_channel,
            rams=channel_rams(ch.depth, constants),
        )

    report = timing(total, board, replicas, constants)
    # single-kernel fanout: distributing operands into one kernel's
    # replicated datapath stresses routing independently of total area
    # (Section 6.5's 7/16/8-on-S10SX failure)
    max_fanout = max((h.analysis.dsp_count() for h in hw.values()), default=0)
    if max_fanout > board.max_kernel_fanout:
        report = TimingReport(
            fmax_mhz=report.fmax_mhz, congestion=report.congestion, routed=False
        )
    # designs with global-scratchpad accumulation feedback close timing
    # noticeably worse (observed across the thesis's base rows); scale the
    # penalty by how much of the design carries such feedback paths
    n_feedback = sum(
        1
        for hwk in hw.values()
        if any(
            node.ii_dep >= constants.ii_global_accum
            for node in hwk.analysis.loops.values()
        )
    )
    if n_feedback and hw:
        frac = (n_feedback / len(hw)) ** 0.5
        factor = 1.0 - (1.0 - constants.fmax_global_accum_factor) * frac
        report = TimingReport(
            fmax_mhz=report.fmax_mhz * factor,
            congestion=report.congestion,
            routed=report.routed,
        )
    # placement-seed sweep: a new seed can relieve marginal congestion,
    # but never fixes a fanout (structural) routing failure
    if (
        placement_seed
        and not report.routed
        and max_fanout <= board.max_kernel_fanout
    ):
        relieved = report.congestion * (
            1.0 - _seed_relief(program.name, board.name, placement_seed)
        )
        if relieved <= board.routing_threshold:
            report = TimingReport(
                fmax_mhz=report.fmax_mhz, congestion=relieved, routed=True
            )
    bitstream = Bitstream(program, board, hw, total, report, constants)

    if strict_fit:
        b = board
        failures = []
        if total.aluts > b.avail_aluts:
            failures.append(
                f"logic {total.aluts} > {b.avail_aluts} available ALUTs"
            )
        if total.rams > b.avail_rams:
            failures.append(f"RAM {total.rams} > {b.avail_rams} available M20Ks")
        if total.dsps > b.avail_dsps:
            failures.append(f"DSP {total.dsps} > {b.avail_dsps} available DSPs")
        if total.ffs > b.avail_ffs:
            failures.append(f"FF {total.ffs} > {b.avail_ffs} available FFs")
        if failures:
            raise FitError(
                f"{program.name} does not fit on {b.name}: " + "; ".join(failures)
            )
        if not report.routed:
            raise RoutingError(
                f"{program.name} on {b.name}: routing fails (congestion "
                f"{report.congestion:.2f} vs threshold "
                f"{b.routing_threshold:.2f}, max kernel fanout {max_fanout} "
                f"vs {b.max_kernel_fanout})"
            )
    return bitstream
