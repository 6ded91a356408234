"""Calibration constants of the AOC/Quartus model.

Every tunable of the offline-compiler model lives here, with the thesis
passage that motivates it.  The defaults are calibrated so the benchmark
suite reproduces the *shape* of the thesis's evaluation tables (see
EXPERIMENTS.md); they are not claims about the real toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AOCConstants:
    """Tunables of the synthesis/timing model."""

    # -- initiation intervals (Section 5.1.1) ---------------------------
    #: II of a reduction accumulating into a *global* scratchpad through a
    #: load-store unit.  The thesis quotes II=5 for the inner loop; its
    #: measured baselines behave worse (the read-add-write feedback path
    #: through the memory system serializes), so the model uses 8
    ii_global_accum: int = 8
    #: II once the accumulator is a register/local cache (single-cycle
    #: accumulator inferred; "AOC is now able to schedule ... with an II=1")
    ii_local_accum: int = 1

    # -- pipeline fill ----------------------------------------------------
    #: cycles paid on each entry into a non-unrolled loop (pipeline fill/
    #: drain); dominates kernels with short inner loops such as depthwise
    #: convolutions
    loop_fill_cycles: int = 18
    #: extra issue pressure per arbitration-sharing replicated LSU stream:
    #: effective II multiplier = max(1, replicas / lsu_ports)
    lsu_ports: int = 8
    #: ceiling on the replicated-stream arbitration stall (the arbiter
    #: tree pipelines beyond this width)
    max_mem_stall: int = 4

    # -- memory system ----------------------------------------------------
    #: usable fraction of theoretical peak bandwidth for aligned bursts
    bw_efficiency_aligned: float = 0.75
    #: usable fraction for non-aligned (symbolic-stride) burst-coalesced
    #: LSUs (Section 2.4.3: "many unaligned requests result in poor
    #: performance")
    bw_efficiency_nonaligned: float = 0.45
    #: BRAM cache attached to a cached burst-coalesced LSU ("often a 256
    #: kbit or 512 kbit cache"); bytes
    lsu_cache_bytes: int = 64 * 1024
    #: maximum single-LSU access width in elements (32-bit floats); wider
    #: requests are split
    max_lsu_width_elems: int = 64
    #: elements per cycle for pure data-movement kernels (pad/flatten):
    #: AOC's streaming LSUs burst simple sequential copies wider than one
    #: element even without explicit unrolling
    transform_simd_width: int = 4

    # -- resource model (per-unit ALUT/FF/RAM/DSP costs) ------------------
    #: fixed kernel overhead (dispatch, control)
    alut_kernel_base: int = 2000
    #: per-loop control/bound-check logic ("loops incur area overhead")
    alut_per_loop: int = 150
    #: burst-coalesced LSU base cost (control shared by replicas)
    alut_per_lsu: int = 1400
    #: datapath cost of each replicated stream beyond the first
    alut_per_replica: int = 3300
    #: ALUTs per element of LSU access width (widened datapaths)
    alut_per_width_elem: int = 40
    #: extra factor for non-aligned LSUs
    nonaligned_lsu_factor: float = 1.25
    #: per unrolled floating-point op datapath glue
    alut_per_unrolled_op: int = 26
    #: ALUTs per channel endpoint
    alut_per_channel: int = 150
    #: flip-flops per ALUT (registers roughly track logic)
    ff_per_alut: float = 2.0
    #: M20K block size in bits
    bram_block_bits: int = 20480
    #: RAM blocks per cached LSU (512-kbit cache)
    bram_per_cached_lsu: int = 26
    #: RAM blocks per (non-cached) burst-coalesced LSU burst buffer
    bram_per_lsu: int = 4
    #: RAM blocks per replicated *non-aligned* stream (reorder buffers)
    bram_per_nonaligned_replica: int = 12
    #: write-port replication divisor: concurrent writers per BRAM port
    bram_write_ports: int = 2
    #: DSPs per fused multiply-accumulate (-fpc -fp-relaxed packs one MAC
    #: per DSP, Section 4.10)
    dsp_per_mac: int = 1
    #: fixed DSPs per kernel (address/index arithmetic, fp compares)
    dsp_kernel_base: int = 8

    # -- fmax / routing model (Section 6.5) -------------------------------
    #: per-family base clock before degradation, MHz (set on the board)
    #: fmax drop per unit of DSP-utilization fraction (fanout of
    #: distributing operands to unrolled datapaths; slope calibrated to
    #: the thesis's Table 6.6 single-kernel sweep)
    fmax_dsp_slope: float = 0.45
    #: fmax drop per unit of (logic+RAM) congestion above the free level
    fmax_congestion_slope: float = 0.08
    #: fmax factor applied when any kernel carries a global-scratchpad
    #: accumulation feedback path (naive designs close timing worse)
    fmax_global_accum_factor: float = 0.82
    #: weight of replicated-LSU streams in the congestion metric
    congestion_replica_weight: float = 0.003

    # -- host/runtime overheads -------------------------------------------
    #: host-side cost to enqueue one kernel, microseconds
    enqueue_overhead_us: float = 28.0
    #: additional per-dispatch device-side launch latency for non-autorun
    #: kernels, microseconds
    launch_latency_us: float = 14.0


DEFAULT_CONSTANTS = AOCConstants()
