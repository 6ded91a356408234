"""Static performance advisor: the RP rule family (thesis workflow, §6).

The thesis's optimization loop is reading AOC's static reports — loop II
analysis, LSU inference, resource estimates — and rewriting the schedule
until the bottleneck moves.  This analyzer automates that reading: for
each lowered kernel it attributes the initiation-interval bottleneck to
the loop-carried dependence (naming the accumulation buffer, RP001) or
the memory arbiter (RP002), flags symbolic strides that defeat
compile-time alignment (RP003), computes reuse distance over the loop
tree to find reads whose working set thrashes the LSU cache (RP004), and
classifies each kernel compute- vs memory-bound against the board's
bandwidth roof, per folded binding set (RP005/RP006).

Every finding carries severity ``advice``: the build is *correct*, a
specific schedule rewrite would make it faster.  Advice never fails a
build; the catalog of fixes lives in ``docs/schedule_cookbook.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.aoc.analysis import Bindings, KernelAnalysis, analyze
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.device.boards import Board
from repro.errors import AOCError
from repro.ir.analysis import eval_int, reuse_distance
from repro.ir.kernel import Kernel
from repro.verify.diagnostics import Diagnostic, VerifyReport

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RP001", "RP002", "RP003", "RP004", "RP005", "RP006")


def roof_elems(board: Board, fmax_mhz: Optional[float] = None) -> int:
    """Max coalesced access width external memory can feed per cycle.

    The thesis's bandwidth-roof worked example: 34.1 GB/s at 250 MHz is
    ~136 bytes/cycle, about 32 floats.  Defaults to the board's base
    fmax — the clock the roof must hold at before synthesis refines it.
    """
    fmax = fmax_mhz if fmax_mhz is not None else board.base_fmax_mhz
    return max(1, int(board.peak_bw_gbs * 1e3 / fmax // 4))


def check_perf(
    kernel: Kernel,
    binding_sets: Optional[List[Bindings]],
    report: VerifyReport,
    board: Board,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> VerifyReport:
    """Run every RP rule over one lowered kernel.

    ``binding_sets`` supplies the distinct shape/stride parameterizations
    a folded plan actually invokes (like the bounds checker uses); the
    binding-dependent rules (RP004/RP005) are evaluated once per set and
    report the first set that triggers them.
    """
    try:
        an = analyze(kernel, constants)
    except AOCError:
        # a kernel the AOC model cannot analyze is the synthesize
        # stage's problem, not the advisor's
        return report
    report.bump("perf_kernels")
    emitted: Set[Tuple[str, str]] = set()

    def advise(
        rule: str, location: str, message: str,
        fix: Optional[Dict[str, object]] = None,
    ) -> None:
        if (rule, location) in emitted:
            return
        emitted.add((rule, location))
        report.extend([
            Diagnostic(rule, "advice", message, kernel.name, location,
                       fix=fix)
        ])

    _check_ii(an, advise)
    _check_lsus(an, board, advise)
    sets: List[Optional[Bindings]] = (
        list(binding_sets) if binding_sets else [None]
    )
    if not kernel.is_parameterized or binding_sets:
        _check_reuse(an, constants, sets, advise)
        _check_roofline(an, board, report, sets, advise)
    return report


# ---------------------------------------------------------------------------
# RP001 / RP002: initiation-interval attribution


def _check_ii(an: KernelAnalysis, advise) -> None:
    for rec in an.ii_attribution():
        loop, ii, buf = rec["loop"], rec["ii"], rec["buffer"]
        if rec["cause"] == "dependence":
            advise(
                "RP001", str(loop),
                f"loop {loop} runs at II={ii}: the accumulation into "
                f"{rec['scope']} buffer '{buf}' is a loop-carried "
                f"dependence re-read every iteration; cache the "
                f"accumulator in a register (cache_write('register'), "
                f"thesis §5.1.1) and write back once after the loop",
                fix={"transform": "cache_write",
                     "args": {"scope": "register"}},
            )
        else:
            advise(
                "RP002", str(loop),
                f"loop {loop} stalls at II={ii}: replicated load streams "
                f"for '{buf}' contend in the memory arbiter; make the "
                f"unrolled dimension's stride a compile-time constant so "
                f"the streams coalesce into one wide LSU",
                fix={"transform": "shrink", "dim": "c1vec"},
            )


# ---------------------------------------------------------------------------
# RP003 / RP006: LSU shape


def _symbolic_innermost_stride(buffer) -> bool:
    """True when the buffer's innermost stride is a runtime value.

    This is precisely what ``pin_unit_stride`` fixes: a symbolic
    innermost stride defeats coalescing of the contiguous dimension.
    Symbolic *outer* strides are inherent to parameterized kernels and
    pinning cannot remove them, so they must not trigger RP003.
    """
    if buffer.strides is None:
        return False
    s = buffer.strides[-1]
    return not isinstance(s, int) and eval_int(s) is None


def _check_lsus(an: KernelAnalysis, board: Board, advise) -> None:
    roof = roof_elems(board)
    for site in an.sites:
        if _symbolic_innermost_stride(site.buffer):
            advise(
                "RP003", site.buffer.name,
                f"access to '{site.buffer.name}' has a symbolic innermost "
                f"stride, so AOC cannot coalesce it and burst efficiency "
                f"drops (~{int(100 * an.c.bw_efficiency_nonaligned)}% of "
                f"peak vs ~{int(100 * an.c.bw_efficiency_aligned)}%); pin "
                f"the innermost stride to 1 (pin_unit_stride, Listing 5.11)",
                fix={"transform": "pin_unit_stride"},
            )
    for lsu in an.lsus:
        if lsu.width_elems > roof:
            advise(
                "RP006", lsu.buffer_name,
                f"coalesced access to '{lsu.buffer_name}' is "
                f"{lsu.width_elems} elements wide but {board.name}'s "
                f"memory feeds only ~{roof} elements/cycle at "
                f"{board.base_fmax_mhz:.0f} MHz; the extra width only "
                f"adds logic — reduce the unroll along this dimension",
                fix={"transform": "shrink", "dim": "widest"},
            )


# ---------------------------------------------------------------------------
# RP004: reuse distance vs the LSU cache


def _check_reuse(
    an: KernelAnalysis,
    constants: AOCConstants,
    sets: List[Optional[Bindings]],
    advise,
) -> None:
    for site, lsu in an.lsu_sites:
        if site.is_store or not lsu.cached:
            continue
        for b in sets:
            n = site.buffer.num_elements(b)
            if n is None:
                continue
            unique = n * 4
            if unique <= constants.lsu_cache_bytes:
                continue
            dist = reuse_distance(site.form, site.serial, b)
            shown = (
                f" (reuse distance {dist} elements)" if dist is not None else ""
            )
            advise(
                "RP004", site.buffer.name,
                f"'{site.buffer.name}' is re-read across iterations but "
                f"its {unique} B working set exceeds the "
                f"{constants.lsu_cache_bytes} B LSU cache{shown}, so the "
                f"re-reads go to DRAM; tile the reuse loop or stage a "
                f"block in local memory (cache_read)",
                fix={"transform": "cache_read",
                     "input": site.buffer.name},
            )
            break


# ---------------------------------------------------------------------------
# RP005: compute- vs memory-bound classification


def _check_roofline(
    an: KernelAnalysis,
    board: Board,
    report: VerifyReport,
    sets: List[Optional[Bindings]],
    advise,
) -> None:
    if an.is_pure_transform():
        # pad / flatten move data by construction; "memory-bound" is
        # not actionable advice for them
        return
    bytes_per_cycle = (
        board.peak_bw_gbs * 1e3 / board.base_fmax_mhz * an.bw_efficiency()
    )
    memory_bound = False
    for b in sets:
        try:
            compute = an.compute_cycles(b)
            mem = an.traffic_bytes(b) / bytes_per_cycle
        except AOCError:
            continue
        if mem > compute:
            memory_bound = True
            label = _binding_label(b)
            advise(
                "RP005", label,
                f"memory-bound on {board.name} for binding {label}: "
                f"~{int(mem)} DRAM cycles vs {compute} compute cycles at "
                f"{board.base_fmax_mhz:.0f} MHz; more unrolling cannot "
                f"help — reduce traffic (cache reuse, fuse the epilogue) "
                f"or pick a board with more bandwidth",
                fix={"transform": "shrink", "dim": "widest"},
            )
            break
    report.bump(
        "kernels_memory_bound" if memory_bound else "kernels_compute_bound"
    )


def _binding_label(b: Optional[Bindings]) -> str:
    if not b:
        return "static"
    dims = sorted(
        (v.name, c) for v, c in b.items() if v.name.startswith("n_")
    ) or sorted((v.name, c) for v, c in b.items())
    return ",".join(f"{n}={c}" for n, c in dims)
