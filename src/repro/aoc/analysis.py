"""Static analysis of kernel IR: the front half of the AOC model.

For each kernel this derives, once, from the kernel's access table
(:func:`repro.ir.analysis.access_table`, the walk the verifier's bounds
and race checks read too):

* the loop tree with dependence-based initiation intervals (II) —
  accumulation into a global scratchpad gives II=5, into a register II=1
  (thesis Section 5.1.1);
* global-memory access sites and the load-store units (LSUs) AOC would
  infer for them: access width from coalescible unrolled dimensions,
  replication for non-coalescible ones, alignment from whether strides
  are compile-time constants (Sections 2.4.3, 5.3);
* the spatial flops behind the DSP count and the pure-transform flag;
* evaluators for cycle count, FLOPs and DRAM traffic as functions of the
  symbolic-shape bindings, used by the runtime simulator per invocation,
  each computed once per binding set by folding the table's ``nest``.

The model reads the table's strides and nest, never the statement tree.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import AOCError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import (
    AccessSite,
    Bindings,
    access_table,
    eval_int,
    free_vars,
    fully_unrolled,
)
from repro.ir.kernel import Kernel
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS


@dataclass
class LSU:
    """A load-store unit inferred for an access site."""

    buffer_name: str
    is_store: bool
    width_elems: int
    replicas: int
    aligned: bool
    cached: bool

    @property
    def width_bits(self) -> int:
        return self.width_elems * 32


@dataclass
class LoopNode:
    """Analysis record of one For statement."""

    stmt: _s.For
    ii_dep: int = 1
    ii_mem: int = 1
    #: buffer whose loop-carried dependence sets ``ii_dep`` (None if 1)
    ii_dep_buffer: Optional[str] = None
    #: memory scope of that buffer ("global" / "local" / "register")
    ii_dep_scope: Optional[str] = None
    #: buffer whose replicated LSU streams set ``ii_mem`` (None if 1)
    ii_mem_buffer: Optional[str] = None

    @property
    def ii(self) -> int:
        return max(self.ii_dep, self.ii_mem)

    @property
    def bottleneck(self) -> Optional[str]:
        """What limits this loop: 'dependence', 'memory', or None."""
        if self.ii <= 1:
            return None
        return "dependence" if self.ii_dep >= self.ii_mem else "memory"


def analyze(
    kernel: Kernel, constants: AOCConstants = DEFAULT_CONSTANTS
) -> "KernelAnalysis":
    """The kernel's :class:`KernelAnalysis`, built once per kernel object
    and constants: the verifier's performance advisor and the offline
    compiler of one build share it."""
    key = (KernelAnalysis, constants)
    analysis = kernel.derived.get(key)
    if analysis is None:
        analysis = kernel.derived[key] = KernelAnalysis(kernel, constants)
        # the memo lives on the kernel, so its back-reference is weak:
        # kernel and analysis free together, without the cyclic collector
        analysis._kernel = weakref.ref(kernel)
    return analysis


class KernelAnalysis:
    """All static facts about a kernel, plus binding-parameterized costs."""

    def __init__(self, kernel: Kernel, constants: AOCConstants = DEFAULT_CONSTANTS) -> None:
        self._kernel = kernel
        self.c = constants
        table = access_table(kernel)
        self.loops: Dict[int, LoopNode] = {}
        for loop in table.loops:
            if fully_unrolled(loop) and loop.static_extent is None:
                raise AOCError(
                    f"kernel {kernel.name}: fully-unrolled loop "
                    f"{loop.loop_var.name} has a non-constant bound"
                )
            self.loops[id(loop)] = LoopNode(loop)
        self.loop_count = len(table.loops)
        self.channel_ops = table.kinds[_e.ChannelRead] + table.kinds[_s.ChannelWrite]
        self.uses_select = table.kinds[_e.Select] > 0
        self.uses_mod = table.kinds[_e.Mod] > 0
        self._scalar_args = set(kernel.scalar_args)
        self.sites: List[AccessSite] = table.sites
        #: the global-memory sites with the LSU inferred for each
        self.lsu_sites: List[Tuple[AccessSite, LSU]] = [
            (site, self._infer_lsu(site))
            for site in self.sites if site.buffer.scope == "global"
        ]
        self.lsus: List[LSU] = [lsu for _, lsu in self.lsu_sites]
        self._assign_dep_ii()
        self._assign_mem_ii()
        self._nest = table.nest
        # spatial flops: an unrolled loop replicates its body, and both
        # arms of a conditional are built in hardware
        stack: List[int] = []
        for tag, arg in self._nest:
            if tag == "leaf":
                stack.append(arg)
            elif tag == "loop":
                if arg.kind is _s.ForKind.UNROLLED:
                    stack[-1] *= arg.unroll_factor or arg.static_extent or 1
            else:
                k = len(stack) - arg
                stack[k:] = [sum(stack[k:])]
        #: flops of the replicated datapath, independent of bindings
        self.spatial_flops: int = stack.pop()
        #: binding set -> {"cycles"/"flops"/"traffic": value}
        self._costs: Dict[FrozenSet[Tuple[_e.Var, int]], Dict[str, int]] = {}

    @property
    def kernel(self) -> Kernel:
        """The analyzed kernel; an analysis memoized by :func:`analyze`
        holds it weakly, so keep the kernel while using the analysis."""
        kernel = self._kernel
        if isinstance(kernel, weakref.ref):
            kernel = kernel()
            if kernel is None:
                raise AOCError("kernel analysis used after its kernel was freed")
        return kernel

    def __reduce__(self):
        # ``loops`` is keyed by id(stmt), which does not survive a
        # pickle round-trip (the persistent compile cache); re-analyze
        # from (kernel, constants) — deterministic and cheap — instead
        # of restoring stale ids.
        return (analyze, (self.kernel, self.c))

    # ------------------------------------------------------------------
    # LSU inference
    def _infer_lsu(self, site: AccessSite) -> LSU:
        # Coalesce unrolled dimensions while they extend a contiguous span
        # (stride <= current span); otherwise replicate the LSU — this is
        # what produces "C1vec x F LSUs for I" in thesis Section 5.1.1.
        strided: List[Tuple[int, int]] = []  # (|stride|, extent)
        replicas = 1
        aligned = True
        for var, extent in site.unrolled:
            s = site.strides[var]
            if s is None:
                replicas *= extent
                aligned = False
            elif s != 0:
                strided.append((abs(s), extent))
        span = 1
        for stride, extent in sorted(strided):
            if stride <= span:
                span += (extent - 1) * stride
            else:
                replicas *= extent
        if span > self.c.max_lsu_width_elems:
            replicas *= math.ceil(span / self.c.max_lsu_width_elems)
            span = self.c.max_lsu_width_elems
        # symbolic strides in the index defeat compile-time alignment
        if free_vars(site.index) & self._scalar_args:
            aligned = False
        # AOC infers a cache when the access pattern "seems repetitive"
        # (Section 2.4.3): a read re-issued across serial loops that do
        # not advance the address.  Tiny operands (biases, scalars) live
        # in registers instead of earning a BRAM cache.
        cached = not site.is_store and site.buffer.name in self.kernel.cached_reads
        if not site.is_store and not cached:
            repetitive = any(site.strides[var] == 0 for var, _ in site.serial)
            n = site.buffer.num_elements()
            substantial = n is None or n * 4 >= 2048
            cached = repetitive and substantial
        return LSU(
            site.buffer.name,
            site.is_store,
            span,
            replicas,
            aligned,
            cached,
        )

    # ------------------------------------------------------------------
    # dependence-based II
    def _assign_dep_ii(self) -> None:
        for site in self.sites:
            if not site.accumulates:
                continue
            # innermost enclosing serial loop whose var does not advance
            # the accumulator address carries the dependence; trip-1 loops
            # collapse away and cannot carry it
            for loop in reversed(site.loops):
                if fully_unrolled(loop) or loop.static_extent == 1:
                    continue
                if site.strides[loop.loop_var] == 0:
                    ii = (
                        self.c.ii_global_accum
                        if site.buffer.scope == "global"
                        else self.c.ii_local_accum
                    )
                    node = self.loops[id(loop)]
                    if ii > node.ii_dep:
                        node.ii_dep = ii
                        node.ii_dep_buffer = site.buffer.name
                        node.ii_dep_scope = site.buffer.scope
                    break

    # ------------------------------------------------------------------
    # memory-arbitration II: replicated read streams share LSU ports
    def _assign_mem_ii(self) -> None:
        for site, lsu in self.lsu_sites:
            # aligned (compile-time-analyzable) replicas schedule cleanly;
            # non-aligned replicated streams contend in the arbiter
            if lsu.is_store or lsu.replicas <= 1 or lsu.aligned:
                continue
            stall = min(
                self.c.max_mem_stall, math.ceil(lsu.replicas / self.c.lsu_ports)
            )
            if stall <= 1 or not site.serial:
                continue
            inner_var = site.serial[-1][0]
            for node in self.loops.values():
                if node.stmt.loop_var is inner_var and stall > node.ii_mem:
                    node.ii_mem = stall
                    node.ii_mem_buffer = lsu.buffer_name

    # ------------------------------------------------------------------
    # II attribution
    def max_ii(self) -> int:
        """Worst initiation interval across the kernel's loop nest."""
        return max((n.ii for n in self.loops.values()), default=1)

    def ii_attribution(self) -> List[Dict[str, object]]:
        """Per-loop bottleneck attribution for every loop with II > 1.

        Each record names the loop variable, the II, the limiting
        mechanism (``dependence`` or ``memory``) and the buffer that
        causes it — the facts AOC's HTML report spreads over the loop
        analysis and LSU pages, gathered for the performance advisor.
        Records are sorted by (descending II, loop var) so the worst
        bottleneck is first and the order is deterministic.
        """
        out: List[Dict[str, object]] = []
        for node in self.loops.values():
            if node.ii <= 1:
                continue
            cause = node.bottleneck
            out.append(
                {
                    "loop": node.stmt.loop_var.name,
                    "ii": node.ii,
                    "cause": cause,
                    "buffer": (
                        node.ii_dep_buffer
                        if cause == "dependence"
                        else node.ii_mem_buffer
                    ),
                    "scope": (
                        node.ii_dep_scope if cause == "dependence" else "global"
                    ),
                }
            )
        out.sort(key=lambda r: (-int(r["ii"]), str(r["loop"])))
        return out

    # ------------------------------------------------------------------
    # cost evaluators
    def _eval_extent(self, e: _e.Expr, bindings: Bindings) -> int:
        v = eval_int(e, bindings)
        if v is None:
            raise AOCError(
                f"kernel {self.kernel.name}: cannot evaluate loop extent "
                f"{e!r} — missing symbolic bindings"
            )
        return v

    def _cost(self, metric: str, bindings: Optional[Bindings]) -> int:
        # traffic is memoized apart from the fold: each can need a
        # binding the other does not, and each raises only for its own
        bindings = bindings or {}
        costs = self._costs.setdefault(frozenset(bindings.items()), {})
        if metric not in costs:
            if metric == "traffic":
                costs[metric] = self._traffic(bindings)
            else:
                costs["cycles"], costs["flops"] = self._fold(bindings)
        return costs[metric]

    def compute_cycles(self, bindings: Optional[Bindings] = None) -> int:
        """Issue-slot cycle estimate for one invocation."""
        return self._cost("cycles", bindings)

    def flops(self, bindings: Optional[Bindings] = None) -> int:
        """Floating-point operations per invocation."""
        return self._cost("flops", bindings)

    def traffic_bytes(self, bindings: Optional[Bindings] = None) -> int:
        """Approximate DRAM traffic per invocation.

        Per access site: the whole buffer is touched once (``unique``)
        multiplied by the trip counts of enclosing serial loops whose
        variables do not advance the address (re-reads).  A cached LSU
        whose working set fits the 512-kbit cache pays ``unique`` once.
        """
        return self._cost("traffic", bindings)

    def _fold(self, bindings: Bindings) -> Tuple[int, int]:
        """(cycles, flops) of one invocation, folded over the nest."""
        # every extent first, in pre-order: an unbound one is named as
        # the statement-tree walk met it
        trips = {
            key: self._eval_extent(node.stmt.extent, bindings)
            for key, node in self.loops.items()
        }
        stack: List[Tuple[int, int]] = []
        for tag, arg in self._nest:
            if tag == "leaf":
                stack.append((1, arg))  # one issue slot
            elif tag == "loop":
                cycles, flops = stack.pop()
                n = trips[id(arg)]
                flops *= n
                if arg.kind is _s.ForKind.UNROLLED:
                    n = 1 if arg.unroll_factor is None else math.ceil(n / arg.unroll_factor)
                if n > 1:
                    # trip-1 loops collapse: no control, no pipeline fill
                    ii = self.loops[id(arg)].ii
                    cycles = self.c.loop_fill_cycles + n * ii * cycles
                stack.append((cycles, flops))
            else:
                # a sequence runs its parts in turn; a conditional costs
                # its larger arm
                combine = sum if tag == "seq" else max
                k = len(stack) - arg
                parts = stack[k:]
                stack[k:] = [(combine(c for c, _ in parts),
                              combine(f for _, f in parts))]
        cycles, flops = stack.pop()
        return max(1, cycles), flops

    def _traffic(self, bindings: Bindings) -> int:
        total = 0
        for site, lsu in self.lsu_sites:
            n = site.buffer.num_elements(bindings)
            if n is None:
                raise AOCError(
                    f"kernel {self.kernel.name}: the shape of "
                    f"{site.buffer.name} has an unbound symbolic dim"
                )
            unique = n * 4
            reread = 1
            for var, extent in site.serial:
                if site.strides[var] == 0:
                    reread *= self._eval_extent(extent, bindings)
            if lsu.cached and unique <= self.c.lsu_cache_bytes:
                reread = 1
            total += unique * reread
        return total

    # ------------------------------------------------------------------
    # spatial hardware
    def dsp_count(self) -> int:
        """DSPs: one per fused MAC in the replicated (unrolled) datapath."""
        return max(0, math.ceil(self.spatial_flops / 2 * self.c.dsp_per_mac))

    def is_pure_transform(self) -> bool:
        """True for kernels that move data without floating-point work
        (padding, flatten/transpose) — thesis's 'transform' kernels."""
        return self.spatial_flops == 0

    def has_nonaligned_lsu(self) -> bool:
        return any(not l.aligned for l in self.lsus)

    def total_lsu_replicas(self) -> int:
        return sum(l.replicas for l in self.lsus)

    def excess_lsu_replicas(self) -> int:
        """Replicated streams beyond the first per LSU (routing pressure)."""
        return sum(max(0, l.replicas - 1) for l in self.lsus)

    def bw_efficiency(self) -> float:
        """Fraction of peak DRAM bandwidth this kernel's LSUs achieve."""
        if not self.lsus:
            return self.c.bw_efficiency_aligned
        if self.has_nonaligned_lsu():
            return self.c.bw_efficiency_nonaligned
        return self.c.bw_efficiency_aligned
