"""Static channel-protocol verification over programs and pipeline plans.

Intel CL channels are blocking FIFOs between exactly one producer and
one consumer kernel.  These checks catch before synthesis what the
runtime watchdog (:mod:`repro.resilience.watchdog`) could only declare
after the hang, plus the FIFO sizing and plan drift that never hang:

* **count mismatch** (**RC001**) — the producer's static write count and
  the consumer's static read count per activation differ; the short side
  blocks forever on the last element.  Counts are products of enclosing
  loop extents over the channel sites of the kernel's
  :func:`~repro.ir.analysis.access_table`; a symbolic extent or a
  read/write under a conditional makes the count unprovable (**RC002**).
* **wait cycles** (**RC003**) — an edge consumer → producer per channel;
  a cycle means every kernel in it blocks on a channel another blocked
  kernel should feed.  With this repro's lowering (consumers drain their
  whole input channel before producing anything) a topological cycle is
  always a deadlock.
* **depth/occupancy** (**RC004**/**RC005**) — the thesis sizes FIFO
  depth to the producer's per-image output (§4.11).  A depth above the
  per-image traffic can never fill (wasted BRAM, RC004 warn); a
  non-zero depth below it can back-pressure a concurrent producer
  (RC005, info — a performance note, not a correctness issue).
* **plan drift** (**RC006**) — a :class:`~repro.runtime.plan.PipelinePlan`
  whose channel flags/depths disagree with the program it plans for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.analysis import access_table, eval_int
from repro.ir.kernel import Kernel, Program
from repro.runtime.plan import PipelinePlan
from repro.verify.diagnostics import Diagnostic, VerifyReport

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RC001", "RC002", "RC003", "RC004", "RC005", "RC006")

#: channel name -> (count, provable); count is meaningful only when provable
Counts = Dict[str, Tuple[int, bool]]


def channel_counts(kernel: Kernel) -> Tuple[Counts, Counts]:
    """Static per-activation (reads, writes) counts per channel name.

    A count is the sum over the kernel's channel sites of the product of
    enclosing loop extents.  A site under a conditional or under a loop
    with a symbolic extent poisons the channel's count (provable=False).
    """
    reads: Counts = {}
    writes: Counts = {}
    for site in access_table(kernel).channel_sites:
        table = writes if site.is_write else reads
        n: Optional[int] = None if site.guarded else 1
        for loop in site.loops:
            ext = eval_int(loop.extent)
            n = None if (n is None or ext is None) else n * ext
        count, ok = table.get(site.channel.name, (0, True))
        table[site.channel.name] = (count + (n or 0), ok and n is not None)
    return reads, writes


def check_channels(
    program: Program,
    plan: Optional[PipelinePlan] = None,
    report: Optional[VerifyReport] = None,
) -> VerifyReport:
    """Verify channel protocol, wait-graph acyclicity and FIFO depths."""
    if report is None:
        report = VerifyReport(subject=program.name)

    # per-channel producer/consumer kernels and their static counts
    producers: Dict[str, List[Tuple[str, int, bool]]] = {}
    consumers: Dict[str, List[Tuple[str, int, bool]]] = {}
    depths: Dict[str, int] = {}
    for k in program.kernels:
        reads, writes = channel_counts(k)
        for name, (n, ok) in writes.items():
            producers.setdefault(name, []).append((k.name, n, ok))
        for name, (n, ok) in reads.items():
            consumers.setdefault(name, []).append((k.name, n, ok))
    for ch in program.all_channels():
        depths[ch.name] = ch.depth

    for name in sorted(set(producers) | set(consumers)):
        report.bump("channels_checked")
        p = producers.get(name, [])
        c = consumers.get(name, [])
        if len(p) != 1 or len(c) != 1:
            report.diagnostics.append(Diagnostic(
                "RC001", "error",
                f"channel {name} needs exactly one producer and one consumer "
                f"(producers: {[k for k, _, _ in p]}, "
                f"consumers: {[k for k, _, _ in c]})",
                location=name,
            ))
            continue
        (pk, wn, wok), (ck, rn, rok) = p[0], c[0]
        if not (wok and rok):
            report.diagnostics.append(Diagnostic(
                "RC002", "warn",
                f"channel {name}: {'write' if not wok else 'read'} count is "
                f"symbolic or conditional — protocol unprovable",
                location=name,
            ))
            continue
        if wn != rn:
            report.diagnostics.append(Diagnostic(
                "RC001", "error",
                f"channel {name}: producer {pk} writes {wn} element(s) per "
                f"activation but consumer {ck} reads {rn} — the "
                f"{'consumer' if rn > wn else 'producer'} blocks forever",
                location=name,
            ))
            continue
        report.bump("channels_matched")
        _check_depth(name, depths.get(name, 0), wn, report)

    _check_wait_cycles(program, producers, consumers, report)
    if plan is not None:
        _check_plan_consistency(program, plan, report)
    return report


# ---------------------------------------------------------------------------
def _check_depth(name: str, depth: int, traffic: int, report: VerifyReport) -> None:
    if depth > traffic:
        report.diagnostics.append(Diagnostic(
            "RC004", "warn",
            f"channel {name}: FIFO depth {depth} exceeds the {traffic} "
            f"element(s) ever in flight per activation — wasted BRAM",
            location=name,
        ))
    elif 0 < depth < traffic:
        report.diagnostics.append(Diagnostic(
            "RC005", "info",
            f"channel {name}: FIFO depth {depth} is below the producer's "
            f"{traffic}-element per-activation traffic — concurrent "
            f"execution may back-pressure (thesis §4.6)",
            location=name,
        ))


# ---------------------------------------------------------------------------
def _wait_cycle(
    k: str,
    edges: Dict[str, List[Tuple[str, str]]],
    state: Dict[str, int],
    stack: List[Tuple[str, str]],
) -> Optional[List[Tuple[str, str]]]:
    """Depth-first from kernel ``k`` (the last of ``stack``, the path
    so far): the path closing a wait cycle, or None."""
    state[k] = 0
    for nxt, ch in edges.get(k, ()):
        if state.get(nxt) == 0:
            return stack + [(nxt, ch)]
        if nxt not in state:
            stack.append((nxt, ch))
            cycle = _wait_cycle(nxt, edges, state, stack)
            stack.pop()
            if cycle is not None:
                return cycle
    state[k] = 1
    return None


def _check_wait_cycles(
    program: Program,
    producers: Dict[str, List[Tuple[str, int, bool]]],
    consumers: Dict[str, List[Tuple[str, int, bool]]],
    report: VerifyReport,
) -> None:
    """Edge consumer-kernel -> producer-kernel per channel; cycles deadlock."""
    edges: Dict[str, List[Tuple[str, str]]] = {}  # kernel -> [(producer, channel)]
    for name, cons in consumers.items():
        prods = producers.get(name, [])
        for ck, _, _ in cons:
            for pk, _, _ in prods:
                edges.setdefault(ck, []).append((pk, name))

    state: Dict[str, int] = {}  # 0 = visiting, 1 = done
    for k in sorted(edges):
        if k in state:
            continue
        cycle = _wait_cycle(k, edges, state, [(k, "")])
        if cycle is not None:
            culprit = cycle[-1][0]
            start = next(i for i, (kk, _) in enumerate(cycle) if kk == culprit)
            loop = cycle[start:]
            chain = " -> ".join(
                f"{kk} (waits on {ch})" if ch else kk for kk, ch in loop
            )
            report.diagnostics.append(Diagnostic(
                "RC003", "error",
                f"wait cycle in the static channel graph: {chain} — every "
                f"kernel in the cycle blocks on a channel fed by another "
                f"blocked kernel (deadlock)",
                location=loop[0][1] or loop[-1][1],
            ))
            return  # one cycle diagnosis is enough


# ---------------------------------------------------------------------------
def _check_plan_consistency(
    program: Program, plan: PipelinePlan, report: VerifyReport
) -> None:
    for stage in plan.stages:
        try:
            kernel = program.kernel(stage.kernel_name)
        except KeyError:
            report.diagnostics.append(Diagnostic(
                "RC006", "error",
                f"plan stage {stage.layer} names kernel "
                f"{stage.kernel_name} which is not in the program",
                location=stage.layer,
            ))
            continue
        reads, writes = kernel.channels()
        if stage.channel_out != bool(writes):
            report.diagnostics.append(Diagnostic(
                "RC006", "error",
                f"plan stage {stage.layer}: channel_out={stage.channel_out} "
                f"but kernel {kernel.name} writes "
                f"{len(writes)} channel(s)",
                kernel=kernel.name, location=stage.layer,
            ))
        if stage.channel_in != bool(reads):
            report.diagnostics.append(Diagnostic(
                "RC006", "error",
                f"plan stage {stage.layer}: channel_in={stage.channel_in} "
                f"but kernel {kernel.name} reads "
                f"{len(reads)} channel(s)",
                kernel=kernel.name, location=stage.layer,
            ))
        if stage.channel_out and writes:
            depth = max(ch.depth for ch in writes)
            if stage.channel_depth != depth:
                report.diagnostics.append(Diagnostic(
                    "RC006", "error",
                    f"plan stage {stage.layer}: channel_depth="
                    f"{stage.channel_depth} but the kernel's output channel "
                    f"has depth {depth}",
                    kernel=kernel.name, location=stage.layer,
                ))
