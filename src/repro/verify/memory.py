"""Static memory liveness, interference and DDR-arena planning (RM rules).

The folded runtime routes every inter-layer activation through global
memory (thesis Chapter 3), so the board's DDR capacity — not just
BRAM/DSP — bounds how many replicas a board can host.  This analyzer
reasons about that footprint *statically*, before any synthesis time is
spent:

1. **Liveness** — walk the :class:`~repro.runtime.plan.FoldedPlan`
   invocation sequence (one kernel launch per fused node, in graph
   order) and compute, for every activation value, the half-open
   invocation interval during which its bytes must survive: defined at
   the invocation that produces it, dead after its last reader.  For a
   :class:`~repro.runtime.plan.PipelinePlan` every globally-buffered
   stage is concurrently resident, so all intervals span the whole plan
   (channel-fed handoffs never touch DDR and are excluded).
2. **Interference** — two values interfere iff their live intervals
   overlap; the network input interferes with the first layer's output,
   a residual shortcut stays live across the block it skips.
3. **Coloring** — a deterministic first-fit offset assignment packs
   non-interfering values into one shared DDR *arena*: values are
   placed in definition order, each at the lowest 4-byte-aligned offset
   where it fits below/above every already-placed interfering slot.
4. **Certification** — :func:`check_memory` derives liveness from the
   graph+plan (a folded sequence's once, shared with planning) and
   proves the :class:`MemoryPlan` sound: every pair of
   address-overlapping slots has disjoint live ranges (else RM001),
   every slot lies inside the arena with its recorded size matching the
   value's actual byte count — and, when the lowered program is
   available, the kernel's output-buffer capacity under its invocation
   bindings (:meth:`repro.ir.Buffer.num_elements`) — so no
   access can escape its slot (else RM004).  The verdict is a
   serializable :class:`MemoryCertificate` keyed by the plan's content
   fingerprint.

Rules:

========  ========  ==========================================================
RM001     error     reuse pair with overlapping live ranges (clobber)
RM002     error     buffer size unresolvable under bindings (symbolic shape)
RM003     error     arena + weights exceed the board's DDR capacity
RM004     error     plan drift / access escapes its assigned slot
RM005     advice    non-interfering buffers left unshared (wasted bytes)
========  ========  ==========================================================

The certified plan is *adopted*, not just reported:
``flow.folded.plan_folded`` attaches it to the ``FoldedPlan``, the
functional executor allocates one arena array and hands kernels views
into it (bit-identical logits — the coloring proof is exactly the
statement that zero-filling a slot before its defining invocation can
never destroy a still-needed value), DSE dominance pruning gains a
``ddr_bytes`` axis, and the serving layer derives replicas-per-board
from the same footprint.  ``python -m repro.report --check
NETWORK[:BOARD]`` prints the liveness table and arena map the pipeline's
``verify`` stage kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.counters import count
from repro.device.boards import Board
from repro.pipeline.fingerprint import fingerprint
from repro.runtime.plan import FoldedPlan, PipelinePlan
from repro.verify.diagnostics import Diagnostic, VerifyReport

__all__ = [
    "BufferLife",
    "MemoryPlan",
    "MemoryCertificate",
    "Footprint",
    "plan_memory",
    "check_memory",
    "network_footprint",
    "format_memory_plan",
]

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RM001", "RM002", "RM003", "RM004", "RM005")

#: every tensor in the reproduction is float32
ELEM_BYTES = 4


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BufferLife:
    """One activation value's life over the invocation sequence."""

    #: canonical value name (the producing node's output-node name;
    #: the graph input keeps its own name)
    name: str
    #: producing layer ("<input>" for the network input)
    layer: str
    size_bytes: int
    #: index of the invocation that defines the value (input: 0)
    first: int
    #: index of the last invocation that reads it (>= first)
    last: int

    def overlaps(self, other: "BufferLife") -> bool:
        return self.first <= other.last and other.first <= self.last


def _numel_or_none(shape) -> Optional[int]:
    n = 1
    for d in shape:
        if not isinstance(d, int):
            return None
        n *= d
    return n


def _folded_sequence(fused, plan: FoldedPlan):
    """Yield ``(fused_node, read_value_names)`` per invocation, or a
    drift message when the plan does not match the graph."""
    node_of = {fn.name: fn for fn in fused}
    seq = []
    for inv in plan.invocations:
        fn = node_of.get(inv.layer)
        if fn is None:
            return None, f"invocation layer {inv.layer!r} not in the fused graph"
        seq.append((fn, (inv.input_node,) + tuple(inv.extra_input_nodes)))
    return seq, None


def _graph_sequence(fused):
    """Graph-order pseudo-invocations (``_FoldedBuilder`` emits exactly
    one invocation per fused node in this order, so graph-order liveness
    equals invocation-order liveness)."""
    seq = []
    for fn in fused:
        reads = (fn.anchor.inputs[0].name,) + tuple(
            n.name for n in fn.extra_inputs
        )
        seq.append((fn, reads))
    return seq


def _liveness(
    fused, seq, report: Optional[VerifyReport] = None
) -> Optional[List[BufferLife]]:
    """Compute per-value live intervals over an invocation sequence.

    Returns ``None`` (after reporting RM002/RM004) when a size is
    symbolic or the sequence reads a value no invocation produced.
    """
    graph_in = fused.graph.input.name
    #: node name -> canonical value name (epilogue outputs and the
    #: anchor share the kernel's single output buffer, matching the
    #: executor's aliasing)
    alias: Dict[str, str] = {graph_in: graph_in}
    first: Dict[str, int] = {graph_in: 0}
    last: Dict[str, int] = {graph_in: 0}
    layer: Dict[str, str] = {graph_in: "<input>"}
    sizes: Dict[str, Optional[int]] = {
        graph_in: _numel_or_none(fused.graph.input.out_shape)
    }
    order: List[str] = [graph_in]

    ok = True
    for i, (fn, reads) in enumerate(seq):
        for r in reads:
            v = alias.get(r)
            if v is None:
                ok = False
                if report is not None:
                    report.extend([Diagnostic(
                        "RM004", "error",
                        f"invocation {i} ({fn.name}) reads value {r!r} "
                        "that no earlier invocation produces (plan/graph "
                        "drift)",
                        location=fn.name,
                    )])
                continue
            last[v] = max(last[v], i)
        v = fn.output_node.name
        alias[v] = v
        alias[fn.anchor.name] = v
        if v not in first:
            order.append(v)
        first[v] = i
        last[v] = max(last.get(v, i), i)
        layer[v] = fn.name
        sizes[v] = _numel_or_none(fn.out_shape)

    for v in order:
        if sizes[v] is None:
            ok = False
            if report is not None:
                report.extend([Diagnostic(
                    "RM002", "error",
                    f"value {v!r} ({layer[v]}) has a symbolic shape; its "
                    "DDR footprint cannot be bounded statically",
                    location=layer[v],
                )])
    if not ok:
        return None
    return [
        BufferLife(v, layer[v], sizes[v] * ELEM_BYTES, first[v], last[v])
        for v in order
    ]


def _pipelined_lives(
    fused, plan: PipelinePlan, report: Optional[VerifyReport] = None
) -> Optional[List[BufferLife]]:
    """Residency for a pipelined plan: every globally-buffered stage is
    concurrently live (all kernels resident), channel handoffs are not
    DDR traffic at all."""
    nodes = list(fused)
    if len(nodes) != len(plan.stages):
        if report is not None:
            report.extend([Diagnostic(
                "RM004", "error",
                f"plan has {len(plan.stages)} stages but the fused graph "
                f"has {len(nodes)} nodes (plan/graph drift)",
            )])
        return None
    span = max(len(nodes) - 1, 0)
    lives: List[BufferLife] = []
    n_in = _numel_or_none(fused.graph.input.out_shape)
    sym: List[str] = []
    if n_in is None:
        sym.append("<input>")
    else:
        lives.append(BufferLife(
            fused.graph.input.name, "<input>", n_in * ELEM_BYTES, 0, span))
    for fn, stage in zip(nodes, plan.stages):
        if stage.channel_out:
            continue  # streams to a FIFO, never materialized in DDR
        n = _numel_or_none(fn.out_shape)
        if n is None:
            sym.append(fn.name)
            continue
        lives.append(BufferLife(
            fn.output_node.name, fn.name, n * ELEM_BYTES, 0, span))
    if sym:
        if report is not None:
            report.extend([Diagnostic(
                "RM002", "error",
                f"stage(s) {', '.join(sym)} have symbolic shapes; the "
                "pipelined residency cannot be bounded statically",
            )])
        return None
    return lives


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------
def _align(n: int) -> int:
    return (n + ELEM_BYTES - 1) // ELEM_BYTES * ELEM_BYTES


def _color(lives: Sequence[BufferLife]) -> Tuple[int, Dict[str, int]]:
    """Deterministic first-fit offset assignment.

    Values are placed in ``(first, name)`` order; each goes at the
    lowest aligned offset whose ``[offset, offset+size)`` range avoids
    every already-placed *interfering* slot.  Non-interfering values may
    overlap freely — that is the reuse.
    """
    offsets: Dict[str, int] = {}
    placed: List[BufferLife] = []
    arena = 0
    for life in sorted(lives, key=lambda l: (l.first, l.name)):
        busy = sorted(
            (offsets[p.name], offsets[p.name] + p.size_bytes)
            for p in placed
            if p.overlaps(life)
        )
        off = 0
        for lo, hi in busy:
            if off + life.size_bytes <= lo:
                break
            off = max(off, _align(hi))
        offsets[life.name] = off
        arena = max(arena, off + life.size_bytes)
        placed.append(life)
    return arena, offsets


# ---------------------------------------------------------------------------
# the plan artifact
# ---------------------------------------------------------------------------
@dataclass
class MemoryPlan:
    """A certified assignment of activation values to one DDR arena.

    Serializable and content-addressed: :attr:`key` is the sha256
    fingerprint of the allocation itself (offsets, sizes, intervals,
    arena extent), so two builds that reach the same allocation share
    one certificate.
    """

    subject: str
    arena_bytes: int
    #: what one-buffer-per-activation allocation would cost
    naive_bytes: int
    #: canonical value name -> arena byte offset
    offsets: Dict[str, int]
    #: canonical value name -> slot size in bytes
    sizes: Dict[str, int]
    #: canonical value name -> (first, last) invocation interval
    intervals: Dict[str, Tuple[int, int]]
    #: canonical value name -> producing layer
    layers: Dict[str, str]
    #: address-overlapping value pairs (the reuses), each sorted by name
    reuse_pairs: List[Tuple[str, str]] = field(default_factory=list)
    #: content fingerprint (filled by :func:`plan_memory`)
    key: str = ""

    # ------------------------------------------------------------------
    @property
    def saved_bytes(self) -> int:
        return self.naive_bytes - self.arena_bytes

    def slot(self, name: str) -> Tuple[int, int]:
        """``[start, end)`` byte range of a value's arena slot."""
        off = self.offsets[name]
        return off, off + self.sizes[name]

    def compute_key(self) -> str:
        count("plans_computed")
        return fingerprint([
            "memory-plan",
            self.arena_bytes,
            sorted(self.offsets.items()),
            sorted(self.sizes.items()),
            sorted(self.intervals.items()),
        ])

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "key": self.key,
            "arena_bytes": self.arena_bytes,
            "naive_bytes": self.naive_bytes,
            "saved_bytes": self.saved_bytes,
            "offsets": dict(self.offsets),
            "sizes": dict(self.sizes),
            "intervals": {k: list(v) for k, v in self.intervals.items()},
            "layers": dict(self.layers),
            "reuse_pairs": [list(p) for p in self.reuse_pairs],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "MemoryPlan":
        return cls(
            subject=d["subject"],
            arena_bytes=d["arena_bytes"],
            naive_bytes=d["naive_bytes"],
            offsets=dict(d["offsets"]),
            sizes=dict(d["sizes"]),
            intervals={k: tuple(v) for k, v in d["intervals"].items()},
            layers=dict(d["layers"]),
            reuse_pairs=[tuple(p) for p in d["reuse_pairs"]],
            key=d.get("key", ""),
        )


def _reuse_pairs(
    lives: Sequence[BufferLife], offsets: Dict[str, int]
) -> List[Tuple[str, str]]:
    pairs = []
    ls = sorted(lives, key=lambda l: l.name)
    for i, a in enumerate(ls):
        for b in ls[i + 1:]:
            a0, a1 = offsets[a.name], offsets[a.name] + a.size_bytes
            b0, b1 = offsets[b.name], offsets[b.name] + b.size_bytes
            if a0 < b1 and b0 < a1:
                pairs.append((a.name, b.name))
    return pairs


def _lives_of(fused, plan, report: Optional[VerifyReport] = None):
    if isinstance(plan, PipelinePlan):
        return _pipelined_lives(fused, plan, report)
    seq, drift = _folded_sequence(fused, plan)
    if seq is None:
        if report is not None:
            report.extend([Diagnostic("RM004", "error", drift)])
        return None
    return _liveness(fused, seq, report)


def _derived(fused, plan):
    """``(lives, findings, arena plan)`` of a deployment plan: its
    liveness, the RM002/RM004 findings deriving it raised, and its
    first-fit coloring (``lives`` and the plan are None when liveness
    cannot be bounded).

    A folded plan's are derived once per (fused graph, the sequence
    liveness reads: each invocation's layer, input node and extra
    inputs) while the lower cache lives
    (:func:`repro.flow.incremental.memoized`), so the builds of a DSE
    sweep derive and color one arena, for planning and certifying alike.
    """
    def derive():
        report = VerifyReport(subject="memory")
        lives = _lives_of(fused, plan, report)
        return (lives, tuple(report.diagnostics),
                None if lives is None else _arena_plan(lives))

    if not isinstance(plan, FoldedPlan):
        return derive()
    from repro.flow.incremental import memoized

    seq = tuple(
        (inv.layer, inv.input_node, tuple(inv.extra_input_nodes))
        for inv in plan.invocations
    )
    return memoized(("memory-plan", fused, seq), derive)


def plan_memory(fused, plan, subject: str = "") -> Optional[MemoryPlan]:
    """Liveness + coloring for a deployment plan.

    Returns ``None`` when liveness cannot be bounded (symbolic shapes
    or plan/graph drift) — the verify stage reports the RM002/RM004
    finding; builders just skip arena adoption.  The arena comes from
    :func:`_derived`, computed once per folded sequence; each call still
    returns a new plan with its own tables.
    """
    mp = _derived(fused, plan)[2]
    if mp is None:
        return None
    return replace(
        mp, subject=subject, offsets=dict(mp.offsets), sizes=dict(mp.sizes),
        intervals=dict(mp.intervals), layers=dict(mp.layers),
        reuse_pairs=list(mp.reuse_pairs),
    )


def _arena_plan(lives: List[BufferLife]) -> MemoryPlan:
    arena, offsets = _color(lives)
    mp = MemoryPlan(
        subject="",
        arena_bytes=arena,
        naive_bytes=sum(l.size_bytes for l in lives),
        offsets=offsets,
        sizes={l.name: l.size_bytes for l in lives},
        intervals={l.name: (l.first, l.last) for l in lives},
        layers={l.name: l.layer for l in lives},
    )
    mp.reuse_pairs = _reuse_pairs(lives, offsets)
    mp.key = mp.compute_key()
    return mp


# ---------------------------------------------------------------------------
# weights + whole-network footprint
# ---------------------------------------------------------------------------
def _param_count(fn) -> int:
    """Parameter elements a fused node contributes to DDR (weights,
    bias, folded batchnorm scale/shift)."""
    a = fn.anchor.attrs
    in_shape = fn.anchor.inputs[0].out_shape
    n = 0
    if fn.op == "conv2d":
        k, f = a["filters"], a["field"]
        c1 = in_shape[0] if isinstance(in_shape[0], int) else 0
        n = k * c1 * f * f + (k if a.get("bias", True) else 0)
    elif fn.op == "depthwise_conv2d":
        c1 = in_shape[0] if isinstance(in_shape[0], int) else 0
        f = a["field"]
        n = c1 * f * f + (c1 if a.get("bias", True) else 0)
    elif fn.op == "dense":
        m = a["units"]
        d = in_shape[0] if isinstance(in_shape[0], int) else 0
        n = d * m + (m if a.get("bias", True) else 0)
    if fn.has_batchnorm and isinstance(fn.out_shape[0], int):
        n += 2 * fn.out_shape[0]
    return n


def weights_bytes(fused) -> int:
    """Total parameter bytes the network keeps resident in DDR."""
    return sum(_param_count(fn) for fn in fused) * ELEM_BYTES


@dataclass(frozen=True)
class Footprint:
    """A network's static DDR demand on one board."""

    arena_bytes: int
    naive_bytes: int
    weights_bytes: int

    @property
    def ddr_bytes(self) -> int:
        """Resident total: activation arena + parameters."""
        return self.arena_bytes + self.weights_bytes


def network_footprint(fused, pipelined: bool = False) -> Footprint:
    """Static DDR footprint of a fused graph, plan-free.

    Folded deployments launch one invocation per fused node in graph
    order, so graph-order liveness is exact.  ``pipelined=True`` makes
    every activation concurrently resident (all kernels live at once),
    the conservative bound for channel-free pipelined levels.
    """
    seq = _graph_sequence(fused)
    lives = _liveness(fused, seq)
    w = weights_bytes(fused)
    if lives is None:
        return Footprint(0, 0, w)
    naive = sum(l.size_bytes for l in lives)
    if pipelined:
        return Footprint(naive, naive, w)
    arena, _ = _color(lives)
    return Footprint(arena, naive, w)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------
@dataclass
class MemoryCertificate:
    """Machine-checkable verdict over one :class:`MemoryPlan`."""

    #: 'certified' | 'rejected'
    status: str
    #: the MemoryPlan content fingerprint this verdict is keyed by
    key: str
    #: pairwise disjointness + slot-containment checks performed
    checks: int
    #: RM rules fired while checking (empty when certified)
    rules: Tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "key": self.key,
            "checks": self.checks,
            "rules": list(self.rules),
        }


def _check_slots(
    memory: MemoryPlan, lives: List[BufferLife], report: VerifyReport
) -> int:
    """RM001/RM004 core: prove every slot sound against the liveness.

    Returns the checks made: one per live value and stale slot, and
    n*(n-1)/2 for the pairs of the n slotted values, which the offset
    sweep decides all at once."""
    checks = 0
    by_name = {l.name: l for l in lives}

    # -- drift: value sets, sizes and intervals must match exactly -----
    for l in lives:
        checks += 1
        if l.name not in memory.offsets:
            report.extend([Diagnostic(
                "RM004", "error",
                f"live value {l.name!r} ({l.layer}) has no arena slot",
                location=l.layer,
            )])
            continue
        off = memory.offsets[l.name]
        size = memory.sizes.get(l.name)
        if size != l.size_bytes:
            report.extend([Diagnostic(
                "RM004", "error",
                f"slot for {l.name!r} records {size} bytes but the value "
                f"is {l.size_bytes} bytes (access would escape the slot)",
                location=l.layer,
            )])
        if off % ELEM_BYTES != 0 or off < 0 or off + l.size_bytes > memory.arena_bytes:
            report.extend([Diagnostic(
                "RM004", "error",
                f"slot [{off}, {off + l.size_bytes}) for {l.name!r} is "
                f"misaligned or outside the {memory.arena_bytes}-byte arena",
                location=l.layer,
            )])
        if memory.intervals.get(l.name) != (l.first, l.last):
            report.extend([Diagnostic(
                "RM004", "error",
                f"recorded live interval {memory.intervals.get(l.name)} for "
                f"{l.name!r} drifts from the recomputed ({l.first}, {l.last})",
                location=l.layer,
            )])
    for name in memory.offsets:
        if name not in by_name:
            checks += 1
            report.extend([Diagnostic(
                "RM004", "error",
                f"arena slot {name!r} corresponds to no live value "
                "(stale plan)",
            )])

    # -- soundness: overlapping slots need disjoint live ranges --------
    # a sweep in offset order meets each pair of slots that share bytes
    # once, so every pair is decided; clashes are reported in by-name
    # pair order
    ls = sorted((l for l in lives if l.name in memory.offsets),
                key=lambda l: l.name)
    checks += len(ls) * (len(ls) - 1) // 2
    slots = sorted(
        (memory.offsets[l.name], memory.offsets[l.name] + l.size_bytes, i)
        for i, l in enumerate(ls)
    )
    clobbers = []
    active: List[Tuple[int, int, int]] = []
    for b0, b1, j in slots:
        active = [slot for slot in active if slot[1] > b0]
        for a0, _, i in active:
            if a0 < b1 and ls[i].overlaps(ls[j]):
                clobbers.append((min(i, j), max(i, j)))
        active.append((b0, b1, j))
    for i, j in sorted(clobbers):
        a, b = ls[i], ls[j]
        a0, b0 = memory.offsets[a.name], memory.offsets[b.name]
        a1, b1 = a0 + a.size_bytes, b0 + b.size_bytes
        report.extend([Diagnostic(
            "RM001", "error",
            f"values {a.name!r} (live [{a.first}, {a.last}]) and "
            f"{b.name!r} (live [{b.first}, {b.last}]) share arena "
            f"bytes [{max(a0, b0)}, {min(a1, b1)}) while both live "
            "— the reuse would clobber a needed activation",
            location=f"{a.layer}/{b.layer}",
        )])
    return checks


def check_memory(
    fused,
    plan,
    program=None,
    board: Optional[Board] = None,
    subject: str = "",
    memory: Optional[MemoryPlan] = None,
) -> Tuple[VerifyReport, Optional[MemoryPlan], MemoryCertificate]:
    """Certify a deployment plan's memory behaviour.

    Takes liveness from ``fused``+``plan`` (a folded sequence's is
    derived once and replayed, see :func:`_derived`), then proves the
    :class:`MemoryPlan` (the one attached to the plan, or a freshly
    colored one) sound on every call: RM001 overlapping live reuse (a
    sweep over the slots in offset order compares only the slots that
    share bytes; every pair is counted among the ``checks``), RM002
    unbounded sizes, RM003 board DDR capacity, RM004 drift/slot
    escapes, RM005 advice when safe reuse is left on the table.
    Returns ``(report, memory_plan, certificate)``; the report is
    mergeable into the pipeline's verify-stage report.
    """
    report = VerifyReport(subject=subject or "memory")
    checks = 0

    lives, found, colored = _derived(fused, plan)
    report.extend(found)
    if memory is None:
        memory = getattr(plan, "memory", None)
    if lives is None:
        cert = MemoryCertificate(
            "rejected", memory.key if memory else "", checks,
            tuple(sorted({d.rule for d in report.diagnostics})))
        return report, memory, cert

    if memory is None:
        # nothing attached: certify a fresh coloring (report-only mode)
        memory = plan_memory(fused, plan, subject=subject)

    checks += _check_slots(memory, lives, report)

    # -- program cross-check: output capacity under bindings -----------
    if program is not None and isinstance(plan, FoldedPlan):
        node_of = {fn.name: fn for fn in fused}
        for inv in plan.invocations:
            fn = node_of.get(inv.layer)
            if fn is None:
                continue
            kernel = program.kernel(inv.kernel_name)
            out = next(
                (b for b in kernel.args if b.name == kernel.output_buffer),
                None,
            )
            if out is None:
                continue
            checks += 1
            cap = out.num_elements(inv.bindings)
            vname = fn.output_node.name
            if cap is None:
                report.extend([Diagnostic(
                    "RM002", "error",
                    f"output buffer {out.name!r} of kernel "
                    f"{kernel.name} has symbolic capacity under invocation "
                    f"{inv.layer}'s bindings — its arena slot cannot be "
                    "proven to contain every store",
                    kernel=kernel.name, location=inv.layer,
                )])
            elif vname in memory.sizes and cap * ELEM_BYTES != memory.sizes[vname]:
                report.extend([Diagnostic(
                    "RM004", "error",
                    f"kernel {kernel.name} writes {cap * ELEM_BYTES} bytes "
                    f"for {vname!r} but the arena slot holds "
                    f"{memory.sizes[vname]} (access escapes the slot)",
                    kernel=kernel.name, location=inv.layer,
                )])

    # -- RM005: reuse left on the table --------------------------------
    optimal_arena = colored.arena_bytes
    if memory.arena_bytes > optimal_arena:
        wasted = memory.arena_bytes - optimal_arena
        report.extend([Diagnostic(
            "RM005", "advice",
            f"arena is {memory.arena_bytes} bytes but non-interfering "
            f"values could share down to {optimal_arena} — {wasted} bytes "
            "of reusable DDR left unshared",
        )])

    # -- RM003: board capacity ------------------------------------------
    w_bytes = weights_bytes(fused)
    ddr_total = memory.arena_bytes + w_bytes
    if board is not None and board.ddr_bytes and ddr_total > board.ddr_bytes:
        checks += 1
        report.extend([Diagnostic(
            "RM003", "error",
            f"network needs {ddr_total} DDR bytes (arena {memory.arena_bytes}"
            f" + weights {w_bytes}) but board {board.name} has "
            f"{board.ddr_bytes}",
        )])

    report.bump("memory_values", len(lives))
    report.bump("memory_arena_bytes", memory.arena_bytes)
    report.bump("memory_naive_bytes", memory.naive_bytes)
    report.bump("memory_saved_bytes",
                max(memory.naive_bytes - memory.arena_bytes, 0))
    report.bump("memory_reuse_pairs", len(memory.reuse_pairs))
    report.bump("memory_weights_bytes", w_bytes)
    report.bump("memory_ddr_bytes", ddr_total)
    report.bump("memory_checks", checks)

    rm_rules = tuple(sorted({
        d.rule for d in report.diagnostics if d.severity == "error"
    }))
    cert = MemoryCertificate(
        "certified" if not rm_rules else "rejected",
        memory.key, checks, rm_rules or tuple(sorted(
            {d.rule for d in report.diagnostics})),
    )
    return report, memory, cert


# ---------------------------------------------------------------------------
# rendering (repro.report --check)
# ---------------------------------------------------------------------------
def _human(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"


def format_memory_plan(
    memory: MemoryPlan,
    fused=None,
    board: Optional[Board] = None,
) -> str:
    """Liveness table + arena map + verdict, for the ``--check`` CLI."""
    lines = [f"memory: {memory.subject or '<plan>'}  (key {memory.key[:12]})"]
    lines.append("  liveness (invocation intervals):")
    lines.append(f"    {'value':<28} {'layer':<16} {'bytes':>10}  live")
    for name, (f0, l0) in sorted(
        memory.intervals.items(), key=lambda kv: (kv[1][0], kv[0])
    ):
        lines.append(
            f"    {name:<28} {memory.layers.get(name, '?'):<16} "
            f"{memory.sizes[name]:>10}  [{f0}, {l0}]"
        )
    lines.append("  arena map (offset-ordered):")
    lines.append(f"    {'offset':>10} {'bytes':>10}  value")
    shared = {n for pair in memory.reuse_pairs for n in pair}
    for name, off in sorted(memory.offsets.items(), key=lambda kv: (kv[1], kv[0])):
        tag = "  (shared)" if name in shared else ""
        lines.append(f"    {off:>10} {memory.sizes[name]:>10}  {name}{tag}")
    pct = (100.0 * memory.saved_bytes / memory.naive_bytes
           if memory.naive_bytes else 0.0)
    lines.append(
        f"  arena {_human(memory.arena_bytes)} vs naive "
        f"{_human(memory.naive_bytes)} — {_human(memory.saved_bytes)} "
        f"({pct:.0f}%) saved across {len(memory.reuse_pairs)} reuse pair(s)"
    )
    if fused is not None:
        w = weights_bytes(fused)
        total = memory.arena_bytes + w
        line = (f"  resident DDR: {_human(total)} "
                f"(arena + {_human(w)} weights)")
        if board is not None and board.ddr_bytes:
            fit = "fits" if total <= board.ddr_bytes else "EXCEEDS"
            per = board.ddr_bytes // total if total else 0
            line += (f" — {fit} {board.name} DDR {_human(board.ddr_bytes)}"
                     f" ({per} replica(s)/board)")
        lines.append(line)
    return "\n".join(lines)
