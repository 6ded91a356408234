"""Functional execution of compiled deployments through the IR interpreter.

This is the reproduction's equivalent of the thesis's output-verification
step ("A real image is used to validate the implementation once"): the
*generated kernels themselves* are executed — channel FIFOs, symbolic
bindings and all — and their outputs compared against the NumPy reference.

Both entry points take one input or a batch stacked on a leading axis.
A batch runs through each kernel invocation once: activations, arena
slots and outputs are ``(N, numel)`` arrays (the folded arena is
``(N, arena_floats)``), weights stay 1-D and shared, and channels keep
one FIFO stream per sample, a chunk of all ``N`` streams passing from a
vectorized producer to a vectorized consumer as one ``(N, k)`` array.
Each sample's output is bitwise its batch-1 output; one input is a
batch of one.

Both bind each forward once, as the thesis's host runtime creates its
kernels and argument bindings once and only re-enqueues them per image:
a plan keeps one :class:`BoundForward` per batch size and interpreter
class in its memo (``plan.derived``).  Binding fixes every invocation's
kernel, interpreter, weights, batchnorm scale/shift, slots and scratch
buffers, and its interpreter's first run fixes its top-level band plans
and strided views; a forward then only copies its input in, zeroes each
slot before the invocation that defines it, and runs phase B.  The
scalar interpreter goes through the same bound forward.

Tests run LeNet-5 and the reduced MobileNetV1/ResNet-18 twins, which
instantiate every kernel group of the full networks, bit-identically
under both interpreters.  Full-size MobileNetV1 and ResNet-18 run
through their generated kernels too
(``benchmarks/test_full_size_forward.py``): every band vectorizes (a
band above the vector size limit may fall back, and none does), and the
logits match the NumPy reference within float32 tolerance.  On one
2-vCPU host with the vectorized interpreter a forward on the S10SX
takes about 1 s (MobileNetV1) and 2.7–3.8 s (ResNet-18).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.errors import RuntimeSimError
from repro.ir.interp import ChannelState, Interpreter
from repro.ir.kernel import Kernel
from repro.ir.vinterp import VectorizedInterpreter
from repro.relay.execute import Params
from repro.relay.passes import FusedGraph
from repro.runtime.plan import FoldedPlan, PipelinePlan


def _interpreter_class(interp: str) -> Type[Interpreter]:
    """Resolve an ``interp`` choice ('vector' | 'scalar')."""
    if interp == "vector":
        return VectorizedInterpreter
    if interp == "scalar":
        return Interpreter
    raise RuntimeSimError(
        f"unknown interpreter {interp!r}: choose 'vector' or 'scalar'"
    )


def _batch(x: np.ndarray, fused: FusedGraph) -> Tuple[np.ndarray, bool]:
    """``x`` as ``(N, numel)`` float32 rows, and whether it was a batch.

    One input has the graph's input shape; a batch stacks ``N`` of them
    on a leading axis.
    """
    x = np.asarray(x, np.float32)
    shape = tuple(fused.graph.input.out_shape)
    if x.shape == shape:
        return x.reshape(1, -1), False
    if x.shape[1:] == shape:
        return x.reshape(len(x), -1), True
    raise RuntimeSimError(
        f"input of shape {x.shape}: expected {shape} or (N, *{shape})"
    )


def _drain_events(it, kernel_name: str, events) -> None:
    """Append a vectorized interpreter's band events, tagged by kernel."""
    if events is not None and isinstance(it, VectorizedInterpreter):
        events.extend((kernel_name, ev) for ev in it.events)


class BoundForward:
    """One plan's forward, bound for one batch size and interpreter class.

    Binding does once what depends only on (program, plan, fused graph,
    params, batch size): it resolves each invocation's kernel, weights
    and batchnorm scale/shift, allocates its slots (the folded arena,
    the input slot, outputs and scratch buffers) and builds its
    interpreter, which binds its kernel's top-level band plans and the
    strided views of these buffers on its first run.  A forward then
    copies the input into its slot, zeroes each slot a kernel defines
    just before that kernel runs (for an arena slot, the RM001 order),
    and runs the interpreters, which run phase B.  A pipelined forward's
    kernels share one channel map (:class:`ChannelState` per channel):
    each vectorized producer writes its output chunk once, as one
    ``(batch, k)`` array, and its vectorized consumer reads that array
    back with no per-sample pop and no fill check, since the first
    forward proved the fill.  It returns a copy of the output slot.

    Bound forwards live in the plan's memo (``plan.derived``, emptied by
    pickling), one per batch size and interpreter class.  One is bound
    again when the program, the fused graph or the arena differs, or
    when a params entry it read is missing or is another array: replace
    a parameter's array rather than writing into it.  Between forwards
    it holds only what it bound: no band allocation, channel chunk or
    other array of the last run, even when the run raised.  Its slots are shared by every forward of the plan
    at that batch size, so two threads must not run one plan at once.
    """

    def __init__(self, program, fused: FusedGraph, batch: int,
                 memory=None) -> None:
        self.program = program
        self.fused = fused
        self.batch = batch
        #: params entry -> the array binding read from it (None: absent)
        self.params: Dict[str, Optional[np.ndarray]] = {}
        #: the folded arena the slots were cut from, and its offsets then
        self.memory = memory
        self.offsets = dict(memory.offsets) if memory is not None else None
        #: (kernel, interpreter, slots zeroed just before it runs)
        self.steps: List[Tuple[Kernel, Interpreter, List[np.ndarray]]] = []
        #: each interpreter's buffer map, with the names bound into it
        self.maps: List[Tuple[Dict[str, np.ndarray], frozenset]] = []
        self.channels: Dict[str, ChannelState] = {}
        self.x_slot: Optional[np.ndarray] = None
        self.out: Optional[np.ndarray] = None

    def matches(self, program, plan, fused: FusedGraph,
                params: Params) -> bool:
        """True when this binding still describes the caller's inputs."""
        if program is not self.program or fused is not self.fused:
            return False
        if isinstance(plan, FoldedPlan) and (
                plan.memory is not self.memory or (
                    self.memory is not None
                    and self.memory.offsets != self.offsets)):
            return False
        return all(params.get(key) is arr for key, arr in self.params.items())

    def weights(self, prefix: str, fn, params: Params,
                bufs: Dict[str, np.ndarray]) -> None:
        """Bind a fused node's parameters onto a kernel's buffer names."""
        layer = fn.anchor.name
        for suffix, key in (("w", f"{layer}.weight"), ("b", f"{layer}.bias")):
            arr = self.params[key] = params.get(key)
            if arr is not None:
                bufs[f"{prefix}_{suffix}"] = np.ascontiguousarray(
                    arr, np.float32).ravel()
        bn = getattr(fn, "batchnorm_node", None)
        if bn is not None:
            stats = {key: params[key] for key in (
                f"{bn.name}.{stat}" for stat in ("gamma", "beta", "mean", "var"))}
            self.params.update(stats)
            gamma, beta, mean, var = stats.values()
            eps = np.float32(1e-5)
            scale = (gamma / np.sqrt(var + eps)).astype(np.float32)
            shift = (beta - mean * scale).astype(np.float32)
            bufs[f"{prefix}_scale"] = scale
            bufs[f"{prefix}_shift"] = shift

    def scratch(self, kernel: Kernel, bufs: Dict[str, np.ndarray],
                bindings=None) -> List[np.ndarray]:
        """Allocate the kernel's scratch buffers; zeroed before each run
        like fresh ones (one the bindings cannot size is left to
        :meth:`Interpreter.run` to report)."""
        made = []
        for buf in kernel.args:
            if buf.name in kernel.scratch_args and buf.name not in bufs:
                n = buf.num_elements(bindings or {})
                if n is not None:
                    bufs[buf.name] = np.zeros((self.batch, n), np.float32)
                    made.append(bufs[buf.name])
        return made

    def run(self, rows: np.ndarray, events) -> np.ndarray:
        """One forward of ``rows`` (``(batch, numel)``): the output rows."""
        self.x_slot[...] = rows
        try:
            for kernel, it, zeroed in self.steps:
                for slot in zeroed:
                    slot.fill(0.0)
                it.run(kernel)
                _drain_events(it, kernel.name, events)
        finally:
            # drop what the run allocated: band allocations left in the
            # buffer maps, and the channels with any chunk left unread
            self.channels.clear()
            for bufs, bound in self.maps:
                if len(bufs) != len(bound):
                    for name in bufs.keys() - bound:
                        del bufs[name]
        return self.out.copy()


def _bound_forward(plan, program, fused: FusedGraph, params: Params,
                   batch: int, cls: Type[Interpreter], bind) -> BoundForward:
    """The plan's bound forward for ``batch`` and ``cls``, bound now by
    ``bind`` when it is missing or no longer matches its inputs."""
    forwards = plan.derived.setdefault(BoundForward, {})
    fwd = forwards.get((batch, cls))
    if fwd is None or not fwd.matches(program, plan, fused, params):
        forwards.pop((batch, cls), None)  # free the old slots first
        fwd = forwards[batch, cls] = bind(
            program, plan, fused, params, batch, cls)
    return fwd


def _bind_pipelined(program, plan: PipelinePlan, fused: FusedGraph,
                    params: Params, batch: int,
                    cls: Type[Interpreter]) -> BoundForward:
    nodes = list(fused)
    if len(nodes) != len(plan.stages):
        raise RuntimeSimError("plan/graph stage mismatch")
    fwd = BoundForward(program, fused, batch)
    # one buffer map for the whole pipeline, as in global memory
    buffers: Dict[str, np.ndarray] = {}
    first = nodes[0]
    fwd.x_slot = buffers[f"{first.name}_in"] = np.zeros(
        (batch, _numel(fused.graph.input.out_shape)), np.float32)
    stages = []
    for i, (fn, stage) in enumerate(zip(nodes, plan.stages)):
        kernel = program.kernel(stage.kernel_name)
        fwd.weights(fn.name, fn, params, buffers)
        if not stage.channel_in and fn is not first:
            # global-memory handoff: previous output becomes this input
            buffers[f"{fn.name}_in"] = buffers[_output_name(nodes[i - 1])]
        zeroed = []
        out = kernel.output_buffer
        if out is not None and out not in buffers:
            buffers[out] = np.zeros((batch, _numel(fn.out_shape)), np.float32)
            zeroed.append(buffers[out])
        stages.append((kernel, zeroed + fwd.scratch(kernel, buffers)))
    fwd.maps.append((buffers, frozenset(buffers)))
    for kernel, zeroed in stages:
        fwd.steps.append(
            (kernel, cls(buffers, channels=fwd.channels), zeroed))
    out_kernel = program.kernel(plan.stages[-1].kernel_name)
    assert out_kernel.output_buffer is not None
    fwd.out = buffers[out_kernel.output_buffer][:, :_numel(nodes[-1].out_shape)]
    return fwd


def _bind_folded(program, plan: FoldedPlan, fused: FusedGraph,
                 params: Params, batch: int,
                 cls: Type[Interpreter]) -> BoundForward:
    memory = plan.memory
    fwd = BoundForward(program, fused, batch, memory)
    arena = (
        np.zeros((batch, memory.arena_bytes // 4), np.float32)
        if memory is not None else None
    )

    def _slot(name: str, n: int) -> np.ndarray:
        """A value's storage: its arena columns, or a private buffer when
        the plan carries no (or a partial) arena."""
        if arena is not None and name in memory.offsets:
            view = arena[:, memory.offsets[name] // 4:][:, :n]
            if view.shape[1] == n:
                return view
        return np.zeros((batch, n), np.float32)

    in_name = fused.graph.input.name
    fwd.x_slot = _slot(in_name, _numel(fused.graph.input.out_shape))
    values: Dict[str, np.ndarray] = {in_name: fwd.x_slot}
    node_of = {fn.name: fn for fn in fused}
    for inv in plan.invocations:
        fn = node_of[inv.layer]
        kernel = program.kernel(inv.kernel_name)
        prefix = inv.buffer_prefix
        bufs: Dict[str, np.ndarray] = {}
        bufs[f"{prefix}_in"] = values[inv.input_node]
        fwd.weights(prefix, fn, params, bufs)
        for extra in inv.extra_input_nodes:
            bufs[f"{prefix}_res"] = values[extra]
        out_name = kernel.output_buffer
        assert out_name is not None
        out = bufs[out_name] = _slot(fn.output_node.name, _numel(fn.out_shape))
        zeroed = [out] + fwd.scratch(kernel, bufs, inv.bindings)
        fwd.maps.append((bufs, frozenset(bufs)))
        fwd.steps.append((kernel, cls(bufs, bindings=inv.bindings), zeroed))
        values[fn.output_node.name] = out
        # intermediate epilogue nodes share the kernel's output value
        values[fn.anchor.name] = out
        fwd.out = out
    assert fwd.out is not None
    return fwd


def run_pipelined_functional(
    program,
    plan: PipelinePlan,
    fused: FusedGraph,
    x: np.ndarray,
    params: Params,
    interp: str = "vector",
    events: Optional[List[Tuple[str, object]]] = None,
) -> np.ndarray:
    """Interpret a pipelined program on one input or a batch of them.

    ``x`` is one input (the graph's input shape) or a batch of ``N``
    stacked on a leading axis; the result is the flat output, or one
    row per sample.  Kernels run producer-first with shared channel
    state (functionally equivalent to the concurrent execution the
    hardware performs, since channels are FIFOs; a batch keeps one
    stream per sample).  ``interp`` selects the vectorized (default) or
    scalar interpreter; both produce bit-identical float32 results.
    When ``events`` is a list and the vectorized interpreter runs, it
    receives ``(kernel_name, BandEvent)`` pairs for fallback auditing.
    The forward runs through the plan's :class:`BoundForward` for this
    batch size and interpreter.
    """
    cls = _interpreter_class(interp)
    rows, batched = _batch(x, fused)
    fwd = _bound_forward(plan, program, fused, params, len(rows), cls,
                 _bind_pipelined)
    out = fwd.run(rows, events)
    return out if batched else out[0]


def run_folded_functional(
    program,
    plan: FoldedPlan,
    fused: FusedGraph,
    x: np.ndarray,
    params: Params,
    interp: str = "vector",
    events: Optional[List[Tuple[str, object]]] = None,
) -> np.ndarray:
    """Interpret a folded program layer-invocation by layer-invocation.

    ``x`` is one input or a batch, as for
    :func:`run_pipelined_functional`; every invocation runs the whole
    batch, through the plan's :class:`BoundForward`.  When the plan
    carries a certified ``memory`` arena
    (:class:`repro.verify.memory.MemoryPlan`), activations live in
    views of one shared float32 array at their assigned offsets — the
    deployment allocates the arena (one row of it per sample), not one
    buffer per activation.  Zero-filling a slot before its defining
    invocation is bit-identical to allocating a fresh zeroed buffer:
    the RM001 proof is exactly the statement that no still-needed value
    shares those bytes.
    """
    cls = _interpreter_class(interp)
    rows, batched = _batch(x, fused)
    fwd = _bound_forward(plan, program, fused, params, len(rows), cls, _bind_folded)
    out = fwd.run(rows, events)
    return out if batched else out[0]


def _output_name(fn) -> str:
    """Kernel output-buffer name for a fused node (softmax stores to
    its _norm stage tensor)."""
    if fn.op == "softmax":
        return f"{fn.name}_norm"
    return fn.name


def _numel(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n
