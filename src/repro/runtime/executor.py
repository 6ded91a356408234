"""Functional execution of compiled deployments through the IR interpreter.

This is the reproduction's equivalent of the thesis's output-verification
step ("A real image is used to validate the implementation once"): the
*generated kernels themselves* are executed — channel FIFOs, symbolic
bindings and all — and their outputs compared against the NumPy reference.

Both entry points take one input or a batch stacked on a leading axis.
A batch runs through each kernel invocation once: activations, arena
slots and outputs are ``(N, numel)`` arrays (the folded arena is
``(N, arena_floats)``), weights stay 1-D and shared, and channels keep
one FIFO stream per sample.  Each sample's output is bitwise its batch-1
output; one input is a batch of one.

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


def _weights_for(prefix: str, fn, params: Params, bufs: Dict[str, np.ndarray]) -> None:
    """Bind a fused node's parameters onto a kernel's buffer names."""
    layer = fn.anchor.name
    w = params.get(f"{layer}.weight")
    if w is not None:
        bufs[f"{prefix}_w"] = np.ascontiguousarray(w, np.float32).ravel()
    b = params.get(f"{layer}.bias")
    if b is not None:
        bufs[f"{prefix}_b"] = np.ascontiguousarray(b, np.float32).ravel()
    bn = getattr(fn, "batchnorm_node", None)
    if bn is not None:
        eps = np.float32(1e-5)
        gamma = params[f"{bn.name}.gamma"]
        beta = params[f"{bn.name}.beta"]
        mean = params[f"{bn.name}.mean"]
        var = params[f"{bn.name}.var"]
        scale = (gamma / np.sqrt(var + eps)).astype(np.float32)
        shift = (beta - mean * scale).astype(np.float32)
        bufs[f"{prefix}_scale"] = scale
        bufs[f"{prefix}_shift"] = shift


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
    """
    cls = _interpreter_class(interp)
    nodes = list(fused)
    if len(nodes) != len(plan.stages):
        raise RuntimeSimError("plan/graph stage mismatch")
    rows, batched = _batch(x, fused)
    buffers: Dict[str, np.ndarray] = {}
    channels: Dict[str, ChannelState] = {}

    # network input feeds the first kernel's input tensor
    first = nodes[0]
    buffers[f"{first.name}_in"] = rows

    for fn, stage in zip(nodes, plan.stages):
        kernel = program.kernel(stage.kernel_name)
        _weights_for(fn.name, fn, params, buffers)
        if not stage.channel_in and fn is not first:
            # global-memory handoff: previous output becomes this input
            prev_out = nodes[nodes.index(fn) - 1]
            src = _output_name(prev_out)
            buffers[f"{fn.name}_in"] = buffers[src]
        if kernel.output_buffer is not None and kernel.output_buffer not in buffers:
            n = _numel(fn.out_shape)
            buffers[kernel.output_buffer] = np.zeros((len(rows), n),
                                                     np.float32)
        it = cls(buffers, channels=channels)
        it.run(kernel)
        _drain_events(it, kernel.name, events)

    out_kernel = program.kernel(plan.stages[-1].kernel_name)
    assert out_kernel.output_buffer is not None
    n = _numel(nodes[-1].out_shape)
    out = buffers[out_kernel.output_buffer][:, :n]
    return out.copy() if batched else out[0].copy()


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
    batch.  When the plan carries a certified ``memory`` arena
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
    memory = getattr(plan, "memory", None)
    arena = (
        np.zeros((len(rows), memory.arena_bytes // 4), np.float32)
        if memory is not None else None
    )

    def _slot(name: str, n: int) -> np.ndarray:
        """Fresh zeroed storage for a value: its arena columns, or a
        private buffer when the plan carries no (or a partial) arena."""
        if arena is not None and name in memory.offsets:
            view = arena[:, memory.offsets[name] // 4:][:, :n]
            if view.shape[1] == n:
                view[:] = 0.0
                return view
        return np.zeros((len(rows), n), np.float32)

    in_name = fused.graph.input.name
    x_slot = _slot(in_name, rows.shape[1])
    x_slot[:] = rows
    values: Dict[str, np.ndarray] = {in_name: x_slot}
    node_of = {fn.name: fn for fn in fused}
    last = None
    for inv in plan.invocations:
        fn = node_of[inv.layer]
        kernel = program.kernel(inv.kernel_name)
        prefix = inv.buffer_prefix
        bufs: Dict[str, np.ndarray] = {}
        bufs[f"{prefix}_in"] = values[inv.input_node]
        _weights_for(prefix, fn, params, bufs)
        for extra in inv.extra_input_nodes:
            bufs[f"{prefix}_res"] = values[extra]
        out_name = kernel.output_buffer
        assert out_name is not None
        n = _numel(fn.out_shape)
        bufs[out_name] = _slot(fn.output_node.name, n)
        it = cls(bufs, bindings=inv.bindings)
        it.run(kernel)
        _drain_events(it, kernel.name, events)
        values[fn.output_node.name] = bufs[out_name]
        # intermediate epilogue nodes share the kernel's output value
        values[fn.anchor.name] = bufs[out_name]
        last = bufs[out_name]
    assert last is not None
    return last.copy() if batched else last[0].copy()


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
