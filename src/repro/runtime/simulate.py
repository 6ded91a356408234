"""Discrete-time execution model of the OpenCL host runtime.

The one model that costs a deployment plan against a compiled bitstream
— one inference, or the steady-state throughput over many:

* **serial execution** (one in-order command queue): kernel times, host
  enqueue overheads and transfers add up per image (thesis §6.3.1's
  non-[CE] bars);
* **concurrent execution** (one queue per kernel + channels): the layer
  pipeline overlaps across stages and images, so steady-state throughput
  is set by the slowest of (bottleneck stage, host enqueue serialization,
  input/output transfers) — the [CE] bars;
* autorun kernels cost no host interaction at all (§4.7).

Every command the host enqueues — the input write, each non-autorun
kernel launch (labelled by layer), the output read — probes its
``enqueue.*`` fault site; channel-fed stages probe ``channel`` and every
run probes ``device``.  With no fault plan active the probes are no-ops.

Event profiling (Fig 6.2) is modelled by per-image kernel/write/read time
totals, with the thesis's observation that enabling the profiler forces
serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.aoc.compiler import Bitstream
from repro.device.transfer import d2h_time_us, h2d_time_us
from repro.errors import DeviceLostError, TransferError
from repro.runtime.plan import FoldedPlan, Invocation, PipelinePlan

__all__ = [
    "RunResult",
    "simulate_pipelined",
    "simulate_folded",
    "simulate_batched",
    "event_profile",
]

#: duration assigned to an injected hang when the fault gives no param;
#: far beyond any watchdog budget, so hangs are always caught
_HANG_US = 1e12


def _probe_fault(site: str, label: str = ""):
    """Probe the active fault plan (no-op without one).

    Imported lazily so the runtime has no import-time dependency on the
    resilience package.
    """
    from repro.resilience.faults import probe

    return probe(site, label)


def _check_device_lost(label: str) -> None:
    """Raise an injected device-lost event if the fault plan says so."""
    fault = _probe_fault("device", label)
    if fault is not None and fault.kind == "device_lost":
        err = DeviceLostError(
            f"injected: device lost while running {label!r} (fault plan)"
        )
        err.injected = True
        err.transient = fault.transient
        raise err


def _enqueue(kind: str, label: str, duration_us: float) -> float:
    """Probe one host command's ``enqueue.<kind>`` fault site.

    Returns the command's duration: unchanged without a fault, ``param
    or`` :data:`_HANG_US` under a ``hang`` (so the caller's watchdog
    budget catches it).  A ``dma`` fault raises :class:`TransferError`;
    recovering from it is the caller's retry policy.
    """
    fault = _probe_fault(f"enqueue.{kind}", label)
    if fault is None:
        return duration_us
    if fault.kind == "hang":
        return fault.param or _HANG_US
    if fault.kind == "dma":
        err = TransferError(
            f"injected: DMA transfer failure on {kind} of {label!r}"
        )
        err.injected = True
        err.transient = fault.transient
        raise err
    return duration_us


@dataclass
class RunResult:
    """Timing outcome of a simulated deployment."""

    time_per_image_us: float
    fps: float
    #: per-stage / per-invocation device times, microseconds
    stage_times_us: Dict[str, float] = field(default_factory=dict)
    #: host-side overhead per image, microseconds
    host_overhead_us: float = 0.0
    #: transfer times per image, microseconds
    write_us: float = 0.0
    read_us: float = 0.0

    def gflops(self, flops_per_image: int) -> float:
        """Achieved GFLOPS given the network's per-image FLOP count."""
        return flops_per_image / (self.time_per_image_us * 1e3)


def _stage_device_time(bs: Bitstream, stage) -> float:
    t = bs.kernel_time_us(stage.kernel_name)
    return t if stage.autorun else _enqueue("kernel", stage.layer, t)


def simulate_pipelined(
    bs: Bitstream,
    plan: PipelinePlan,
    concurrent: bool,
) -> RunResult:
    """Cost a pipelined deployment (LeNet-style).

    ``concurrent=False`` models a single in-order command queue;
    ``concurrent=True`` models one queue per kernel with channel/event
    synchronization.
    """
    _check_device_lost(bs.program.name)
    c = bs.constants
    board = bs.board
    write_us = _enqueue("write", "input", h2d_time_us(board, plan.input_bytes))
    stage_times = {s.layer: _stage_device_time(bs, s) for s in plan.stages}
    _apply_channel_stalls(plan, stage_times)
    read_us = _enqueue("read", "output", d2h_time_us(board, plan.output_bytes))
    n_enqueued = sum(1 for s in plan.stages if not s.autorun)
    enqueue_us = n_enqueued * board.enqueue_overhead_us
    launch_us = n_enqueued * c.launch_latency_us

    if not concurrent:
        total = (
            write_us
            + read_us
            + sum(stage_times.values())
            + enqueue_us
            + launch_us
        )
        return RunResult(
            time_per_image_us=total,
            fps=1e6 / total,
            stage_times_us=stage_times,
            host_overhead_us=enqueue_us + launch_us,
            write_us=write_us,
            read_us=read_us,
        )

    # concurrent: throughput set by the slowest resource in steady state.
    # Without channels the layer chain of ONE image is still serial
    # (global-memory dependencies), but successive images overlap — the
    # bottleneck is the whole chain divided by the overlap the queues
    # provide... in practice dependent kernels cannot overlap within an
    # image, so only transfers/launches hide; with channels every stage is
    # a true pipeline stage.
    if plan.uses_channels:
        stage_eff = _coupled_stage_times(bs, plan, stage_times)
        bottleneck = max(
            max(stage_eff.values()),
            enqueue_us,  # host serializes one image's enqueues
            write_us,
            read_us,
        )
    else:
        device_chain = sum(stage_times.values()) + launch_us
        bottleneck = max(device_chain, enqueue_us, write_us, read_us)
    return RunResult(
        time_per_image_us=bottleneck,
        fps=1e6 / bottleneck,
        stage_times_us=stage_times,
        host_overhead_us=enqueue_us,
        write_us=write_us,
        read_us=read_us,
    )


def _apply_channel_stalls(
    plan: PipelinePlan, stage_times: Dict[str, float]
) -> None:
    """Fold injected channel stalls into per-stage device times.

    A ``stall`` fault adds its duration to the stalled consumer's stage
    time (back-pressure that eventually drains); a ``hang`` fault is a
    producer that never refills the channel, diagnosed as a deadlock
    naming the blocked stage and the starved channel.
    """
    for i, stage in enumerate(plan.stages):
        if not stage.channel_in:
            continue
        fault = _probe_fault("channel", stage.layer)
        if fault is None:
            continue
        producer = plan.stages[i - 1] if i else None
        channel = f"ch_{producer.layer}" if producer else f"ch_{stage.layer}"
        if fault.kind == "hang":
            from repro.resilience.watchdog import Watchdog

            Watchdog().channel_stalled(
                stage=stage.layer, channel=channel, occupancy=0,
                depth=producer.channel_depth if producer else 0,
            )
        stall_us = fault.param or 500.0
        from repro.resilience.events import record

        record(
            "stall", "channel",
            f"{stage.layer}: channel {channel} back-pressure stalled the "
            f"consumer for {stall_us:.0f}us",
            stall_us=stall_us,
        )
        stage_times[stage.layer] += stall_us


def simulate_folded(bs: Bitstream, plan: FoldedPlan) -> RunResult:
    """Cost a folded deployment (MobileNet/ResNet-style, serial queue)."""
    return simulate_batched(bs, plan, 1)


def simulate_batched(
    bs: Bitstream,
    plan,
    batch: int,
    concurrent: bool = True,
) -> RunResult:
    """Cost ``batch`` images dispatched to the device as one unit.

    Batching changes the host side, not the kernels: inputs/outputs move
    in one coalesced DMA each (riding the transfer-rate ramp of
    Appendix A), and per-layer host dispatch happens once per batch
    instead of once per image — folded invocations take a batch
    dimension exactly like the thesis's parameterized kernels take
    shape arguments, and a pipelined kernel system refills its layer
    pipeline once per batch.  Device compute still scales linearly with
    the batch.

    Returns a :class:`RunResult` whose ``time_per_image_us``/``fps`` are
    the per-image amortized numbers; the batch's total service time is
    ``time_per_image_us * batch``.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    _check_device_lost(bs.program.name)
    c = bs.constants
    board = bs.board

    if isinstance(plan, FoldedPlan):
        write_us = _enqueue(
            "write", "input", h2d_time_us(board, plan.input_bytes * batch)
        )
        stage_times: Dict[str, float] = {}
        device_us = 0.0
        for inv, t in _invocation_times(bs, plan):
            t = _enqueue("kernel", inv.layer, t)
            stage_times[inv.layer] = t
            device_us += t
        read_us = _enqueue(
            "read", "output", d2h_time_us(board, plan.output_bytes * batch)
        )
        host = len(plan.invocations) * (
            board.enqueue_overhead_us + c.launch_latency_us
        )
        total = write_us + read_us + batch * device_us + host
        return RunResult(
            time_per_image_us=total / batch,
            fps=1e6 * batch / total,
            stage_times_us=stage_times,
            host_overhead_us=host,
            write_us=write_us,
            read_us=read_us,
        )

    # pipelined: fill the layer pipeline once (the first image's full
    # chain), then stream the remaining images at the steady-state
    # bottleneck the single-image model already derives
    single = simulate_pipelined(bs, plan, concurrent)
    write_us = h2d_time_us(board, plan.input_bytes * batch)
    read_us = d2h_time_us(board, plan.output_bytes * batch)
    if not concurrent:
        # a serial queue has no overlap: the per-image chain repeats,
        # only the transfers coalesce
        chain_us = single.time_per_image_us - single.write_us - single.read_us
        total = write_us + read_us + batch * chain_us
    else:
        fill_us = sum(single.stage_times_us.values()) + single.host_overhead_us
        total = write_us + read_us + fill_us + (batch - 1) * single.time_per_image_us
    return RunResult(
        time_per_image_us=total / batch,
        fps=1e6 * batch / total,
        stage_times_us=single.stage_times_us,
        host_overhead_us=single.host_overhead_us,
        write_us=write_us,
        read_us=read_us,
    )


def _coupled_stage_times(
    bs: Bitstream, plan: PipelinePlan, stage_times: Dict[str, float]
) -> Dict[str, float]:
    """Channel back-pressure (§4.6): a FIFO shallower than the producer's
    output couples neighbouring stages — the producer stalls on a full
    channel for the fraction of its output the FIFO cannot absorb, so
    that fraction of the *slower* neighbour's time bleeds into both.
    Depth >= OFM (the §4.11 sizing rule) decouples them completely."""
    eff = dict(stage_times)
    stages = plan.stages
    for producer, consumer in zip(stages, stages[1:]):
        if not producer.channel_out or producer.output_elems <= 0:
            continue
        uncovered = 1.0 - min(1.0, producer.channel_depth / producer.output_elems)
        if uncovered <= 0.0:
            continue
        tp = stage_times[producer.layer]
        tc = stage_times[consumer.layer]
        slower_layer = producer.layer if tp >= tc else consumer.layer
        # the slower stage absorbs stall time proportional to the faster
        # neighbour's work it can no longer overlap with
        penalty = 0.5 * uncovered * min(tp, tc)
        eff[slower_layer] = eff[slower_layer] + penalty
    return eff


def _invocation_times(
    bs: Bitstream, plan: FoldedPlan
) -> Iterator[Tuple[Invocation, float]]:
    """Each folded invocation with its device time (us), in plan order."""
    for inv in plan.invocations:
        yield inv, bs.kernel_time_us(inv.kernel_name, inv.bindings)


def event_profile(result: RunResult) -> Dict[str, float]:
    """Fig 6.2-style breakdown: kernel / write / read / overhead (us)."""
    kernel_us = sum(result.stage_times_us.values())
    return {
        "kernel_us": kernel_us,
        "write_us": result.write_us,
        "read_us": result.read_us,
        "overhead_us": result.host_overhead_us,
    }


def per_op_profile(
    bs: Bitstream, plan: FoldedPlan
) -> Dict[str, Dict[str, float]]:
    """Aggregate folded-invocation times and GFLOPS by operation label.

    Reproduces the thesis's Tables 6.8/6.16 (per-op average GFLOPS and
    share of runtime).
    """
    agg: Dict[str, Dict[str, float]] = {}
    for inv, t in _invocation_times(bs, plan):
        row = agg.setdefault(inv.op_label, {"time_us": 0.0, "flops": 0.0})
        row["time_us"] += t
        row["flops"] += inv.flops
    total_time = sum(r["time_us"] for r in agg.values())
    for row in agg.values():
        row["gflops"] = (
            row["flops"] / (row["time_us"] * 1e3) if row["time_us"] > 0 else 0.0
        )
        row["time_share"] = row["time_us"] / total_time if total_time else 0.0
    return agg
