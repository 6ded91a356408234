"""Outside-in span tracer for the benchmark.

The tracer never edits the program. It replaces a public function at the
place its caller looks it up (a module global or a class attribute) with
a wrapper that records one span per call, and puts every original back
when the ``with`` block ends. A renamed or moved function makes
:meth:`Tracer.__enter__` raise ``AttributeError`` naming it, instead of
leaving a silent zero in the per-layer table.

A span records its name, start and end (``perf_counter_ns``), the index
of its parent span and the benchmark operation id it belongs to; an
``annotate`` hook may attach counts read from the call's arguments and
result. Spans stay in memory until :func:`write_chrome_trace` writes them
out as Chrome trace-event JSON (open it in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "Patch", "PATCHES", "self_times",
           "format_table", "layer_metrics", "write_chrome_trace"]

_COMPILE = ("compile-cold", "dse-sweep")
_INFER = ("infer-twins", "serve-lenet")


class Span:
    """One recorded call."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "op", "args")

    def __init__(self, name: str, start_ns: int, parent: int, op: int) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.op = op
        self.args: Dict[str, object] = {}

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


Annotate = Callable[[Span, tuple, dict, object, Optional[BaseException]], None]


class Patch(NamedTuple):
    """One lookup site to wrap: ``module:attr`` or ``module:Class.attr``."""

    target: str
    span: str
    #: workloads whose measured operations must call it at least once
    fires_in: Tuple[str, ...]
    annotate: Optional[Annotate] = None


# -- annotate hooks: counts read from a call's arguments and result ---------


def _error(span: Span, err: Optional[BaseException]) -> None:
    if err is not None:
        span.args["error"] = type(err).__name__


def _note_error(span, args, kwargs, result, err) -> None:
    _error(span, err)


def _note_source(span, args, kwargs, result, err) -> None:
    _error(span, err)
    if isinstance(result, str):
        span.args["bytes"] = len(result.encode())


def _note_lower(span, args, kwargs, result, err) -> None:
    _error(span, err)
    stats = getattr(result, "lower_cache", None) or {}
    span.args["hits"] = stats.get("hits", 0)
    span.args["misses"] = stats.get("misses", 0)


def _note_certify(span, args, kwargs, result, err) -> None:
    _error(span, err)
    if result is not None:
        report, _ = result
        span.args["certified"] = report.counters.get("equiv_certified", 0)


def _note_pipeline(span, args, kwargs, result, err) -> None:
    _error(span, err)
    trace = getattr(result, "trace", None)
    if trace is None and err is not None:
        diag = getattr(err, "diagnostic", None)
        trace = getattr(diag, "trace", None)
    records = trace.records if trace is not None else []
    span.args["cache_hits"] = sum(1 for r in records if r.cache == "hit")


def _note_prune(span, args, kwargs, result, err) -> None:
    _error(span, err)
    span.args["pruned"] = sum(1 for d in result or () if d.pruned)


def _note_executor(span, args, kwargs, result, err) -> None:
    _error(span, err)
    fused = args[2] if len(args) > 2 else kwargs["fused"]
    span.args["net"] = net_key(fused.graph.name)


def _note_kernel(span, args, kwargs, result, err) -> None:
    _error(span, err)
    interp, kernel = args[0], args[1]
    span.args["kernel"] = kernel.name
    span.args["bytes"] = sum(
        interp.buffers[b.name].nbytes
        for b in kernel.args if b.name in interp.buffers
    )
    vectorized = fallback = 0
    for ev in interp.events:
        if ev.kind == "vectorized":
            vectorized += 1
        else:
            fallback += 1
    span.args["vectorized"] = vectorized
    span.args["fallback"] = fallback


def _note_serve(span, args, kwargs, result, err) -> None:
    _error(span, err)
    server = args[0]
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    span.args["requests"] = len(trace)
    span.args["logits_hits"] = server.logits_cache.hits
    span.args["logits_misses"] = server.logits_cache.misses


def net_key(graph_name: str) -> str:
    """Network key of a graph: the twins report as the network they stand for."""
    return graph_name.removesuffix("_twin")


#: every wrapped lookup site, in the order the layers run
PATCHES: Tuple[Patch, ...] = (
    Patch("repro.pipeline.pipeline:Pipeline.run", "pipeline.run", _COMPILE,
          _note_pipeline),
    Patch("repro.flow.stages:fuse_operators", "relay.fuse_operators",
          ("compile-cold",)),
    Patch("repro.flow.stages:schedule_pipelined", "schedule.schedule_pipelined",
          ("compile-cold",)),
    Patch("repro.flow.stages:schedule_folded", "schedule.schedule_folded",
          _COMPILE),
    Patch("repro.flow.stages:lower_pipelined", "lower.lower_pipelined",
          ("compile-cold",), _note_lower),
    Patch("repro.flow.stages:lower_folded", "lower.lower_folded",
          _COMPILE, _note_lower),
    Patch("repro.flow.stages:generate_opencl", "codegen.generate_opencl",
          _COMPILE, _note_source),
    Patch("repro.flow.stages:verify_build", "verify.verify_build", _COMPILE),
    Patch("repro.verify.equiv:certify_build", "verify.certify_build", _COMPILE,
          _note_certify),
    Patch("repro.verify.memory:check_memory", "verify.check_memory", _COMPILE),
    Patch("repro.flow.stages:synthesize_resilient", "aoc.synthesize_resilient",
          _COMPILE, _note_error),
    Patch("repro.flow.stages:plan_pipelined", "plan.plan_pipelined",
          ("compile-cold",)),
    Patch("repro.flow.stages:plan_folded", "plan.plan_folded", _COMPILE),
    Patch("repro.flow.dse:evaluate_tiling", "dse.evaluate_tiling",
          ("dse-sweep",)),
    Patch("repro.verify.dominance:plan_conv_sweep", "dse.plan_conv_sweep",
          ("dse-sweep",), _note_prune),
    Patch("repro.runtime.executor:run_pipelined_functional",
          "executor.run_pipelined_functional", _INFER, _note_executor),
    Patch("repro.runtime.executor:run_folded_functional",
          "executor.run_folded_functional", ("infer-twins",), _note_executor),
    Patch("repro.ir.vinterp:VectorizedInterpreter.run", "vinterp.run", _INFER,
          _note_kernel),
    Patch("repro.serve.replica:Replica.forward", "serve.forward",
          ("serve-lenet",)),
    Patch("repro.serve.replica:Replica.service_us", "serve.service_us",
          ("serve-lenet",)),
    Patch("repro.serve.server:Server.run", "serve.run", ("serve-lenet",),
          _note_serve),
)


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    getattr(owner, attr)  # fail by name if the function moved
    return owner, attr


class Tracer:
    """Records spans for the calls made inside its ``with`` blocks.

    Each ``with`` block installs the wrappers and restores the originals;
    spans accumulate across blocks.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: benchmark operation id stamped on new spans (-1: outside any op)
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, bool, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for patch in PATCHES:
                self._install(patch)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, patch: Patch) -> None:
        owner, attr = _resolve(patch.target)
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, self._wrap(getattr(owner, attr), patch))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:  # the class inherited it: drop the shadowing wrapper
                delattr(owner, attr)

    def _wrap(self, fn: Callable, patch: Patch) -> Callable:
        spans, stack = self.spans, self._stack
        name, annotate = patch.span, patch.annotate

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            result = err = None
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if annotate is not None:
                    annotate(span, args, kwargs, result, err)

        return traced


def self_times(spans: List[Span], durations: List[float]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = list(durations)
    for s, ns in zip(spans, durations):
        if s.parent >= 0:
            own[s.parent] -= ns
    return own


def format_table(spans: List[Span], durations: List[float], ops: int) -> str:
    """Per-span-name calls, inclusive and self time, heaviest self first."""
    rows: Dict[str, List[float]] = {}
    for s, ns, own in zip(spans, durations, self_times(spans, durations)):
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += ns / 1e6
        row[2] += own / 1e6
    total_self = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'span':<36} {'calls':>7} {'incl ms':>10} {'self ms':>10} "
             f"{'self %':>7} {'self ms/op':>11}"]
    for name, (calls, incl, own) in sorted(rows.items(),
                                           key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<36} {calls:>7} {incl:>10.1f} {own:>10.1f} "
                     f"{100 * own / total_self:>6.1f}% "
                     f"{own / max(ops, 1):>11.3f}")
    return "\n".join(lines)


def write_chrome_trace(spans: List[Span], path: str) -> None:
    """Write spans as Chrome trace-event JSON (complete ``X`` events, us)."""
    t0 = min((s.start_ns for s in spans), default=0)
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start_ns - t0) / 1e3,
            "dur": s.ns / 1e3,
            "pid": 1,
            "tid": 1,
            "args": dict(s.args, op=s.op, span=i, parent=s.parent),
        }
        for i, s in enumerate(spans)
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def layer_metrics(spans: List[Span], durations: List[float],
                  ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced window of ``ops`` operations.

    ``durations`` gives each span's length in ns. Times are self times (a span's duration minus its child spans) in ms
    per operation, except: ``vinterp.*`` and ``executor.*`` rows are per
    forward of their network (``executor.forward_ms`` is inclusive);
    ``serve.run_ms``, ``serve.forward_ms`` and ``serve.service_model_ms``
    are inclusive; ``dse.point_ms_p50`` is the median inclusive time of
    one design point; ``codegen.source_bytes`` is per emitted source. A
    layer the workload never calls reads 0.
    """
    own = self_times(spans, durations)
    rows: Dict[str, List[float]] = {}  # span name -> [calls, incl ms, self ms]
    args: Dict[Tuple[str, str], float] = {}  # (span name, arg) -> sum
    net_sums: Dict[Tuple[str, str], float] = {}  # (metric, net) -> sum
    forwards: Dict[str, int] = {}
    points_ms: List[float] = []
    fit_failures = 0
    for s, ns, own_ns in zip(spans, durations, own):
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += ns / 1e6
        row[2] += own_ns / 1e6
        for arg, value in s.args.items():
            if isinstance(value, (int, float)):
                args[s.name, arg] = args.get((s.name, arg), 0) + value
        if s.name.startswith("aoc.") and s.args.get("error") == "FitError":
            fit_failures += 1
        if s.name == "dse.evaluate_tiling":
            points_ms.append(ns / 1e6)
            continue
        if s.name.startswith("executor."):
            net = s.args["net"]
            forwards[net] = forwards.get(net, 0) + 1
            sums = [(f"executor.self_ms.{net}", own_ns / 1e6),
                    (f"executor.forward_ms.{net}", ns / 1e6)]
        elif s.name == "vinterp.run":
            net, kernel = spans[s.parent].args["net"], s.args["kernel"]
            sums = [(f"vinterp.ms.{net}.{kernel}", own_ns / 1e6),
                    (f"vinterp.bands_vectorized.{net}", s.args["vectorized"]),
                    (f"vinterp.bands_fallback.{net}", s.args["fallback"])]
            if s.args["bytes"]:  # kernels wired only by channels have none
                sums.append((f"vinterp.bytes.{net}.{kernel}", s.args["bytes"]))
        else:
            continue
        for metric, value in sums:
            net_sums[metric, net] = net_sums.get((metric, net), 0) + value

    def total(prefix: str, stat: int) -> float:
        return sum(row[stat] for name, row in rows.items()
                   if name == prefix or name.startswith(prefix + "."))

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, incl, self_ms = 0, 1, 2
    hits = args.get(("serve.run", "logits_hits"), 0)
    metrics = {
        "relay.fuse_ms": per_op(total("relay", self_ms)),
        "schedule.ms": per_op(total("schedule", self_ms)),
        "lower.ms": per_op(total("lower", self_ms)),
        "lower.cache_hits": per_op(
            args.get(("lower.lower_folded", "hits"), 0)
            + args.get(("lower.lower_pipelined", "hits"), 0)),
        "lower.cache_misses": per_op(
            args.get(("lower.lower_folded", "misses"), 0)
            + args.get(("lower.lower_pipelined", "misses"), 0)),
        "codegen.ms": per_op(total("codegen", self_ms)),
        "codegen.source_bytes": ratio(
            args.get(("codegen.generate_opencl", "bytes"), 0),
            total("codegen", calls)),
        "verify.build_ms": per_op(total("verify.verify_build", self_ms)),
        "verify.certify_ms": per_op(total("verify.certify_build", self_ms)),
        "verify.memory_ms": per_op(total("verify.check_memory", self_ms)),
        "verify.equiv_certified": per_op(
            args.get(("verify.certify_build", "certified"), 0)),
        "aoc.synthesize_ms": per_op(total("aoc", self_ms)),
        "aoc.fit_failures": per_op(fit_failures),
        "plan.ms": per_op(total("plan", self_ms)),
        "plan.calls_per_build": ratio(total("plan", calls),
                                      total("pipeline.run", calls)),
        "pipeline.self_ms": per_op(total("pipeline.run", self_ms)),
        "pipeline.cache_hits": per_op(
            args.get(("pipeline.run", "cache_hits"), 0)),
        "dse.prune_ms": per_op(total("dse.plan_conv_sweep", self_ms)),
        "dse.evaluated_points": per_op(total("dse.evaluate_tiling", calls)),
        "dse.pruned_points": per_op(
            args.get(("dse.plan_conv_sweep", "pruned"), 0)),
        "dse.point_ms_p50": (statistics.median(points_ms)
                             if points_ms else 0.0),
        "serve.run_ms": per_op(total("serve.run", incl)),
        "serve.loop_self_ms": per_op(total("serve.run", self_ms)),
        "serve.forward_ms": per_op(total("serve.forward", incl)),
        "serve.service_model_ms": per_op(total("serve.service_us", incl)),
        "serve.forwards_per_request": ratio(
            total("serve.forward", calls),
            args.get(("serve.run", "requests"), 0)),
        "serve.logits_hit_ratio": ratio(
            hits, hits + args.get(("serve.run", "logits_misses"), 0)),
    }
    for (metric, net), value in net_sums.items():
        metrics[metric] = value / forwards[net]
    return metrics
