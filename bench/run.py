#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the results.

    python3 bench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --trace 1

A run sets up the workload several times (``setup_s`` is the median),
then runs its operations one at a time, back to back, until ``--seconds``
have passed, timing each operation and checking its output outside the
timed region. The program is imported from ``src/`` next to this
directory; nothing under it is changed.

``--trace 1`` runs every operation twice on the same input, once under
the outside-in tracer of :mod:`spans`, alternating which goes first. It
prints the per-layer metrics of the traced runs, writes their spans to
``<trace-dir>/<workload>.trace.json`` and reports the tracing overhead.

Standard output carries two JSON lines per workload: a record (workload,
seed, every metric with its unit, ``ops``, ``ops_failed``, digests) and,
last, the result object ``{"correct", "attempted", "failed", "metrics"}``.
Tables for people go to standard error. The exit code is 1 when any
operation or canary fails its check, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
#: setups per run; setup_s is their median
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: switches that would change what the program runs or where it writes
PROGRAM_VARS = ("REPRO_INTERP", "REPRO_CACHE_DIR", "REPRO_FAULT_SEED")


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Window:
    """Timed operations of one measurement window."""

    def __init__(self, cycle: int) -> None:
        self.cycle = cycle
        #: (start, end) of each operation, ns
        self.ops = []
        self.work = []
        self.labels = []
        self.failed = 0
        self.problems = []

    def times_ns(self, clock) -> list:
        return [clock(t0, t1) for t0, t1 in self.ops]

    def end_to_end(self, clock) -> dict:
        """Typical operation time and median per-cycle throughput.

        ``op_ms_p50`` is the geometric mean, over the kinds of operation
        in the mix (``workload.label``), of each kind's median time. The
        median of all operations of a mix would fall wherever the kinds'
        time ranges meet, and jump between them as the host's load
        changes; each kind counts alike, so a faster LeNet-5 shows here
        even where ``work_per_s`` is set by the larger networks.
        """
        ns, c = self.times_ns(clock), self.cycle
        rates = [sum(self.work[j:j + c]) / (sum(ns[j:j + c]) / 1e9)
                 for j in range(0, len(ns), c)]
        return {"op_ms_p50": statistics.geometric_mean(
                    self.label_p50_ms(clock).values()),
                "work_per_s": statistics.median(rates)}

    def label_p50_ms(self, clock) -> dict:
        by_label = {}
        for label, ns in zip(self.labels, self.times_ns(clock)):
            by_label.setdefault(label, []).append(ns)
        return {k: statistics.median(v) / 1e6
                for k, v in sorted(by_label.items())}


def timed(fn, *args):
    """``(result, (start, end))`` of one call, ns."""
    t0 = time.perf_counter_ns()
    result = fn(*args)
    return result, (t0, time.perf_counter_ns())


def measure(workload, state, seed: int, seconds: float, tracer=None) -> list:
    """Run operations 0, 1, ... until ``seconds`` pass; return ``[window]``.

    The window always ends on a whole cycle of the workload's mix
    (``workload.CYCLE`` operations), so every run weighs the networks
    and boards of a mixed workload alike. With a tracer, each operation
    runs twice on the same input, once under the tracer, alternating
    which goes first, and the traced runs form a second window.
    """
    windows = [Window(workload.CYCLE) for _ in range(2 if tracer else 1)]
    deadline = time.perf_counter() + seconds
    i = 0
    while i % workload.CYCLE or i == 0 or time.perf_counter() < deadline:
        for traced in ((i % 2, 1 - i % 2) if tracer else (0,)):
            inp = workload.prepare(state, seed, i)
            if traced:
                tracer.op = i
                with tracer:
                    out, span = timed(workload.run, state, inp)
            else:
                out, span = timed(workload.run, state, inp)
            work, problems = workload.check(state, inp, out)
            window = windows[traced]
            window.ops.append(span)
            window.work.append(work)
            window.labels.append(workload.label(inp))
            if problems:
                window.failed += 1
                window.problems += [f"op {i}: {p}" for p in problems]
        i += 1
    return windows


def overhead(untraced: dict, traced: dict, spec: dict) -> dict:
    """How much worse each traced end-to-end value is, as a share."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for name, base in untraced.items():
        ratio = traced[name] / base
        out[name] = ratio - 1 if better[name] == "lower" else 1 / ratio - 1
    return out


def select(values: dict, declared: list, what: str) -> dict:
    """The declared metrics with their units; warn on undeclared ones."""
    extra = sorted(set(values) - {m["name"] for m in declared})
    if extra:
        print(f"warning: {what} not declared in BENCHMARK.json: {extra}",
              file=sys.stderr)
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared}


def run_workload(args, spec: dict) -> int:
    from probe import Probe
    from spans import Tracer, format_table, layer_metrics, write_chrome_trace
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    probe = Probe()
    setups, digests, problems = [], None, []
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    with probe:
        for _ in range(SETUP_REPEATS):
            (state, got, setup_problems), span = timed(
                workload.setup, args.seed)
            setups.append(span)
            problems += setup_problems
            if digests is None:
                digests = got
            elif got != digests:
                problems.append("setup digests differ between repeats")
        tracer = Tracer() if args.trace else None
        windows = measure(workload, state, args.seed, args.seconds, tracer)
        window = windows[0]

    clock = probe.calibrated
    if args.trace:
        traced = windows[1]
        os.makedirs(args.trace_dir, exist_ok=True)
        path = os.path.join(args.trace_dir, f"{args.workload}.trace.json")
        write_chrome_trace(tracer.spans, path)
        durations = [clock(s.start_ns, s.end_ns) for s in tracer.spans]
        per_layer = layer_metrics(tracer.spans, durations, len(traced.ops))
        metrics = select(per_layer, spec["per_layer"], "per-layer metrics")
        record["trace_overhead"] = overhead(
            window.end_to_end(clock), traced.end_to_end(clock), spec)
        record["span_calls"] = dict(Counter(s.name for s in tracer.spans))
        print(f"{args.workload}: {len(tracer.spans)} spans -> {path}\n"
              + format_table(tracer.spans, durations, len(traced.ops)),
              file=sys.stderr)

    # the probe's table stays resident from before setup to the end, so
    # it sits under the peak; what is left is the program's
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = dict(window.end_to_end(clock),
               setup_s=statistics.median(clock(*s) for s in setups) / 1e9,
               peak_rss_mib=(peak_kib * 1024 - probe.resident_bytes) / 2**20)
    end_to_end = select(e2e, spec["end_to_end"], "end-to-end metrics")
    if not args.trace:
        metrics = end_to_end
    ops = sum(len(w.ops) for w in windows)
    failed = sum(w.failed for w in windows)
    problems += [p for w in windows for p in w.problems]
    record.update(
        ops=ops, ops_failed=failed, end_to_end=end_to_end,
        op_ms_p95=percentile(window.times_ns(clock), 95) / 1e6,
        op_ms_p50_by_label=window.label_p50_ms(clock),
        measured=dict(window.end_to_end(probe.measured),
                      setup_s=statistics.median(
                          probe.measured(*s) for s in setups) / 1e9,
                      probe_ms_p50=probe.median_ms()),
        digests=digests, problems=problems[:20],
    )
    if args.trace:
        record["per_layer"] = metrics

    for p in problems[:20]:
        print(f"FAILED {args.workload}: {p}", file=sys.stderr)
    for name, m in end_to_end.items():
        print(f"{args.workload:>12} {name:<14} {m['value']:>12.4f} {m['unit']}",
              file=sys.stderr)
    correct = not problems
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--trace-dir",
               args.trace_dir]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or len(lines) < 2:
            return code or 2
        print(lines[-2])
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w['name']}.{k}": v
                        for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)} or all")

    # one thread per BLAS pool, set before NumPy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in PROGRAM_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
