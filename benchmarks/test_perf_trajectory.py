"""Committed performance trajectory: compile time and simulated throughput.

Unlike the figure/table benchmarks (which reproduce thesis numbers), this
bench pins the *reproduction's own* performance so regressions are caught
in CI:

* cold compile seconds for each shipped network on a board it fits;
* simulated inferences/sec through the functional executor — LeNet-5 at
  full size (vectorized AND scalar, asserting the >= 5x vectorization
  floor), MobileNetV1/ResNet-18 through their reduced twins;
* served inferences/sec (wall clock) of one 250-request LeNet-5 trace
  through ``Server.run``, and its exact forward count: one interpreter
  forward per dispatched batch holding a logits-memo miss (no band);
* scalar-fallback band count of each twin's vectorized forward, at
  batch 1 and batch 8, an exact count gated at zero (no band, no
  calibration);
* bands each twin's second vectorized forward (again at batch 1 and
  batch 8) plans again instead of replaying the kernel's cached plan,
  likewise an exact count gated at zero;
* the largest array a reduction's blocked fold evaluates or compacts,
  over forwards of LeNet-5 at batch 8 and both twins at batch 1 and 8:
  every one must stay within ``max(FOLD_BLOCK_LIMIT, lanes)`` elements
  of its leaf (an exact count, no timing);
* the operands the second of those forwards compacts before a reduction
  block's top op (one copy per operand per block): each count is exactly
  the committed baseline's and above zero, so the compaction rule
  decides the same on every shipped reduction;
* the per-sample sub-interpreters those same forwards build: a batched
  run plans every statement outside a loop over the batch axis, so the
  count is gated at zero exactly;
* band plan keys (``_BandCache.key`` calls) computed by the second
  forward of LeNet-5 and of both twins, at batch 1 and batch 8: the
  first forward binds each plan's forward, which selects its top-level
  band plans once, so the count is gated at zero exactly;
* per-sample FIFO pops (the ``fifo_pops`` count) of the second forward
  of LeNet-5 at batch 1 and batch 8: each vectorized band writes its
  channel chunk whole and the next reads it whole, as one array, so the
  count is gated at zero exactly;
* pruned 72-point conv1x1 DSE sweep wall-clock, serial vs 4 workers
  (the arms alternate, three samples each after clearing the lower
  cache, and each keeps its best), and the serial arm's exact
  accounting, no band, no calibration: no kernel lowers outside the
  lower cache, and access tables built must equal lower-cache misses
  (the dominance profiles and prebuilt softmax go through the cache
  too; a hit replays a kernel at zero walks); kernels bounds-checked
  must equal the distinct kernels the builds lowered (a hit replays the
  kernel's verdicts, and a pruned candidate's profile kernel is never
  verified); schedule recipes hashed must equal the distinct
  recipes fingerprinted; scheduled kernels constructed must equal both
  the schedule memo's misses and the distinct kernels by content (a
  hit returns the kernel a profile or an earlier build made); and the
  builds' one invocation sequence must color exactly one memory plan;
  and index decompositions (``affine_forms``) must equal the sites of
  the access tables built whose form was read: one affine form per
  site, none per binding set or per consumer; kernel functions linted
  afresh (``kernels_linted_fresh``) must equal the distinct kernel
  texts in the sources linted; and binding tables built must equal the
  plans built (``verify_build`` and ``certify_build`` share one);
* the fingerprints of one more serial sweep (untimed): artifacts
  hashed by content must number exactly the distinct seeded objects
  plus the generated sources, and no plan, program, bitstream or
  verify report may be canonicalized — every other artifact's
  fingerprint is derived, not hashed from its content;
* the ``lower`` stage counters of a warm pipelined LeNet-5 rebuild (the
  same level built twice in one process): every kernel comes back from
  the lower cache, so ``lower_hits == 9`` and no kernel misses or
  lowers uncached — exact counts, no timing;
* static equivalence certification of the whole folded LeNet-5 build vs
  one interpreter cross-check of a single kernel — the certificate path
  must stay strictly faster, or removing interpreter runs from the
  DSE/autofix accept paths stops paying;
* static memory footprint of the folded MobileNetV1/ResNet-18 builds —
  arena (interference-colored reuse) vs naive per-buffer activation
  bytes, and the replicas-per-board packing both imply on the S10SX.
  These are exact byte counts, not timings: the arena must stay
  strictly smaller than naive and must never regress vs the baseline.

Every exact event count above is a delta of the process-wide counter
registry (:mod:`repro.counters`), counted where the event happens; the
patches below only measure array sizes or collect objects.

Results are compared against the committed baseline
``benchmarks/results/perf_trajectory.json``.  Raw seconds are not
portable across machines (or even across minutes on a shared host), so
every metric is paired with a calibration probe measured *immediately
adjacent* to it — a pure-Python probe for compile/DSE (interpreter
bound) and a small-array NumPy probe for executor throughput (matching
the vectorized interpreter's working set).  The probe ratio normalizes
the measurement before the tolerance bands apply: compile time may
regress at most 20%, throughput at most 10%.  A band violation triggers
up to two re-measurements (metric and probe together) before failing,
so transient scheduler noise does not fail CI while a real regression —
which reproduces on every retry — still does.

Regenerate the baseline after an intentional performance change with::

    REPRO_PERF_UPDATE=1 PYTHONPATH=src python -m pytest -q \
        benchmarks/test_perf_trajectory.py

The parallel-sweep arm asserts strict wall-clock improvement over serial
only when at least two CPUs are usable (the CI ``perf`` job runs on
multi-core runners); on a single core it asserts the bounded-overhead
contract instead, since four forked workers time-slicing one core cannot
beat the serial loop.
"""

import contextlib
import importlib
import json
import math
import os
import time

import numpy as np
import pytest
from conftest import RESULTS_DIR, fmt_table, save_table

from repro import counters
from repro.codegen import generate_opencl
from repro.device import ARRIA10, board_by_name
from repro.flow import build_folded
from repro.flow.deploy import default_folded_config, deploy_pipelined
from repro.flow.dse import sweep_conv1x1
from repro.flow.folded import FoldedConfig, plan_folded, schedule_folded
from repro.flow.artifacts import ScheduledKernel
from repro.flow.incremental import (
    LOWER_COUNTS,
    clear_lower_cache,
    lower_cache_stats,
    schedule_cache_stats,
)
from repro.flow import stages as stages_module
from repro.flow.stages import MODELS, folded_flow, pipelined_flow
from repro.ir import Program, vinterp
from repro.ir.analysis import AccessTable
from repro.models.twins import TWINS
from repro.pipeline import Pipeline
from repro.pipeline.cache import CompileCache
from repro.relay import fuse_operators, init_params
from repro.runtime.executor import run_folded_functional, run_pipelined_functional
from repro.schedule.transforms import ScheduleRecipe
from repro.serve import RequestTrace, ServeConfig, Server, provision_replicas
from repro.serve.replica import replicas_per_board
from repro.serve.request import input_fingerprint
from repro.verify import certify_build, clear_equiv_cache, dynamic_equiv_check
from repro.verify.memory import weights_bytes
from repro.runtime.plan import FoldedPlan
from repro.verify import cllint
from repro.verify.verifier import binding_sets_of

#: the modules themselves: ``repro.pipeline`` re-exports a function
#: under the name ``fingerprint``
fingerprint_module = importlib.import_module("repro.pipeline.fingerprint")
pipeline_module = importlib.import_module("repro.pipeline.pipeline")
transforms_module = importlib.import_module("repro.schedule.transforms")
verifier_module = importlib.import_module("repro.verify.verifier")

BASELINE_PATH = os.path.join(RESULTS_DIR, "perf_trajectory.json")
UPDATE = os.environ.get("REPRO_PERF_UPDATE") == "1"

#: tolerance bands: fail on >20% compile-time or >10% throughput
#: regression (after per-metric probe calibration)
COMPILE_BAND = 1.20
THROUGHPUT_BAND = 0.90
#: re-measurements allowed before a band violation becomes a failure
RETRIES = 2
#: the vectorized interpreter must beat scalar by at least this factor
#: on LeNet-5 (a pure ratio — no calibration needed)
LENET_SPEEDUP_FLOOR = 5.0

#: network -> board it compiles on (ResNet-18 does not fit the A10)
COMPILE_TARGETS = (
    ("lenet5", "A10"),
    ("mobilenet_v1", "A10"),
    ("resnet18", "S10MX"),
)

#: expanded conv1x1 sweep grid (72 points; pruning keeps ~57 live)
SWEEP_GRID = dict(
    w2vec_options=(1, 7),
    c2vec_options=(1, 2, 4, 8, 16, 32),
    c1vec_options=(1, 2, 4, 8, 16, 32),
)
SWEEP_WORKERS = 4

#: the served trace: 250 Poisson requests at 3000 rps to 2 LeNet-5
#: replicas, every input sent twice (the logits memo hits 50%)
SERVE_CONFIG = ServeConfig(window_us=2000, max_batch=8, max_queue=256)
SERVE_REQUESTS, SERVE_DISTINCT = 250, 125
#: batch sizes each twin's fallback and replanning counts cover
TWIN_BATCHES = (None, 8)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _python_probe() -> float:
    """Seconds for a fixed interpreter-bound workload (compile/DSE proxy)."""

    def work():
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        return acc

    return _best_of(work, repeats=3)


def _numpy_probe() -> float:
    """Seconds for a small-array NumPy workload (executor proxy).

    Deliberately shaped like the vectorized interpreter's inner loop —
    many short operations on small float32 arrays — rather than one big
    BLAS call, so it tracks the same machine-speed regime.
    """
    a = np.ones((49, 32), dtype=np.float32)

    def work():
        acc = np.zeros(32, dtype=np.float32)
        for _ in range(800):
            b = np.add.accumulate(a, axis=0)
            acc = acc + b[-1] * np.float32(0.001)
            a.reshape(7, 7, 32)[:, 3, :].copy()
        return acc

    return _best_of(work, repeats=3)


# ---------------------------------------------------------------------------
# per-metric measurement closures (each returns {"value", "probe_s"})


def _compile_measurers() -> dict:
    out = {}
    for net, board_name in COMPILE_TARGETS:
        board = board_by_name(board_name)
        if net == "lenet5":
            def build(board=board):
                clear_lower_cache()
                pipelined_flow("lenet5", board, cache=False).run()
        else:
            config = default_folded_config(net, board)

            def build(net=net, board=board, config=config):
                clear_lower_cache()
                folded_flow(net, board, config, cache=False).run()

        def measure(build=build):
            return {"value": _best_of(build), "probe_s": _python_probe()}

        out[f"{net}@{board_name}"] = measure
    return out


def _throughput_measurers(fallbacks: dict, replanned: dict) -> dict:
    """Throughput closures; fills ``fallbacks`` with each twin's count of
    scalar-fallback bands from its warm-up forwards, and ``replanned``
    with the bands a second forward planned again (at each of
    :data:`TWIN_BATCHES`)."""
    out = {}
    dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
    x = np.random.default_rng(0).standard_normal((1, 28, 28)).astype(np.float32)
    dep.forward_functional(x)  # warm caches before timing

    def measure_lenet():
        seconds = _best_of(lambda: dep.forward_functional(x))
        return {"value": 1.0 / seconds, "probe_s": _numpy_probe()}

    out["lenet5@pipelined"] = measure_lenet
    for net in sorted(TWINS):
        graph = TWINS[net]()
        config = default_folded_config(net, ARRIA10)
        fused = fuse_operators(graph)
        prog, plan = build_folded(fused, config, ARRIA10)
        params = init_params(graph, seed=0)
        rng = np.random.default_rng(11)
        tx = rng.standard_normal(graph.input.out_shape).astype(np.float32)
        fallbacks[f"{net}@twin"] = replanned[f"{net}@twin"] = 0
        for n in TWIN_BATCHES:
            xs = tx if n is None else rng.standard_normal(
                (n,) + graph.input.out_shape).astype(np.float32)
            events = []
            run_folded_functional(prog, plan, fused, xs, params,
                                  interp="vector", events=events)
            fallbacks[f"{net}@twin"] += sum(
                1 for _, ev in events if ev.kind == "fallback")
            events = []
            run_folded_functional(prog, plan, fused, xs, params,
                                  interp="vector", events=events)
            replanned[f"{net}@twin"] += sum(
                1 for _, ev in events if not ev.reused)

        def measure(prog=prog, plan=plan, fused=fused, tx=tx, params=params):
            seconds = _best_of(
                lambda: run_folded_functional(prog, plan, fused, tx, params,
                                              interp="vector"))
            return {"value": 1.0 / seconds, "probe_s": _numpy_probe()}

        out[f"{net}@twin"] = measure
    replicas, trace = _serving()

    def measure_serve():
        # a fresh server per run: its logits memo starts empty
        seconds = _best_of(
            lambda: Server(replicas, SERVE_CONFIG).run(trace))
        return {"value": len(trace) / seconds, "probe_s": _numpy_probe()}

    out["lenet5@serve"] = measure_serve
    return out


def _serving():
    """2 LeNet-5 replicas on the S10SX, and the trace they serve."""
    replicas = provision_replicas("lenet5", board_by_name("S10SX"), 2,
                                  cache=CompileCache())
    trace = RequestTrace.poisson("lenet5", SERVE_REQUESTS, 3000.0,
                                 (1, 28, 28), seed=0,
                                 distinct_inputs=SERVE_DISTINCT)
    return replicas, trace


def _measure_serve_forwards() -> dict:
    """Interpreter forwards of one served trace against the dispatched
    batches holding a logits-memo miss (exact counts, no timing).

    The misses are replayed from the batch log: completed batches in
    completion order (ties in dispatch order, as the event heap pops
    them), each holding a miss when it carries an input no earlier
    batch did.
    """
    replicas, trace = _serving()
    server = Server(replicas, SERVE_CONFIG)
    with counters.delta() as counted:
        result = server.run(trace)
    key_of = {req.rid: input_fingerprint(req.x) for req in trace}
    done = sorted((b for b in result.batches if b["outcome"] == "ok"),
                  key=lambda b: b["dispatch_us"] + b["service_us"])
    seen, with_miss = set(), 0
    for batch in done:
        keys = {key_of[rid] for rid in batch["rids"]}
        with_miss += bool(keys - seen)
        seen |= keys
    return {
        "forwards": counted.get("serve_forwards", 0),
        "batches": len(result.batches),
        "batches_with_miss": with_miss,
        "shed": result.metrics.shed,
        "misses": server.logits_cache.misses,
    }


def _fold_forwards() -> list:
    """``(key, forward)`` of pipelined LeNet-5 at batch 8 and of both
    twins at each of :data:`TWIN_BATCHES`, each on fresh seeded input."""
    rng = np.random.default_rng(5)
    dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
    forwards = [("lenet5@pipelined/8", lambda: dep.forward_functional(
        rng.standard_normal((8, 1, 28, 28)).astype(np.float32)))]
    for net in sorted(TWINS):
        graph = TWINS[net]()
        fused = fuse_operators(graph)
        prog, plan = build_folded(fused, default_folded_config(net, ARRIA10),
                                  ARRIA10)
        params = init_params(graph, seed=0)
        for n in TWIN_BATCHES:
            shape = graph.input.out_shape if n is None else (
                (n,) + graph.input.out_shape)
            forwards.append((
                f"{net}@twin/{n or 1}",
                lambda prog=prog, plan=plan, fused=fused, params=params,
                shape=shape: run_folded_functional(
                    prog, plan, fused,
                    rng.standard_normal(shape).astype(np.float32), params,
                    interp="vector")))
    return forwards


def _measure_folds() -> tuple:
    """``(temporaries, compactions, inner_loops)`` over the forwards of
    :func:`_fold_forwards` (exact counts, no timing).

    ``temporaries`` records every array :func:`repro.ir.vinterp._eval_block`
    reads (each operand's block) or writes, and every operand copy
    :func:`repro.ir.vinterp._compact` makes, with its leaf's lane count:
    ``excess`` is the largest amount by which one exceeds
    ``max(FOLD_BLOCK_LIMIT, lanes)``, and ``per_sample`` the forwards'
    ``per_sample`` registry count (per-sample sub-interpreters built).
    ``compactions`` maps each forward to the operands its second run
    compacts before a reduction block's top op (the ``fold_compactions``
    registry count, one per operand per block), and ``inner_loops`` to
    the NumPy inner-loop calls those top ops make in that run (the
    ``fold_inner_loops`` count: each block's elements over the inner run
    its plan fixed).
    """
    out = {"elements": 0, "lanes": 0, "excess": -math.inf}
    eval_block, fold_blocks = vinterp._eval_block, vinterp._fold_blocks
    compact = vinterp._compact
    folding = {}

    def note(leaf, size):
        lanes = math.prod(leaf.lane_shape)
        out["excess"] = max(out["excess"],
                            size - max(vinterp.FOLD_BLOCK_LIMIT, lanes))
        if size > out["elements"]:
            out.update(elements=size, lanes=lanes)

    def counted_eval_block(leaf, ops, dest):
        for x in ops:
            note(leaf, np.size(x))
        note(leaf, dest.size)
        return eval_block(leaf, ops, dest)

    def counted_fold_blocks(leaf, it, scratch):
        folding["leaf"] = leaf
        return fold_blocks(leaf, it, scratch)

    def counted_compact(view, c, spare):
        copy = compact(view, c, spare)
        note(folding["leaf"], copy.size)
        return copy

    forwards = _fold_forwards()
    with pytest.MonkeyPatch.context() as mp, counters.delta() as counted:
        mp.setattr(vinterp, "_eval_block", counted_eval_block)
        mp.setattr(vinterp, "_fold_blocks", counted_fold_blocks)
        mp.setattr(vinterp, "_compact", counted_compact)
        for _, forward in forwards:
            forward()
    out["per_sample"] = counted.get("per_sample", 0)
    out["budget"] = vinterp.FOLD_BLOCK_LIMIT
    compactions, inner_loops = {}, {}
    for key, forward in forwards:
        with counters.delta() as counted:
            forward()
        compactions[key] = counted.get("fold_compactions", 0)
        inner_loops[key] = counted.get("fold_inner_loops", 0)
    return out, compactions, inner_loops


def _measure_plan_keys() -> dict:
    """Band plan keys computed by the second forward of each network at
    each of :data:`TWIN_BATCHES` (exact counts, no timing).

    The first forward binds the plan's forward for that batch size; the
    second must select every band's plan without computing its key.
    """
    dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
    rng = np.random.default_rng(9)
    nets = {"lenet5@pipelined": (dep.fused.graph.input.out_shape,
                                 dep.forward_functional)}
    for net in sorted(TWINS):
        graph = TWINS[net]()
        fused = fuse_operators(graph)
        prog, plan = build_folded(fused, default_folded_config(net, ARRIA10),
                                  ARRIA10)
        params = init_params(graph, seed=0)
        nets[f"{net}@twin"] = (
            graph.input.out_shape,
            lambda x, prog=prog, plan=plan, fused=fused, params=params:
                run_folded_functional(prog, plan, fused, x, params,
                                      interp="vector"))
    out = {}
    for key, (shape, forward) in nets.items():
        out[key] = 0
        for n in TWIN_BATCHES:
            xs = [rng.standard_normal(shape if n is None else (n,) + shape)
                  .astype(np.float32) for _ in range(2)]
            forward(xs[0])
            with counters.delta() as counted:
                forward(xs[1])
            out[key] += counted.get("plan_keys", 0)
    return out


def _measure_fifo_pops() -> dict:
    """Per-sample FIFO pops of the second forward of pipelined LeNet-5
    at batch 1 and batch 8 (exact counts, no timing)."""
    dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
    rng = np.random.default_rng(11)
    out = {}
    for n in (1, 8):
        xs = rng.standard_normal((2, n, 1, 28, 28)).astype(np.float32)
        dep.forward_functional(xs[0])
        with counters.delta() as counted:
            dep.forward_functional(xs[1])
        out[f"lenet5@pipelined/{n}"] = counted.get("fifo_pops", 0)
    return out


def _measure_lenet_speedup(vector_ips: float) -> dict:
    dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
    x = np.random.default_rng(0).standard_normal((1, 28, 28)).astype(np.float32)
    t0 = time.perf_counter()
    run_pipelined_functional(dep.bitstream.program, dep.plan, dep.fused, x,
                             dep.params, interp="scalar")
    scalar_s = time.perf_counter() - t0
    return {"scalar_ips": 1.0 / scalar_s,
            "speedup": vector_ips * scalar_s}


@contextlib.contextmanager
def _collecting_recipes(distinct):
    """Collect the steps of every recipe fingerprinted into ``distinct``.

    The content memo is emptied first, so every distinct recipe of the
    run is hashed (counted as ``recipes_hashed``) here or not at all.
    """
    recipe_fingerprint = ScheduleRecipe.fingerprint

    def recorded(self):
        distinct.add(self.steps)
        return recipe_fingerprint(self)

    transforms_module._recipe_fingerprint.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScheduleRecipe, "fingerprint", recorded)
        yield


@contextlib.contextmanager
def _collecting_kernels(kernels):
    """Collect every kernel a folded build's ``lower`` stage returns into
    ``kernels`` (by object identity, which a lower-cache hit shares)."""
    lower_folded = stages_module.lower_folded

    def collected(sched):
        program = lower_folded(sched)
        kernels.update((id(k), k) for k in program.kernels)
        return program

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stages_module, "lower_folded", collected)
        yield


@contextlib.contextmanager
def _collecting_tables(tables):
    """Append every :class:`AccessTable` built to ``tables``."""
    init = AccessTable.__init__

    def collected(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AccessTable, "__init__", collected)
        yield


@contextlib.contextmanager
def _collecting_scheduled(kernels):
    """Append every :class:`ScheduledKernel` constructed to ``kernels``."""
    init = ScheduledKernel.__init__

    def collected(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScheduledKernel, "__init__", collected)
        yield


@contextlib.contextmanager
def _collecting_plans(plans):
    """Append every :class:`FoldedPlan` constructed to ``plans``."""
    init = FoldedPlan.__init__

    def collected(self, *args, **kwargs):
        init(self, *args, **kwargs)
        plans.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FoldedPlan, "__init__", collected)
        yield


@contextlib.contextmanager
def _collecting_linted(texts):
    """Add every kernel function of every source ``verify_build`` lints
    to ``texts``, as the linter splits it: (name, parameters, body)."""
    lint_source = verifier_module.lint_source

    def collected(source, *args, **kwargs):
        texts.update((name, tuple(params), body) for name, params, body, _
                     in cllint._kernels(source.splitlines()))
        return lint_source(source, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier_module, "lint_source", collected)
        yield


def _scheduled_content(sk):
    """A scheduled kernel by value: its lower key, or a prebuilt kernel's
    name and emitted source."""
    if sk.prebuilt is not None:
        return sk.name, generate_opencl(Program([sk.prebuilt]))
    return sk.lower_key


#: timed samples per sweep arm; the arms alternate and each keeps its best
SWEEP_REPEATS = 3


def _measure_sweep() -> dict:
    fused = fuse_operators(MODELS["mobilenet_v1"]())
    # serial and parallel samples alternate, each after clearing the
    # lower cache, and each arm keeps its best of SWEEP_REPEATS: one
    # sample of each, back to back, compared the host's noise more than
    # the arms.  The certificate cache is not cleared, so only the first
    # serial sample certifies from an empty one, as before.
    best = {1: float("inf"), SWEEP_WORKERS: float("inf")}
    summaries = {}
    # exact accounting of the first serial sample (registry deltas and a
    # few collecting patches, off the timing's noise floor): access
    # tables built against lower-cache misses, kernels bounds-checked
    # against the distinct kernels the builds lowered, recipes hashed
    # against distinct recipes, kernels scheduled against distinct ones,
    # memory plans computed (keys hashed), affine forms against the
    # sites of the access tables built that hold one, kernels linted
    # afresh against the distinct kernel texts linted, and binding
    # tables against the plans built
    counts = {}
    distinct = set()
    built_kernels = {}
    scheduled = []
    tables = []
    plans = []
    linted = set()
    for repeat in range(SWEEP_REPEATS):
        for workers in (1, SWEEP_WORKERS):
            clear_lower_cache()
            counted = workers == 1 and repeat == 0
            with contextlib.ExitStack() as stack:
                if counted:
                    stack.enter_context(_collecting_kernels(built_kernels))
                    stack.enter_context(_collecting_recipes(distinct))
                    stack.enter_context(_collecting_scheduled(scheduled))
                    stack.enter_context(_collecting_tables(tables))
                    stack.enter_context(_collecting_plans(plans))
                    stack.enter_context(_collecting_linted(linted))
                events = stack.enter_context(counters.delta())
                t0 = time.perf_counter()
                summary = sweep_conv1x1(
                    fused, ARRIA10, cache=CompileCache(), prune=True,
                    workers=workers, **SWEEP_GRID)
                best[workers] = min(best[workers], time.perf_counter() - t0)
            summaries[workers] = summary
            if counted:
                counts.update(
                    tables=events.get("access_tables", 0),
                    bounds_checked=events.get("bounds_checked", 0),
                    recipes_hashed=events.get("recipes_hashed", 0),
                    plans_computed=events.get("plans_computed", 0),
                    affine_forms=events.get("affine_forms", 0),
                    interval_sites=events.get("bounds_interval_sites", 0),
                    kernels_linted_fresh=events.get("kernels_linted_fresh", 0),
                    linted_texts=len(linted),
                    binding_tables=events.get("binding_tables", 0),
                    plans=len(plans))
                # a site's form is a cached property, so it is in the
                # site's __dict__ once read
                counts["sites"] = sum(len(t.sites) for t in tables)
                counts["decomposed_sites"] = sum(
                    "form" in site.__dict__ for t in tables for site in t.sites)
                counts.update(lower_cache_stats())
                counts.update({f"schedule_{k}": v for k, v in
                               schedule_cache_stats().items()})
                counts["recipes"] = len(distinct)
                counts["built_kernels"] = len(built_kernels)
                counts["scheduled"] = len(scheduled)
                counts["distinct_scheduled"] = len(
                    {_scheduled_content(sk) for sk in scheduled})
    serial, parallel = summaries[1], summaries[SWEEP_WORKERS]
    fingerprints = _count_sweep_fingerprints()
    # correctness parity between the two arms, regardless of timing
    assert len(serial.points) == len(parallel.points)
    assert [p.pruned for p in serial.points] == \
        [p.pruned for p in parallel.points]
    assert serial.best.tiling == parallel.best.tiling
    return {
        "points": len(serial.points),
        "evaluated": sum(1 for p in serial.points if not p.pruned),
        "serial_s": best[1],
        "parallel_s": best[SWEEP_WORKERS],
        "best": [serial.best.tiling.w2vec, serial.best.tiling.c2vec,
                 serial.best.tiling.c1vec],
        "serial_counts": counts,
        "fingerprint_counts": fingerprints,
    }


#: artifact types whose fingerprints are derived, never hashed
DERIVED_ONLY = ("FoldedPlan", "Program", "Bitstream", "VerifyReport")


def _count_sweep_fingerprints() -> dict:
    """Exact content-fingerprint accounting of one serial sweep.

    Untimed, because the counter wraps every ``canonical`` recursion.
    A fresh graph is seeded, so its content is hashed once in this
    sweep.  ``content`` counts the objects the pipeline hashed by
    content, ``seeds`` the distinct seeded objects, ``codegen`` the
    generated sources, and ``canonicalized`` every type ``canonical``
    reduced, at any depth, for any caller.
    """
    counts = {"content": 0, "codegen": 0}
    seeds, canonicalized = [], set()
    state = {"depth": 0, "hashing_content": False}
    canonical = fingerprint_module.canonical
    content_fingerprint = pipeline_module.content_fingerprint
    generate_opencl = stages_module.generate_opencl
    run = Pipeline.run

    def counted_canonical(obj):
        canonicalized.add(type(obj).__name__)
        if state["hashing_content"] and state["depth"] == 0:
            counts["content"] += 1
        state["depth"] += 1
        try:
            return canonical(obj)
        finally:
            state["depth"] -= 1

    def counted_content_fingerprint(obj):
        state["hashing_content"] = True
        try:
            return content_fingerprint(obj)
        finally:
            state["hashing_content"] = False

    def counted_generate_opencl(*args, **kwargs):
        counts["codegen"] += 1
        return generate_opencl(*args, **kwargs)

    def recorded_run(self, seed=None):
        for value in (seed or {}).values():
            if not any(value is s for s in seeds):
                seeds.append(value)
        return run(self, seed)

    fused = fuse_operators(MODELS["mobilenet_v1"]())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fingerprint_module, "canonical", counted_canonical)
        mp.setattr(pipeline_module, "content_fingerprint",
                   counted_content_fingerprint)
        mp.setattr(stages_module, "generate_opencl", counted_generate_opencl)
        mp.setattr(Pipeline, "run", recorded_run)
        sweep_conv1x1(fused, ARRIA10, cache=CompileCache(), prune=True,
                      workers=1, **SWEEP_GRID)
    return {**counts, "seeds": len(seeds),
            "canonicalized": sorted(canonicalized)}


def _measure_lenet_rebuild() -> dict:
    """The ``lower`` stage counters of the second of two pipelined
    LeNet-5 builds in one process (exact counts, no timing)."""
    clear_lower_cache()
    for _ in range(2):
        trace = pipelined_flow("lenet5", board_by_name("S10SX"),
                               cache=False).run().trace
    row = trace.stage("lower").counters
    return {n: row["lower_" + n] for n in LOWER_COUNTS}


def _measure_certify() -> dict:
    """Static whole-build certification vs one interpreter cross-check.

    The point of the RE certifier is removing interpreter equivalence
    runs from the DSE/autofix accept paths, so the committed trajectory
    pins the trade directly: statically certifying EVERY kernel of the
    folded LeNet-5 build (cache cleared each repeat) must be strictly
    faster than a SINGLE dynamic cross-check of just one of those
    kernels (scheduled + naive interpreter run on its real binding
    set).  Both arms run on the same machine back to back — the
    asserted property is a pure ordering, so no probe calibration is
    needed.
    """
    fused = fuse_operators(MODELS["lenet5"]())
    sched = schedule_folded(fused, FoldedConfig(), ARRIA10)
    plan = plan_folded(fused, sched)

    certified = 0

    def static_arm():
        nonlocal certified
        clear_equiv_cache()
        report, _ = certify_build(sched, plan=plan, dynamic_fallback=False)
        assert report.counters["equiv_dynamic_runs"] == 0
        certified = report.counters["equiv_certified"]

    certify_s = _best_of(static_arm)
    bsets = binding_sets_of(plan)
    sk = next(k for k in sched.kernels if getattr(k, "recipe", None))
    dynamic_s = _best_of(
        lambda: dynamic_equiv_check(sk, (bsets.get(sk.name) or [{}])[0]),
        repeats=2,
    )
    return {
        "kernels_certified": certified,
        "certify_s": certify_s,
        "dynamic_check_s": dynamic_s,
        "speedup": dynamic_s / certify_s,
    }


def _measure_memory() -> dict:
    """Arena vs naive activation bytes and replica packing (static).

    Deterministic byte counts from the certified ``MemoryPlan`` the plan
    stage attaches — no probe calibration, no retry protocol.  The
    replicas-per-board pair shows what the arena buys at serving time:
    how many copies of the network one S10SX's DDR hosts with naive
    per-buffer activations vs with the shared arena.
    """
    board = board_by_name("S10SX")
    out = {}
    for net in ("mobilenet_v1", "resnet18"):
        fused = fuse_operators(MODELS[net]())
        config = default_folded_config(net, board)
        sched = schedule_folded(fused, config, board)
        plan = plan_folded(fused, sched)
        mem = plan.memory
        assert mem is not None, f"{net}: plan stage attached no MemoryPlan"
        wb = weights_bytes(fused)
        out[net] = {
            "arena_bytes": mem.arena_bytes,
            "naive_bytes": mem.naive_bytes,
            "reuse_pairs": len(mem.reuse_pairs),
            "weights_bytes": wb,
            "replicas_per_board_naive":
                replicas_per_board(board, mem.naive_bytes + wb),
            "replicas_per_board":
                replicas_per_board(board, mem.arena_bytes + wb),
        }
    return out


@pytest.fixture(scope="module")
def trajectory():
    """Measure everything once; in update mode also rewrite the baseline.

    Returns ``(current, baseline, remeasure)`` where ``remeasure`` maps
    each compile/throughput metric key to a closure that re-runs just
    that measurement (with its adjacent probe) for the retry protocol.
    """
    remeasure = {}
    compile_s, throughput, fallbacks, replanned = {}, {}, {}, {}
    for key, fn in _compile_measurers().items():
        compile_s[key] = fn()
        remeasure[key] = fn
    for key, fn in _throughput_measurers(fallbacks, replanned).items():
        throughput[key] = fn()
        remeasure[key] = fn
    temporaries, compactions, inner_loops = _measure_folds()
    current = {
        "schema": 2,
        "cpus": _usable_cpus(),
        "compile_s": compile_s,
        "throughput_ips": throughput,
        "vinterp_fallbacks": fallbacks,
        "vinterp_replanned": replanned,
        "fold_temporaries": temporaries,
        "fold_compactions": compactions,
        "fold_inner_loops": inner_loops,
        "plan_keys": _measure_plan_keys(),
        "fifo_pops": _measure_fifo_pops(),
        "lenet5": _measure_lenet_speedup(
            throughput["lenet5@pipelined"]["value"]),
        "serve_forwards": _measure_serve_forwards(),
        "sweep": _measure_sweep(),
        "lenet_rebuild": _measure_lenet_rebuild(),
        "certify": _measure_certify(),
        "memory": _measure_memory(),
    }
    if UPDATE:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not os.path.exists(BASELINE_PATH):
        pytest.fail(
            "no committed baseline at benchmarks/results/perf_trajectory.json"
            " — generate one with REPRO_PERF_UPDATE=1"
        )
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    _save_report(current, baseline)
    return current, baseline, remeasure


def _calibrated(entry, base_entry, kind):
    """Normalize a measurement by its adjacent probe ratio.

    ``kind`` is ``"time"`` (smaller is better; a slower machine inflates
    the raw value, so divide by the probe ratio) or ``"ips"`` (bigger is
    better; a slower machine deflates the raw value, so multiply).
    """
    ratio = entry["probe_s"] / base_entry["probe_s"]
    if kind == "time":
        return entry["value"] / ratio
    return entry["value"] * ratio


def _within_band(entry, base_entry, kind) -> bool:
    """True if the raw OR the calibrated value is inside the band.

    The two views cover complementary failure modes: the raw value is
    authoritative when the machine matches the baseline machine (probe
    noise cannot produce a spurious failure), while the calibrated value
    rescues a genuinely slower/faster machine (a CI runner class change).
    A real code regression shifts both views together and fails both.
    """
    if kind == "time":
        limit = base_entry["value"] * COMPILE_BAND
        return (entry["value"] <= limit
                or _calibrated(entry, base_entry, kind) <= limit)
    floor = base_entry["value"] * THROUGHPUT_BAND
    return (entry["value"] >= floor
            or _calibrated(entry, base_entry, kind) >= floor)


def _save_report(current, baseline) -> None:
    rows = []
    for key in sorted(current["compile_s"]):
        cur, base = current["compile_s"][key], baseline["compile_s"][key]
        rows.append([f"compile {key}", f"{cur['value']:.3f} s",
                     f"{base['value']:.3f} s",
                     f"{_calibrated(cur, base, 'time'):.3f} s"])
    for key in sorted(current["throughput_ips"]):
        cur = current["throughput_ips"][key]
        base = baseline["throughput_ips"].get(key)
        if base is None:  # reported, gated once a baseline records it
            rows.append([key, f"{cur['value']:.2f} ips", "-", "-"])
            continue
        rows.append([key, f"{cur['value']:.2f} ips",
                     f"{base['value']:.2f} ips",
                     f"{_calibrated(cur, base, 'ips'):.2f} ips"])
    lr = current["lenet_rebuild"]
    rows.append(["lenet5@pipelined warm rebuild lower hits/misses/uncached",
                 f"{lr['hits']}/{lr['misses']}/{lr['uncached']}", "-",
                 "== 9/0/0 exactly"])
    sf = current["serve_forwards"]
    rows.append(["lenet5@serve interpreter forwards", f"{sf['forwards']}",
                 "-", f"== {sf['batches_with_miss']} of {sf['batches']} "
                 "batches hold a memo miss"])
    for key in sorted(current["vinterp_fallbacks"]):
        rows.append([f"{key} fallback bands",
                     f"{current['vinterp_fallbacks'][key]}",
                     f"{baseline.get('vinterp_fallbacks', {}).get(key, '-')}",
                     "== 0 exactly"])
    for key in sorted(current["vinterp_replanned"]):
        rows.append([f"{key} second-forward planned bands",
                     f"{current['vinterp_replanned'][key]}",
                     f"{baseline.get('vinterp_replanned', {}).get(key, '-')}",
                     "== 0 exactly"])
    ft = current["fold_temporaries"]
    rows.append(["largest reduction temporary (elements)",
                 f"{ft['elements']}",
                 f"{baseline.get('fold_temporaries', {}).get('elements', '-')}",
                 f"<= max({ft['budget']} budget, {ft['lanes']} lanes)"])
    rows.append(["per-sample sub-interpreters (same forwards)",
                 f"{ft['per_sample']}",
                 f"{baseline.get('fold_temporaries', {}).get('per_sample', '-')}",
                 "== 0 exactly"])
    for key in sorted(current["fold_compactions"]):
        rows.append([f"{key} second-forward operands compacted",
                     f"{current['fold_compactions'][key]}",
                     f"{baseline.get('fold_compactions', {}).get(key, '-')}",
                     "== baseline exactly"])
    for key in sorted(current["fold_inner_loops"]):
        rows.append([f"{key} second-forward fold inner loops",
                     f"{current['fold_inner_loops'][key]}",
                     f"{baseline.get('fold_inner_loops', {}).get(key, '-')}",
                     "== baseline exactly"])
    for key in sorted(current["plan_keys"]):
        rows.append([f"{key} second-forward plan keys",
                     f"{current['plan_keys'][key]}",
                     f"{baseline.get('plan_keys', {}).get(key, '-')}",
                     "== 0 exactly"])
    for key in sorted(current["fifo_pops"]):
        rows.append([f"{key} second-forward FIFO pops",
                     f"{current['fifo_pops'][key]}",
                     f"{baseline.get('fifo_pops', {}).get(key, '-')}",
                     "== 0 exactly"])
    rows.append(["lenet5 scalar", f"{current['lenet5']['scalar_ips']:.2f} ips",
                 f"{baseline['lenet5']['scalar_ips']:.2f} ips", "-"])
    rows.append(["lenet5 vec/scalar", f"{current['lenet5']['speedup']:.0f}x",
                 f"{baseline['lenet5']['speedup']:.0f}x",
                 f">= {LENET_SPEEDUP_FLOOR:.0f}x floor"])
    sweep, bsweep = current["sweep"], baseline["sweep"]
    rows.append([f"sweep serial ({sweep['evaluated']}/{sweep['points']} pts)",
                 f"{sweep['serial_s']:.2f} s", f"{bsweep['serial_s']:.2f} s",
                 "-"])
    rows.append([f"sweep {SWEEP_WORKERS} workers ({current['cpus']} cpus)",
                 f"{sweep['parallel_s']:.2f} s",
                 f"{bsweep['parallel_s']:.2f} s", "-"])
    sc = sweep["serial_counts"]
    rows.append(["sweep serial access tables",
                 f"{sc['tables']}", "-",
                 f"== {sc['misses']} misses, {sc['uncached']} uncached "
                 f"({sc['hits']} hits walk 0)"])
    rows.append(["sweep serial kernels bounds-checked",
                 f"{sc['bounds_checked']}", "-",
                 f"== {sc['built_kernels']} distinct kernels built "
                 f"({sc['hits']} hits replay their verdicts)"])
    rows.append(["sweep serial recipes hashed",
                 f"{sc['recipes_hashed']}", "-",
                 f"== {sc['recipes']} distinct recipes"])
    rows.append(["sweep serial kernels scheduled",
                 f"{sc['scheduled']}", "-",
                 f"== {sc['schedule_misses']} schedule misses == "
                 f"{sc['distinct_scheduled']} distinct kernels "
                 f"({sc['schedule_hits']} hits)"])
    rows.append(["sweep serial memory plans computed",
                 f"{sc['plans_computed']}", "-", "== 1 (one sequence)"])
    rows.append(["sweep serial affine forms",
                 f"{sc['affine_forms']}", "-",
                 f"== {sc['decomposed_sites']} sites read of "
                 f"{sc['sites']} in the tables built "
                 f"({sc['interval_sites']} site checks use intervals)"])
    rows.append(["sweep serial kernels linted afresh",
                 f"{sc['kernels_linted_fresh']}", "-",
                 f"== {sc['linted_texts']} distinct kernel texts linted"])
    rows.append(["sweep serial binding tables",
                 f"{sc['binding_tables']}", "-",
                 f"== {sc['plans']} plans built"])
    fc = sweep["fingerprint_counts"]
    rows.append(["sweep serial content fingerprints",
                 f"{fc['content']}", "-",
                 f"== {fc['seeds']} seeds + {fc['codegen']} sources"])
    cert, bcert = current["certify"], baseline.get("certify", {})
    rows.append([f"certify {cert['kernels_certified']} kernels (static)",
                 f"{cert['certify_s'] * 1e3:.1f} ms",
                 f"{bcert.get('certify_s', 0) * 1e3:.1f} ms", "-"])
    rows.append(["one interpreter cross-check",
                 f"{cert['dynamic_check_s'] * 1e3:.1f} ms",
                 f"{bcert.get('dynamic_check_s', 0) * 1e3:.1f} ms",
                 f"{cert['speedup']:.0f}x slower than certifying"])
    for net in sorted(current.get("memory", {})):
        mem = current["memory"][net]
        bmem = baseline.get("memory", {}).get(net, {})
        saved = 1 - mem["arena_bytes"] / mem["naive_bytes"]
        rows.append([f"memory {net} arena",
                     f"{mem['arena_bytes'] / (1 << 20):.1f} MiB",
                     f"{bmem.get('arena_bytes', 0) / (1 << 20):.1f} MiB",
                     f"{saved:.0%} under naive "
                     f"{mem['naive_bytes'] / (1 << 20):.1f} MiB"])
        rows.append([f"memory {net} replicas/board",
                     f"{mem['replicas_per_board']}",
                     f"{bmem.get('replicas_per_board', 0)}",
                     f"naive packs {mem['replicas_per_board_naive']}"])
    save_table("perf_trajectory", fmt_table(
        "Performance trajectory (current vs committed baseline)",
        ["metric", "current", "baseline", "calibrated"], rows))


# ---------------------------------------------------------------------------
# assertions against the committed baseline


class TestPerfTrajectory:
    def test_compile_time_within_band(self, trajectory):
        current, baseline, remeasure = trajectory
        for key, base in baseline["compile_s"].items():
            entry = current["compile_s"][key]
            attempts = 0
            while not _within_band(entry, base, "time"):
                attempts += 1
                if attempts > RETRIES:
                    break
                entry = remeasure[key]()
            if attempts > RETRIES:
                pytest.fail(
                    f"{key}: compile {entry['value']:.3f}s raw / "
                    f"{_calibrated(entry, base, 'time'):.3f}s calibrated "
                    f"exceeds baseline {base['value']:.3f}s by more than "
                    f"{(COMPILE_BAND - 1) * 100:.0f}% after {RETRIES} retries"
                )

    def test_lenet_vectorized_speedup_floor(self, trajectory):
        current, _, _ = trajectory
        speedup = current["lenet5"]["speedup"]
        assert speedup >= LENET_SPEEDUP_FLOOR, (
            f"vectorized LeNet-5 only {speedup:.1f}x scalar "
            f"(floor {LENET_SPEEDUP_FLOOR}x)"
        )

    def test_throughput_within_band(self, trajectory):
        current, baseline, remeasure = trajectory
        for key, base in baseline["throughput_ips"].items():
            entry = current["throughput_ips"][key]
            attempts = 0
            while not _within_band(entry, base, "ips"):
                attempts += 1
                if attempts > RETRIES:
                    break
                entry = remeasure[key]()
            if attempts > RETRIES:
                pytest.fail(
                    f"{key}: {entry['value']:.2f} inferences/s raw / "
                    f"{_calibrated(entry, base, 'ips'):.2f} calibrated "
                    f"below baseline {base['value']:.2f} by more than "
                    f"{(1 - THROUGHPUT_BAND) * 100:.0f}% after "
                    f"{RETRIES} retries"
                )

    def test_warm_pipelined_rebuild_replays_every_kernel(self, trajectory):
        current, _, _ = trajectory
        assert current["lenet_rebuild"] == {
            "hits": 9, "misses": 0, "uncached": 0}, (
            f"a warm pipelined LeNet-5 rebuild lowered "
            f"{current['lenet_rebuild']} (hits/misses/uncached): every "
            f"kernel must replay from the lower cache — an exact count"
        )

    def test_one_forward_per_batch_with_a_memo_miss(self, trajectory):
        current, _, _ = trajectory
        sf = current["serve_forwards"]
        assert sf["shed"] == 0, sf
        assert 0 < sf["batches_with_miss"] <= sf["misses"], sf
        assert sf["forwards"] == sf["batches_with_miss"], (
            f"one served LeNet-5 trace ran {sf['forwards']} interpreter "
            f"forward(s) for {sf['batches_with_miss']} dispatched batch(es) "
            f"holding a logits-memo miss ({sf['batches']} batches, "
            f"{sf['misses']} misses) — an exact count, no band"
        )

    def test_twins_fully_vectorize(self, trajectory):
        current, _, _ = trajectory
        assert sorted(current["vinterp_fallbacks"]) == [
            f"{net}@twin" for net in sorted(TWINS)]
        for key, count in sorted(current["vinterp_fallbacks"].items()):
            assert count == 0, (
                f"{key}: {count} interpreter band(s) fell back to the scalar "
                "loop — an exact count, gated at zero"
            )

    def test_second_forward_plans_no_band(self, trajectory):
        current, _, _ = trajectory
        assert sorted(current["vinterp_replanned"]) == [
            f"{net}@twin" for net in sorted(TWINS)]
        for key, count in sorted(current["vinterp_replanned"].items()):
            assert count == 0, (
                f"{key}: the second forward planned {count} band(s) instead "
                "of replaying the kernel's cached plans — an exact count, "
                "gated at zero"
            )

    def test_fold_temporaries_within_block_budget(self, trajectory):
        current, _, _ = trajectory
        ft = current["fold_temporaries"]
        assert ft["elements"] > 0
        assert ft["excess"] <= 0, (
            f"a reduction's blocked fold evaluated an array "
            f"{ft['excess']} elements over max(budget, lanes) — an exact "
            "count, no band"
        )

    def test_fold_compactions_match_baseline(self, trajectory):
        current, baseline, _ = trajectory
        fc, base = current["fold_compactions"], baseline.get("fold_compactions")
        assert sorted(fc) == ["lenet5@pipelined/8"] + [
            f"{net}@twin/{n or 1}" for net in sorted(TWINS)
            for n in TWIN_BATCHES]
        assert all(count > 0 for count in fc.values()), fc
        assert fc == base, (
            f"operands compacted per second forward {fc} differ from the "
            f"committed {base}: the compaction rule decided otherwise on a "
            "shipped reduction — an exact count, no band"
        )

    def test_fold_inner_loops_match_baseline(self, trajectory):
        current, baseline, _ = trajectory
        fl, base = current["fold_inner_loops"], baseline.get("fold_inner_loops")
        assert sorted(fl) == sorted(current["fold_compactions"])
        assert fl == base, (
            f"NumPy inner loops of the fold's top ops per second forward "
            f"{fl} differ from the committed {base}: the lane order or "
            "the compaction rule laid a shipped reduction out otherwise — "
            "an exact count, no band"
        )

    def test_no_statement_runs_per_sample(self, trajectory):
        current, _, _ = trajectory
        count = current["fold_temporaries"]["per_sample"]
        assert count == 0, (
            f"batched forwards built {count} per-sample sub-interpreter(s): "
            "a statement outside a loop, or a band, ran once per sample "
            "instead of over the batch axis — an exact count, gated at zero"
        )

    def test_bound_forward_computes_no_plan_key(self, trajectory):
        current, _, _ = trajectory
        assert sorted(current["plan_keys"]) == ["lenet5@pipelined"] + [
            f"{net}@twin" for net in sorted(TWINS)]
        for key, count in sorted(current["plan_keys"].items()):
            assert count == 0, (
                f"{key}: the second forward computed {count} band plan "
                "key(s) instead of using the plans its bound forward "
                "selected — an exact count, gated at zero"
            )

    def test_bound_forward_pops_no_fifo(self, trajectory):
        current, _, _ = trajectory
        assert sorted(current["fifo_pops"]) == [
            "lenet5@pipelined/1", "lenet5@pipelined/8"]
        for key, count in sorted(current["fifo_pops"].items()):
            assert count == 0, (
                f"{key}: the second forward popped {count} per-sample "
                "FIFO stream(s) instead of handing each channel chunk on "
                "as one array — an exact count, gated at zero"
            )

    def test_certificate_path_beats_interpreter(self, trajectory):
        current, _, _ = trajectory
        cert = current["certify"]
        assert cert["kernels_certified"] > 0
        assert cert["certify_s"] < cert["dynamic_check_s"], (
            f"statically certifying the whole build "
            f"({cert['certify_s'] * 1e3:.1f} ms) is not faster than one "
            f"interpreter cross-check ({cert['dynamic_check_s'] * 1e3:.1f} "
            "ms) — the certifier no longer pays for itself"
        )

    def test_memory_arena_beats_naive(self, trajectory):
        current, baseline, _ = trajectory
        for net, mem in sorted(current["memory"].items()):
            assert mem["arena_bytes"] < mem["naive_bytes"], (
                f"{net}: arena {mem['arena_bytes']} B does not beat naive "
                f"{mem['naive_bytes']} B — interference coloring found no reuse"
            )
            assert mem["reuse_pairs"] > 0
            assert (mem["replicas_per_board"]
                    >= mem["replicas_per_board_naive"])
            base = baseline.get("memory", {}).get(net)
            if base:
                assert mem["arena_bytes"] <= base["arena_bytes"], (
                    f"{net}: arena grew to {mem['arena_bytes']} B from the "
                    f"committed {base['arena_bytes']} B — the coloring "
                    "regressed (byte counts are exact, no band applies)"
                )
                assert (mem["replicas_per_board"]
                        >= base["replicas_per_board"])

    def test_serial_sweep_walks_each_lowered_kernel_once(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["hits"] > 0 and sc["misses"] > 0, sc
        assert sc["uncached"] == 0, (
            f"serial sweep lowered {sc['uncached']} kernel(s) outside the "
            "lower cache — an exact count, gated at zero"
        )
        assert sc["tables"] == sc["misses"], (
            f"serial sweep built {sc['tables']} access table(s) for "
            f"{sc['misses']} lower-cache misses (dominance profiles and "
            f"softmax included; {sc['hits']} hits replay at zero walks) "
            "— an exact count, no band"
        )

    def test_serial_sweep_verifies_each_lowered_kernel_once(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["bounds_checked"] == sc["built_kernels"], (
            f"serial sweep bounds-checked {sc['bounds_checked']} kernel(s) "
            f"for {sc['built_kernels']} distinct kernel(s) the builds "
            f"lowered ({sc['hits']} lower-cache hits replay their verdicts; "
            "pruned candidates' profile kernels are never verified) — an "
            "exact count, no band"
        )

    def test_serial_sweep_hashes_each_recipe_once(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["recipes"] > 0, sc
        assert sc["recipes_hashed"] == sc["recipes"], (
            f"serial sweep hashed {sc['recipes_hashed']} schedule recipe(s) "
            f"for {sc['recipes']} distinct one(s) — an exact count, no band"
        )

    def test_serial_sweep_schedules_each_kernel_once(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["schedule_hits"] > 0, sc
        assert (sc["scheduled"] == sc["schedule_misses"]
                == sc["distinct_scheduled"]), (
            f"serial sweep constructed {sc['scheduled']} scheduled "
            f"kernel(s) on {sc['schedule_misses']} schedule-memo miss(es) "
            f"for {sc['distinct_scheduled']} distinct kernel(s) by content "
            f"({sc['schedule_hits']} hits) — an exact count, no band"
        )

    def test_serial_sweep_plans_one_arena(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["plans_computed"] == 1, (
            f"serial sweep computed {sc['plans_computed']} memory plan(s) "
            "for its builds' one invocation sequence — an exact count, "
            "no band"
        )

    def test_serial_sweep_decomposes_each_site_once(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["decomposed_sites"] > 0, sc
        assert sc["affine_forms"] == sc["decomposed_sites"], (
            f"serial sweep decomposed {sc['affine_forms']} index(es) for "
            f"{sc['decomposed_sites']} site(s) whose form was read, of the "
            "access tables it built (one affine form per site, none per "
            "binding set or consumer) — an exact count, no band"
        )

    def test_serial_sweep_lints_each_kernel_text_once(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["linted_texts"] > 0, sc
        assert sc["kernels_linted_fresh"] == sc["linted_texts"], (
            f"serial sweep linted {sc['kernels_linted_fresh']} kernel "
            f"function(s) afresh for {sc['linted_texts']} distinct kernel "
            "text(s) in the sources it verified (a replayed kernel keeps "
            "its lint verdict) — an exact count, no band"
        )

    def test_serial_sweep_builds_one_binding_table_per_plan(self, trajectory):
        current, _, _ = trajectory
        sc = current["sweep"]["serial_counts"]
        assert sc["plans"] > 0, sc
        assert sc["binding_tables"] == sc["plans"], (
            f"serial sweep built {sc['binding_tables']} binding table(s) "
            f"for {sc['plans']} plan(s) (verify and certify read one per "
            "plan) — an exact count, no band"
        )

    def test_serial_sweep_hashes_only_sources(self, trajectory):
        current, _, _ = trajectory
        fc = current["sweep"]["fingerprint_counts"]
        assert fc["seeds"] > 0 and fc["codegen"] > 0, fc
        assert fc["content"] == fc["seeds"] + fc["codegen"], (
            f"serial sweep hashed {fc['content']} artifact(s) by content "
            f"for {fc['seeds']} distinct seeded object(s) + "
            f"{fc['codegen']} generated source(s) — an exact count, no band"
        )
        hashed = sorted(set(DERIVED_ONLY) & set(fc["canonicalized"]))
        assert not hashed, (
            f"serial sweep canonicalized {hashed}: their fingerprints are "
            "derived, never hashed from content"
        )

    def test_parallel_sweep_wall_clock(self, trajectory):
        current, _, _ = trajectory
        sweep = current["sweep"]
        if current["cpus"] >= 2:
            assert sweep["parallel_s"] < sweep["serial_s"], (
                f"{SWEEP_WORKERS}-worker sweep ({sweep['parallel_s']:.2f}s) "
                f"not faster than serial ({sweep['serial_s']:.2f}s) on "
                f"{current['cpus']} CPUs"
            )
        else:
            # single core: parallel cannot win; pin the overhead bound
            assert sweep["parallel_s"] < sweep["serial_s"] * 3, (
                f"single-CPU parallel sweep overhead "
                f"{sweep['parallel_s'] / sweep['serial_s']:.1f}x exceeds 3x"
            )
