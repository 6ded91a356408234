"""Committed performance trajectory: compile time and simulated throughput.

Unlike the figure/table benchmarks (which reproduce thesis numbers), this
bench pins the *reproduction's own* performance so regressions are caught
in CI:

* cold compile seconds for each shipped network on a board it fits;
* simulated inferences/sec through the functional executor — LeNet-5 at
  full size (vectorized AND scalar, asserting the >= 5x vectorization
  floor), MobileNetV1/ResNet-18 through their reduced twins;
* scalar-fallback band count of each twin's vectorized forward, an exact
  count gated at zero (no band, no calibration);
* pruned 72-point conv1x1 DSE sweep wall-clock, serial vs 4 workers;
* static equivalence certification of the whole folded LeNet-5 build vs
  one interpreter cross-check of a single kernel — the certificate path
  must stay strictly faster, or removing interpreter runs from the
  DSE/autofix accept paths stops paying;
* static memory footprint of the folded MobileNetV1/ResNet-18 builds —
  arena (interference-colored reuse) vs naive per-buffer activation
  bytes, and the replicas-per-board packing both imply on the S10SX.
  These are exact byte counts, not timings: the arena must stay
  strictly smaller than naive and must never regress vs the baseline.

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

import json
import os
import time

import numpy as np
import pytest
from conftest import RESULTS_DIR, fmt_table, save_table

from repro.device import ARRIA10, board_by_name
from repro.flow import build_folded
from repro.flow.deploy import default_folded_config, deploy_pipelined
from repro.flow.dse import sweep_conv1x1
from repro.flow.folded import FoldedConfig, plan_folded, schedule_folded
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import MODELS, folded_flow, pipelined_flow
from repro.models.twins import TWINS
from repro.pipeline.cache import CompileCache
from repro.relay import fuse_operators, init_params
from repro.runtime.executor import run_folded_functional
from repro.serve.replica import replicas_per_board
from repro.verify import certify_build, clear_equiv_cache, dynamic_equiv_check
from repro.verify.memory import weights_bytes
from repro.verify.verifier import binding_sets_of

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


def _throughput_measurers(fallbacks: dict) -> dict:
    """Throughput closures; fills ``fallbacks`` with each twin's count of
    scalar-fallback bands from its warm-up forward."""
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
        tx = np.random.default_rng(11).standard_normal(
            graph.input.out_shape
        ).astype(np.float32)
        events = []
        run_folded_functional(prog, plan, fused, tx, params, interp="vector",
                              events=events)
        fallbacks[f"{net}@twin"] = sum(
            1 for _, ev in events if ev.kind == "fallback")

        def measure(prog=prog, plan=plan, fused=fused, tx=tx, params=params):
            seconds = _best_of(
                lambda: run_folded_functional(prog, plan, fused, tx, params,
                                              interp="vector"))
            return {"value": 1.0 / seconds, "probe_s": _numpy_probe()}

        out[f"{net}@twin"] = measure
    return out


def _measure_lenet_speedup(vector_ips: float) -> dict:
    dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
    x = np.random.default_rng(0).standard_normal((1, 28, 28)).astype(np.float32)
    os.environ["REPRO_INTERP"] = "scalar"
    try:
        t0 = time.perf_counter()
        dep.forward_functional(x)
        scalar_s = time.perf_counter() - t0
    finally:
        del os.environ["REPRO_INTERP"]
    return {"scalar_ips": 1.0 / scalar_s,
            "speedup": vector_ips * scalar_s}


def _measure_sweep() -> dict:
    fused = fuse_operators(MODELS["mobilenet_v1"]())
    arms = {}
    for workers in (1, SWEEP_WORKERS):
        clear_lower_cache()
        t0 = time.perf_counter()
        summary = sweep_conv1x1(fused, ARRIA10, cache=CompileCache(),
                                prune=True, workers=workers, **SWEEP_GRID)
        arms[workers] = (time.perf_counter() - t0, summary)
    serial_s, serial = arms[1]
    parallel_s, parallel = arms[SWEEP_WORKERS]
    # correctness parity between the two arms, regardless of timing
    assert len(serial.points) == len(parallel.points)
    assert [p.pruned for p in serial.points] == \
        [p.pruned for p in parallel.points]
    assert serial.best.tiling == parallel.best.tiling
    return {
        "points": len(serial.points),
        "evaluated": sum(1 for p in serial.points if not p.pruned),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "best": [serial.best.tiling.w2vec, serial.best.tiling.c2vec,
                 serial.best.tiling.c1vec],
    }


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
    compile_s, throughput, fallbacks = {}, {}, {}
    for key, fn in _compile_measurers().items():
        compile_s[key] = fn()
        remeasure[key] = fn
    for key, fn in _throughput_measurers(fallbacks).items():
        throughput[key] = fn()
        remeasure[key] = fn
    current = {
        "schema": 2,
        "cpus": _usable_cpus(),
        "compile_s": compile_s,
        "throughput_ips": throughput,
        "vinterp_fallbacks": fallbacks,
        "lenet5": _measure_lenet_speedup(
            throughput["lenet5@pipelined"]["value"]),
        "sweep": _measure_sweep(),
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
        base = baseline["throughput_ips"][key]
        rows.append([key, f"{cur['value']:.2f} ips",
                     f"{base['value']:.2f} ips",
                     f"{_calibrated(cur, base, 'ips'):.2f} ips"])
    for key in sorted(current["vinterp_fallbacks"]):
        rows.append([f"{key} fallback bands",
                     f"{current['vinterp_fallbacks'][key]}",
                     f"{baseline.get('vinterp_fallbacks', {}).get(key, '-')}",
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

    def test_twins_fully_vectorize(self, trajectory):
        current, _, _ = trajectory
        assert sorted(current["vinterp_fallbacks"]) == [
            f"{net}@twin" for net in sorted(TWINS)]
        for key, count in sorted(current["vinterp_fallbacks"].items()):
            assert count == 0, (
                f"{key}: {count} interpreter band(s) fell back to the scalar "
                "loop — an exact count, gated at zero"
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
