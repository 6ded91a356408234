"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python -m pytest bench/tests -q

Every workload runs twice for one second, untraced and traced, with the
same seed, in its own process, as the benchmark's command would run it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from compare import compare, records  # noqa: E402
from probe import Probe  # noqa: E402
from spans import PATCHES, Span, Tracer, layer_metrics, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (record, result) of one 1-second run each."""
    trace_dir = str(tmp_path_factory.mktemp("traces"))
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", workload, "--seed", str(SEED),
                        "--seconds", "1", "--trace", str(trace),
                        "--trace-dir", trace_dir)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    out["trace_dir"] = trace_dir
    return out


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_declared_metric_is_emitted(runs):
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = runs[workload, trace]
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (workload, trace)
            for m in result["metrics"].values():
                assert isinstance(m["value"], (int, float))
        _, result = runs[workload, 0]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_no_operation_fails(runs):
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = runs[workload, trace]
            assert result["correct"] and result["failed"] == 0, record["problems"]
            assert result["attempted"] == record["ops"] >= 1


def test_tracing_leaves_digests_unchanged(runs):
    for workload in WORKLOADS:
        assert runs[workload, 0][0]["digests"] == runs[workload, 1][0]["digests"]


def test_every_wrapped_function_fires(runs):
    for patch in PATCHES:
        for workload in patch.fires_in:
            calls = runs[workload, 1][0]["span_calls"]
            assert calls.get(patch.span, 0) > 0, (patch.target, workload)


def test_kernel_metrics_cover_the_interpreted_kernels(runs):
    """Each declared kernel row is filled where its network runs."""
    metrics = runs["infer-twins", 1][1]["metrics"]
    for name, m in metrics.items():
        if name.startswith(("vinterp.ms.", "vinterp.bytes.")):
            assert m["value"] > 0, name


def test_trace_file_is_chrome_trace_json(runs):
    with open(os.path.join(runs["trace_dir"], "serve-lenet.trace.json")) as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert {"serve.run", "serve.forward", "vinterp.run"} <= {
        e["name"] for e in events}


def test_tracer_restores_every_original():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.ir.vinterp import VectorizedInterpreter
    from repro.pipeline.pipeline import Pipeline

    before = (Pipeline.run, "run" in vars(VectorizedInterpreter))
    with Tracer():
        assert Pipeline.run is not before[0]
        assert "run" in vars(VectorizedInterpreter)
    assert (Pipeline.run, "run" in vars(VectorizedInterpreter)) == before


def test_self_time_subtracts_children():
    parent = Span("pipeline.run", 0, -1, 0)
    parent.end_ns = 10_000_000
    child = Span("aoc.synthesize_resilient", 2_000_000, 0, 0)
    child.end_ns = 6_000_000
    child.args["error"] = "FitError"
    spans = [parent, child]
    durations = [s.ns for s in spans]
    assert self_times(spans, durations) == [6_000_000, 4_000_000]
    metrics = layer_metrics(spans, durations, ops=2)
    assert metrics["pipeline.self_ms"] == 3.0
    assert metrics["aoc.synthesize_ms"] == 2.0
    assert metrics["aoc.fit_failures"] == 0.5


def test_op_time_is_the_geometric_mean_of_per_kind_medians():
    from run import Window

    window = Window(cycle=2)
    window.ops = [(0, 10), (0, 1000), (0, 30), (0, 1000)]
    window.labels = ["lenet5", "resnet18"] * 2
    window.work = [1] * 4
    got = window.end_to_end(lambda t0, t1: t1 - t0)
    assert got["op_ms_p50"] == pytest.approx((20e-6 * 1000e-6) ** 0.5)


def test_logits_check_accepts_an_argmax_swap_only_on_a_near_tie():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import _logits_problem

    tie = np.array([0.1, 0.3684005, 0.3684001])
    assert _logits_problem("x", np.array([0.1, 0.3684000, 0.3684006]), tie) == []
    apart = np.array([1.0, 1.00015])
    assert _logits_problem("x", np.array([1.0001, 1.00005]), apart)


def test_probe_time_is_left_out_of_timed_intervals():
    with Probe() as probe:
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 300_000_000:
            pass
        t1 = time.perf_counter_ns()
    paused = [s for s in probe.samples if t0 <= s[0] <= t1]
    assert paused, "the timer never fired inside the interval"
    assert probe.measured(t0, t1) == t1 - t0 - sum(e - s for s, e, _ in paused)


def _record(value: float, digest: str = "d", failed: int = 0) -> str:
    e2e = {m["name"]: {"value": value, "unit": m["unit"]}
           for m in SPEC["end_to_end"]}
    lines = [json.dumps({"workload": w, "trace": 0, "ops_failed": failed,
                         "end_to_end": e2e, "digests": {"x": digest}})
             for w in WORKLOADS]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("b, failing", [
    ((1.0, "d", 0), False),
    ((1.5, "d", 0), True),  # every metric moves by 50%: some get worse
    ((1.0, "other", 0), True),
    ((1.0, "d", 1), True),
])
def test_compare_flags_regressions_and_digest_mismatches(tmp_path, b, failing):
    a_file, b_file = tmp_path / "a.json", tmp_path / "b.json"
    a_file.write_text(_record(1.0) * 3)
    b_file.write_text(_record(*b) * 3)
    _, failures = compare(records(str(a_file)), records(str(b_file)), SPEC)
    assert bool(failures) == failing


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails fast."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
