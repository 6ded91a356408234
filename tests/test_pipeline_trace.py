"""Per-stage trace coverage: structure, timings, counters, diagnostics."""

import json

import pytest

from repro.aoc.report import area_row
from repro.device.boards import ARRIA10, STRATIX10_SX
from repro.errors import FitError, PipelineError
from repro.flow import (
    default_folded_config,
    deploy_folded,
    deploy_pipelined,
    folded_flow,
)
from repro.pipeline import Pipeline, Stage
from repro.relay import fuse_operators
from repro.models import mobilenet_v1

ALL_STAGES = [
    "import", "fuse", "schedule", "lower", "codegen", "plan", "verify",
    "synthesize",
]


@pytest.fixture(scope="module")
def lenet():
    return deploy_pipelined("lenet5", STRATIX10_SX, cache=False)


class TestTraceStructure:
    def test_all_stages_present_in_order(self, lenet):
        assert lenet.trace is not None
        assert lenet.trace.stage_names() == ALL_STAGES

    def test_all_stages_ok(self, lenet):
        assert [r.status for r in lenet.trace.records] == ["ok"] * 8

    def test_timestamps_monotonic(self, lenet):
        prev_end = 0.0
        for r in lenet.trace.records:
            assert r.t_start >= prev_end
            assert r.t_end >= r.t_start
            prev_end = r.t_end

    def test_total_time_positive(self, lenet):
        assert lenet.trace.total_ms > 0
        assert lenet.trace.total_ms == pytest.approx(
            sum(r.wall_ms for r in lenet.trace.records)
        )

    def test_artifacts_fingerprinted(self, lenet):
        for r in lenet.trace.records:
            assert len(r.fingerprint) == 64, r.stage

    def test_stage_lookup_raises_on_unknown(self, lenet):
        with pytest.raises(KeyError):
            lenet.trace.stage("quartus")


class TestTraceCounters:
    def test_kernel_counts_consistent(self, lenet):
        trace = lenet.trace
        n = len(lenet.bitstream.hw)
        assert trace.stage("lower").counters["kernels"] == n
        assert trace.stage("codegen").counters["kernels"] == n
        assert trace.stage("synthesize").counters["kernels"] == n

    def test_synthesize_counters_match_area_report(self, lenet):
        row = area_row(lenet.bitstream)
        c = lenet.trace.stage("synthesize").counters
        assert c["logic_pct"] == row["logic_pct"]
        assert c["ram_pct"] == row["ram_pct"]
        assert c["dsp_pct"] == row["dsp_pct"]
        assert c["dsps"] == row["dsps"]
        assert c["fmax_mhz"] == row["fmax_mhz"]

    def test_loop_ii_counters(self, lenet):
        c = lenet.trace.stage("synthesize").counters
        assert c["loops"] > 0
        assert c["max_ii"] >= 1

    def test_source_counters(self, lenet):
        c = lenet.trace.stage("codegen").counters
        assert c["kernels"] == lenet.opencl_source().count("kernel void")
        assert c["bytes"] == len(lenet.opencl_source())


class TestTraceExport:
    def test_json_round_trip(self, lenet):
        d = json.loads(lenet.trace.to_json())
        assert d["pipeline"].startswith("pipelined:lenet5")
        assert [s["stage"] for s in d["stages"]] == ALL_STAGES
        assert all("wall_ms" in s and "counters" in s for s in d["stages"])

    def test_ascii_table(self, lenet):
        table = lenet.trace.format_table()
        for name in ALL_STAGES:
            assert name in table
        assert "fingerprint" in table


class TestSeededStages:
    def test_seeded_artifacts_recorded(self):
        fused = fuse_operators(mobilenet_v1())
        config = default_folded_config("mobilenet_v1", STRATIX10_SX)
        flow = folded_flow("mobilenet_v1", STRATIX10_SX, config, cache=False)
        result = flow.run(seed={"graph": fused.graph, "fused": fused})
        assert result.trace.stage("import").status == "seeded"
        assert result.trace.stage("fuse").status == "seeded"
        assert result.trace.stage("schedule").status == "ok"
        assert result.value("fused") is fused


class TestDiagnostics:
    def test_fit_error_carries_stage_and_trace(self):
        with pytest.raises(FitError) as exc:
            deploy_folded("mobilenet_v1", ARRIA10, naive=True, cache=False)
        err = exc.value
        assert err.stage == "synthesize"
        diag = err.diagnostic
        assert diag.pipeline.startswith("folded:mobilenet_v1")
        assert diag.stage == "synthesize"
        assert len(diag.fingerprint) == 64
        failing = diag.trace.records[-1]
        assert failing.stage == "synthesize"
        assert failing.status == "error"
        assert "FitError" in failing.error
        # every stage before the failure completed (verify included: the
        # naive build is statically sound, it just doesn't fit the board)
        assert [r.status for r in diag.trace.records[:-1]] == ["ok"] * 7

    def test_missing_artifact_is_pipeline_error(self):
        p = Pipeline("broken", [Stage("s", "out", lambda ctx: ctx.value("nope"))])
        with pytest.raises(PipelineError, match="no artifact"):
            p.run()

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline("dup", [
                Stage("s", "a", lambda ctx: 1),
                Stage("s", "b", lambda ctx: 2),
            ])
