"""Per-stage trace coverage: structure, timings, counters, diagnostics."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aoc.constants import DEFAULT_CONSTANTS
from repro.aoc.report import area_row
from repro.device.boards import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.errors import FitError, PipelineError
from repro.flow import (
    default_folded_config,
    deploy_folded,
    deploy_pipelined,
    folded_flow,
    pipelined_flow,
)
from repro.flow.stages import MODELS
from repro.pipeline import Pipeline, Stage
from repro.relay import fuse_operators
from repro.models import mobilenet_v1
from repro.schedule import ScheduleRecipe
from repro.topi import ConvTiling

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
        p = Pipeline("broken", [Stage("s", "out", lambda ctx: ctx.value("nope"), ())])
        with pytest.raises(PipelineError, match="no artifact"):
            p.run()

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline("dup", [
                Stage("s", "a", lambda ctx: 1, ()),
                Stage("s", "b", lambda ctx: 2, ()),
            ])


# -- derived fingerprints ----------------------------------------------------

#: per-stage fingerprints of two builds, one JSON line per build
_COLD_BUILDS = """
import json
from repro.device.boards import ARRIA10, STRATIX10_SX
from repro.flow import default_folded_config, folded_flow, pipelined_flow
flows = [
    pipelined_flow("lenet5", STRATIX10_SX, cache=False),
    folded_flow("mobilenet_v1", ARRIA10,
                default_folded_config("mobilenet_v1", ARRIA10), cache=False),
]
for flow in flows:
    trace = flow.run().trace
    print(json.dumps([[r.stage, r.fingerprint] for r in trace.records]))
"""


def _build(flow, seed=None):
    """``({stage: fingerprint}, source text)`` of one successful run."""
    result = flow.run(seed=seed)
    prints = {r.stage: r.fingerprint for r in result.trace.records}
    return prints, result.value("source")


def _folded(config=None, autofix=False, network="mobilenet_v1"):
    config = config or default_folded_config(network, STRATIX10_SX)
    return folded_flow(network, STRATIX10_SX, config, cache=False,
                       autofix=autofix)


def _with(**changes):
    config = default_folded_config("mobilenet_v1", STRATIX10_SX).copy()
    for name, value in changes.items():
        setattr(config, name, value)
    return config


class TestDerivedFingerprints:
    """A deterministic stage's fingerprint names its derivation: the
    stage, the values its function closes over and every upstream
    fingerprint.  Changing one flow-factory argument must change the
    first stage that reads it and every stage after it, and no stage
    before it.  ``codegen`` is fingerprinted by content, so it changes
    exactly when the source text does."""

    def assert_changed_from(self, base, varied, first):
        (before, base_src), (after, varied_src) = base, varied
        stages = list(after)
        split = stages.index(first)
        for stage in stages[:split]:
            assert after[stage] == before[stage], f"{stage} changed"
        for stage in stages[split:]:
            if stage == "codegen":
                assert (after[stage] != before[stage]) == (
                    varied_src != base_src), "codegen is not content-hashed"
            else:
                assert after[stage] != before.get(stage), f"{stage} unchanged"

    def test_two_cold_processes_agree(self):
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"),
                       PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", _COLD_BUILDS], env=env,
                capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        lenet, mobilenet = (json.loads(line)
                            for line in outputs[0].splitlines())
        for records in (lenet, mobilenet):
            assert [stage for stage, _ in records] == ALL_STAGES
            assert all(len(fp) == 64 for _, fp in records)

    @pytest.mark.parametrize("varied, first", [
        (dict(board=STRATIX10_MX), "schedule"),
        (dict(level="autorun"), "schedule"),
        (dict(channel_depth_scale=2.0), "schedule"),
        (dict(constants=dataclasses.replace(
            DEFAULT_CONSTANTS,
            ii_global_accum=DEFAULT_CONSTANTS.ii_global_accum + 1)),
         "verify"),
    ], ids=["board", "level", "channel_depth_scale", "constants"])
    def test_pipelined_argument_changes_its_readers(self, varied, first):
        base = dict(network="lenet5", board=STRATIX10_SX, cache=False)
        self.assert_changed_from(
            _build(pipelined_flow(**base)),
            _build(pipelined_flow(**{**base, **varied})), first,
        )

    @pytest.mark.parametrize("base, varied", [
        ({}, dict(conv_tilings={
            **default_folded_config("mobilenet_v1", STRATIX10_SX).conv_tilings,
            ("conv", 1, 1): ConvTiling(w2vec=7, c2vec=4, c1vec=8),
        })),
        ({}, dict(dense_unroll=16)),
        ({}, dict(naive=True)),
        # unpinned strides only route on the S10SX without the tilings
        (dict(naive=True), dict(naive=True, pin_unit_stride=False)),
        ({}, dict(recipe_deltas={"k_fc": ScheduleRecipe().unroll("ko", 2)})),
        # the base recipe again: same source, a different configuration
        ({}, dict(recipe_overrides={"k_gap": ScheduleRecipe()
                                    .cache_write("register").unroll("ry")
                                    .unroll("rx")})),
    ], ids=["conv_tilings", "dense_unroll", "naive", "pin_unit_stride",
            "recipe_deltas", "recipe_overrides"])
    def test_folded_config_field_changes_schedule_on(self, base, varied):
        self.assert_changed_from(_build(_folded(_with(**base))),
                                 _build(_folded(_with(**varied))), "schedule")

    def test_autofix_changes_its_stage_on(self):
        self.assert_changed_from(_build(_folded()),
                                 _build(_folded(autofix=True)), "autofix")

    def test_network_changes_every_stage(self):
        self.assert_changed_from(_build(_folded()),
                                 _build(_folded(network="mobilenet_v1_bn")),
                                 "import")

    def test_seeded_input_changes_every_stage(self):
        def seed(network):
            fused = fuse_operators(MODELS[network]())
            return {"graph": fused.graph, "fused": fused}

        base = _build(_folded(), seed("mobilenet_v1"))
        # the same content in new objects derives the same fingerprints
        assert _build(_folded(), seed("mobilenet_v1")) == base
        self.assert_changed_from(
            base, _build(_folded(), seed("mobilenet_v1_bn")), "import")
