"""Auto-tuner and quantization-projection tests (future-work features)."""

import pytest

from repro.device import ARRIA10, STRATIX10_SX
from repro.errors import ReproError
from repro.flow import (
    FoldedConfig,
    autotune_folded,
    deploy_folded,
    deploy_pipelined,
)
from repro.models import mobilenet_v1
from repro.perf import precision_sweep, project_precision
from repro.relay import fuse_operators
from repro.topi import ConvTiling


class TestAutotune:
    @pytest.fixture(scope="class")
    def result(self):
        fused = fuse_operators(mobilenet_v1())
        return autotune_folded(fused, ARRIA10, max_rounds=2)

    def test_improves_over_untiled_start(self, result):
        fused = fuse_operators(mobilenet_v1())
        from repro.flow.search import evaluate

        start = evaluate(fused, ARRIA10, FoldedConfig())
        assert start.fail_reason is None
        assert result.fps > 2 * start.fps

    def test_at_least_matches_manual_config(self, result):
        manual = deploy_folded("mobilenet_v1", ARRIA10).fps()
        assert result.fps >= 0.95 * manual

    def test_history_is_monotone(self, result):
        fps_seq = [fps for _, _, fps in result.history]
        assert all(b >= a for a, b in zip(fps_seq, fps_seq[1:]))

    def test_final_config_is_feasible(self, result):
        d = deploy_folded("mobilenet_v1", ARRIA10, config=result.config)
        assert abs(d.fps() - result.fps) / result.fps < 0.01

    def test_tilings_respect_divisibility(self, result):
        # all chosen 1x1 factors divide MobileNet's extents
        t = result.config.conv_tilings.get(("conv", 1, 1), ConvTiling())
        for wo in (112, 56, 28, 14, 7):
            assert wo % t.w2vec == 0
        assert 64 % t.c2vec == 0 or t.c2vec == 1
        assert 32 % t.c1vec == 0 or t.c1vec == 1

    def test_evaluation_budget_counted(self, result):
        assert result.evaluations > 10


class TestQuantizationProjection:
    @pytest.fixture(scope="class")
    def deployment(self):
        return deploy_folded("mobilenet_v1", STRATIX10_SX)

    def test_fp32_is_identity_speedup(self, deployment):
        proj = project_precision(deployment, "fp32")
        assert abs(proj.speedup_vs_fp32 - 1.0) < 0.1

    def test_packing_monotone(self, deployment):
        sweep = precision_sweep(deployment)
        assert sweep["fp32"].fps < sweep["int16"].fps < sweep["int8"].fps

    def test_dsp_utilization_halves(self, deployment):
        sweep = precision_sweep(deployment)
        assert (
            abs(sweep["int16"].dsp_util - sweep["fp32"].dsp_util / 2) < 0.01
        )

    def test_ram_shrinks(self, deployment):
        sweep = precision_sweep(deployment)
        assert sweep["int8"].ram_util < sweep["fp32"].ram_util

    def test_speedup_bounded_by_packing(self, deployment):
        # memory-bound fractions keep int8 well below the 4x compute bound
        proj = project_precision(deployment, "int8")
        assert 1.5 < proj.speedup_vs_fp32 < 4.5

    def test_unknown_precision_rejected(self, deployment):
        with pytest.raises(ReproError):
            project_precision(deployment, "int4")

    def test_pipelined_rejected(self):
        d = deploy_pipelined("lenet5", STRATIX10_SX)
        with pytest.raises(ReproError):
            project_precision(d, "int16")

    def test_all_precisions_fit(self, deployment):
        # reduced precision never makes a fitting design stop fitting
        for proj in precision_sweep(deployment).values():
            assert proj.fits
