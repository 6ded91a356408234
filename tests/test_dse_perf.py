"""DSE and baseline-model tests."""

import pytest

from repro.device import ARRIA10, STRATIX10_SX
from repro.errors import FitError, ReproError
from repro.flow import (
    bandwidth_roof_elems,
    choose_tiling,
    divides_all,
    sweep_conv1x1,
)
from repro.models import mobilenet_v1
from repro.perf import (
    PAPER_ANCHORS,
    best_cpu_fps,
    tf_cpu_fps,
    tf_cudnn_fps,
    tvm_cpu_fps,
    tvm_sweep,
)
from repro.relay import fuse_operators


class TestDSERequirements:
    def test_bandwidth_roof_matches_thesis_example(self):
        """Thesis 4.11: A10 at 250 MHz supports ~32 floats/cycle."""
        assert bandwidth_roof_elems(ARRIA10, 250.0) == 34  # 136.4 B/cycle

    def test_divides_all(self):
        assert divides_all(7, [112, 56, 28, 14, 7])
        assert not divides_all(16, [112, 56, 28, 14, 7])

    def test_indivisible_factors_skipped(self):
        fused = fuse_operators(mobilenet_v1())
        pts = sweep_conv1x1(
            fused, ARRIA10, w2vec_options=(5,), c2vec_options=(8,), c1vec_options=(4,)
        ).points
        assert pts == []  # 5 divides no MobileNet W2


class TestDSESweep:
    @pytest.fixture(scope="class")
    def points(self):
        fused = fuse_operators(mobilenet_v1())
        return sweep_conv1x1(
            fused, ARRIA10, c2vec_options=(4, 8, 16, 32), c1vec_options=(4, 8, 16)
        ).points

    def test_dsps_grow_with_tiling(self, points):
        feasible = [p for p in points if p.feasible]
        by_size = sorted(
            feasible, key=lambda p: p.tiling.w2vec * p.tiling.c2vec * p.tiling.c1vec
        )
        assert by_size[0].dsps < by_size[-1].dsps

    def test_fmax_degrades_with_tiling(self, points):
        feasible = [p for p in points if p.feasible]
        by_size = sorted(
            feasible, key=lambda p: p.tiling.w2vec * p.tiling.c2vec * p.tiling.c1vec
        )
        assert by_size[0].fmax_mhz > by_size[-1].fmax_mhz

    def test_some_configs_infeasible(self, points):
        assert any(not p.feasible for p in points)

    def test_choose_returns_feasible_max(self, points):
        best = choose_tiling(points)
        assert best.feasible
        for p in points:
            if p.feasible:
                assert best.fps >= p.fps

    def test_choose_empty_raises(self):
        with pytest.raises(FitError):
            choose_tiling([])


class TestBaselines:
    def test_anchor_values_match_thesis(self):
        assert tf_cpu_fps("lenet5") == 1075.0
        assert tf_cudnn_fps("mobilenet_v1") == 43.7
        assert tvm_cpu_fps("resnet18", 1) == 5.8

    def test_sweep_endpoints(self):
        a = PAPER_ANCHORS["mobilenet_v1"]
        assert abs(tvm_cpu_fps("mobilenet_v1", 56) - a.tvm_best) < 0.5

    def test_lenet_scaling_is_negative(self):
        """The thesis observes LeNet slows down with more threads."""
        assert tvm_cpu_fps("lenet5", 8) < tvm_cpu_fps("lenet5", 1)

    def test_large_nets_scale_up(self):
        assert tvm_cpu_fps("resnet34", 16) > tvm_cpu_fps("resnet34", 1)

    def test_scaling_monotone_for_resnet(self):
        sweep = tvm_sweep("resnet18")
        vals = list(sweep.values())
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_unknown_network_rejected(self):
        with pytest.raises(ReproError):
            tf_cpu_fps("alexnet")
        with pytest.raises(ReproError):
            tvm_cpu_fps("lenet5", 0)

    def test_best_cpu(self):
        assert best_cpu_fps("lenet5") == 2345.0  # TVM-1T beats TF
        assert best_cpu_fps("mobilenet_v1") == 90.1  # TVM-56T


class TestHeadlineClaims:
    """The paper's comparison claims, as reproduced by the model."""

    def test_lenet_beats_cpu_and_gpu(self):
        from repro.flow import deploy_pipelined

        fps = deploy_pipelined("lenet5", STRATIX10_SX).fps()
        assert fps > tf_cpu_fps("lenet5")  # paper: 4.57x
        assert fps > tf_cudnn_fps("lenet5")  # paper: 3.07x

    def test_mobilenet_beats_tf_cpu_on_s10sx(self):
        from repro.flow import deploy_folded

        fps = deploy_folded("mobilenet_v1", STRATIX10_SX).fps()
        assert fps > tf_cpu_fps("mobilenet_v1")  # paper: 1.40x

    def test_mobilenet_loses_to_gpu(self):
        from repro.flow import deploy_folded

        fps = deploy_folded("mobilenet_v1", STRATIX10_SX).fps()
        assert fps < tf_cudnn_fps("mobilenet_v1")  # paper: 0.69x

    def test_resnet_loses_to_multithread_cpu(self):
        from repro.flow import deploy_folded

        fps = deploy_folded("resnet18", STRATIX10_SX).fps()
        assert fps < tvm_cpu_fps("resnet18", 56)  # paper: 0.13x
        assert fps < tf_cudnn_fps("resnet18")  # paper: 0.15x

    def test_resnet34_on_par_with_few_cpu_threads(self):
        from repro.flow import deploy_folded

        fps = deploy_folded("resnet34", STRATIX10_SX).fps()
        # paper: comparable to 4 TVM threads
        assert tvm_cpu_fps("resnet34", 1) < fps < tvm_cpu_fps("resnet34", 16)
