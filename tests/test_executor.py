"""Functional execution of compiled deployments through the interpreter.

These are the reproduction's "validate with a real image" tests: the
generated kernels (with channels, autorun, symbolic bindings) must
compute exactly what the NumPy reference computes.
"""

import numpy as np
import pytest

from repro.device import STRATIX10_SX
from repro.errors import RuntimeSimError
from repro.flow import FoldedConfig, build_folded, build_pipelined
from repro.models import lenet5
from repro.relay import (
    GraphBuilder,
    fuse_operators,
    init_params,
    run_fused_graph,
)
from repro.runtime.executor import run_folded_functional, run_pipelined_functional
from repro.topi import ConvTiling


def _mini_chain():
    g = GraphBuilder("mini")
    x = g.input((2, 10, 10))
    x = g.conv2d(x, filters=4, field=3, name="c1")
    x = g.relu(x)
    x = g.maxpool(x, 2, 2, name="p1")
    x = g.flatten(x, name="fl")
    x = g.dense(x, 6, name="fc")
    x = g.softmax(x, name="sm")
    return g.build()


def _mini_residual():
    g = GraphBuilder("minires")
    x = g.input((3, 12, 12))
    x = g.pad(x, 1, name="pd0")
    x = g.conv2d(x, filters=6, field=3, name="c1")
    x = g.relu(x)
    sc = x
    x = g.pad(x, 1, name="pd1")
    x = g.conv2d(x, filters=6, field=3, name="c2")
    x = g.add(x, sc)
    x = g.relu(x)
    x = g.pad(x, (0, 1), name="pd2")
    x = g.depthwise_conv2d(x, field=3, stride=2, name="dw")
    x = g.relu6(x)
    x = g.global_avgpool(x, name="gap")
    x = g.dense(x, 4, name="fc")
    x = g.softmax(x, name="sm")
    return g.build()


class TestPipelinedFunctional:
    @pytest.mark.parametrize("level", ["base", "unroll", "channels", "autorun", "tvm_autorun"])
    def test_mini_chain_all_levels(self, level):
        graph = _mini_chain()
        fused = fuse_operators(graph)
        params = init_params(graph, 1)
        x = np.random.default_rng(2).standard_normal((2, 10, 10)).astype(np.float32)
        ref = run_fused_graph(fused, x, params)
        prog, plan = build_pipelined(fused, level, STRATIX10_SX)
        out = run_pipelined_functional(prog, plan, fused, x, params)
        assert np.allclose(out, ref, atol=1e-4), level

    def test_lenet_full_base(self):
        """The real LeNet program classifies identically to NumPy."""
        graph = lenet5()
        fused = fuse_operators(graph)
        params = init_params(graph, 0)
        x = np.random.default_rng(7).standard_normal((1, 28, 28)).astype(np.float32)
        ref = run_fused_graph(fused, x, params)
        prog, plan = build_pipelined(fused, "tvm_autorun", STRATIX10_SX)
        out = run_pipelined_functional(prog, plan, fused, x, params)
        assert np.allclose(out, ref, atol=1e-4)
        assert out.argmax() == ref.argmax()


class TestFoldedFunctional:
    def test_mini_residual_parameterized(self):
        graph = _mini_residual()
        fused = fuse_operators(graph)
        params = init_params(graph, 3)
        x = (np.random.default_rng(4).standard_normal((3, 12, 12)) * 0.5).astype(
            np.float32
        )
        ref = run_fused_graph(fused, x, params)
        cfg = FoldedConfig(
            conv_tilings={("conv", 3, 1): ConvTiling(w2vec=6, c1vec=3)},
            dense_unroll=2,
        )
        prog, plan = build_folded(fused, cfg, STRATIX10_SX)
        out = run_folded_functional(prog, plan, fused, x, params)
        assert np.allclose(out, ref, atol=1e-4)

    def test_mini_residual_naive(self):
        graph = _mini_residual()
        fused = fuse_operators(graph)
        params = init_params(graph, 5)
        x = (np.random.default_rng(6).standard_normal((3, 12, 12)) * 0.5).astype(
            np.float32
        )
        ref = run_fused_graph(fused, x, params)
        prog, plan = build_folded(fused, FoldedConfig(naive=True), STRATIX10_SX)
        out = run_folded_functional(prog, plan, fused, x, params)
        assert np.allclose(out, ref, atol=1e-4)

    @pytest.mark.parametrize("interp", ["scalar", "vector"])
    def test_batch_rows_equal_single_forwards(self, interp):
        graph = _mini_residual()
        fused = fuse_operators(graph)
        params = init_params(graph, 5)
        prog, plan = build_folded(fused, FoldedConfig(naive=True),
                                  STRATIX10_SX)
        assert plan.memory is not None  # the batch shares one arena
        xs = np.random.default_rng(6).standard_normal((2, 3, 12, 12)).astype(
            np.float32)
        out = run_folded_functional(prog, plan, fused, xs, params,
                                    interp=interp)
        assert out.shape == (2, 4)
        for x, row in zip(xs, out):
            alone = run_folded_functional(prog, plan, fused, x, params,
                                          interp=interp)
            assert row.tobytes() == alone.tobytes()
        with pytest.raises(RuntimeSimError, match=r"expected \(3, 12, 12\)"):
            run_folded_functional(prog, plan, fused, xs[:, :2], params)

    def test_naive_and_optimized_agree(self):
        """The thesis's core semantics claim: optimization does not change
        the network's outputs (up to fp reassociation)."""
        graph = _mini_residual()
        fused = fuse_operators(graph)
        params = init_params(graph, 9)
        x = (np.random.default_rng(8).standard_normal((3, 12, 12)) * 0.5).astype(
            np.float32
        )
        p1, plan1 = build_folded(fused, FoldedConfig(naive=True), STRATIX10_SX)
        cfg = FoldedConfig(conv_tilings={("conv", 3, 1): ConvTiling(w2vec=2, c1vec=2)})
        p2, plan2 = build_folded(fused, cfg, STRATIX10_SX)
        out1 = run_folded_functional(p1, plan1, fused, x, params)
        out2 = run_folded_functional(p2, plan2, fused, x, params)
        assert np.allclose(out1, out2, atol=1e-4)
