"""Functional execution of compiled deployments through the interpreter.

These are the reproduction's "validate with a real image" tests: the
generated kernels (with channels, autorun, symbolic bindings) must
compute exactly what the NumPy reference computes.
"""

import pickle

import numpy as np
import pytest

from repro.device import STRATIX10_SX
from repro.errors import RuntimeSimError
from repro.flow import FoldedConfig, build_folded, build_pipelined, deploy_pipelined
from repro.ir.interp import Interpreter
from repro.ir.vinterp import VectorizedInterpreter
from repro.models import lenet5
from repro.pipeline.cache import CompileCache
from repro.relay import (
    GraphBuilder,
    fuse_operators,
    init_params,
    run_fused_graph,
)
from repro.runtime.executor import (
    BoundForward,
    run_folded_functional,
    run_pipelined_functional,
)
from repro.serve import RequestTrace, ServeConfig, Server, provision_replicas
from repro.serve.replica import LogitsCache
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


def _mini_bn():
    g = GraphBuilder("minibn")
    x = g.input((2, 10, 10))
    x = g.pad(x, 1, name="pd")
    x = g.conv2d(x, filters=4, field=3, bias=False, name="c1")
    x = g.batchnorm(x, name="c1_bn")
    x = g.relu(x)
    x = g.maxpool(x, 2, 2, name="p1")
    x = g.flatten(x, name="fl")
    x = g.dense(x, 5, name="fc")
    x = g.softmax(x, name="sm")
    return g.build()


def _bn_build(mode):
    """(run, program, plan, fused, params) of the BN chain in ``mode``."""
    graph = _mini_bn()
    fused = fuse_operators(graph)
    params = init_params(graph, 2)
    if mode == "pipelined":
        prog, plan = build_pipelined(fused, "tvm_autorun", STRATIX10_SX)
        return run_pipelined_functional, prog, plan, fused, params
    prog, plan = build_folded(fused, FoldedConfig(), STRATIX10_SX)
    return run_folded_functional, prog, plan, fused, params


def _inputs(n, seed):
    shape = (2, 10, 10) if n is None else (n, 2, 10, 10)
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


def _fresh(plan):
    """The same plan with an empty memo: nothing bound yet."""
    return pickle.loads(pickle.dumps(plan))


def _roots(fwd):
    """Every array a bound forward holds, by the array that owns its
    memory: buffer maps, interpreters' bound views and channels."""
    arrays = [a for bufs, _ in fwd.maps for a in bufs.values()]
    for _, it, _ in fwd.steps:
        bound = getattr(it, "_bound", None)
        if bound is not None:
            arrays += bound.views.values()
    roots = set()
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        roots.add(id(arr))
    return roots


class TestBoundForward:
    """A plan binds one forward per batch size and interpreter; its
    results are copies, and it holds nothing a run allocated."""

    @pytest.mark.parametrize("n", [None, 3])
    @pytest.mark.parametrize("interp", ["scalar", "vector"])
    @pytest.mark.parametrize("mode", ["pipelined", "folded"])
    def test_logits_survive_the_next_forward(self, mode, interp, n):
        run, prog, plan, fused, params = _bn_build(mode)
        outs = []
        for seed in range(3):
            out = run(prog, plan, fused, _inputs(n, seed), params,
                      interp=interp)
            outs.append((out, out.tobytes()))
        assert outs[0][1] != outs[1][1]
        for out, before in outs:
            assert out.tobytes() == before
        cls = VectorizedInterpreter if interp == "vector" else Interpreter
        fwd = plan.derived[BoundForward][1 if n is None else n, cls]
        for out, _ in outs:
            assert not np.shares_memory(out, fwd.out)

    def test_serving_memo_keeps_its_logits(self, monkeypatch):
        replicas = provision_replicas("lenet5", STRATIX10_SX, 2,
                                      cache=CompileCache())
        trace = RequestTrace.poisson("lenet5", 60, 3000.0, (1, 28, 28),
                                     seed=1, distinct_inputs=30)
        server = Server(replicas, ServeConfig(window_us=2000, max_batch=8,
                                              max_queue=256))
        first = {}
        get_batch = LogitsCache.get_batch

        def recording(cache, network, xs, compute):
            out = get_batch(cache, network, xs, compute)
            for key, y in cache._store.items():
                first.setdefault(key, y.tobytes())
            return out

        monkeypatch.setattr(LogitsCache, "get_batch", recording)
        server.run(trace)
        assert len(first) == 30 and server.logits_cache.hits > 0
        store = server.logits_cache._store
        assert {k: store[k].tobytes() for k in first} == first

    @pytest.mark.parametrize("mode", ["pipelined", "folded"])
    def test_new_params_or_batch_rebind_like_a_fresh_plan(self, mode):
        run, prog, plan, fused, params = _bn_build(mode)
        x = _inputs(None, 4)

        def check(params, x):
            got = run(prog, plan, fused, x, params)
            assert got.tobytes() == run(
                prog, _fresh(plan), fused, x, params).tobytes()
            return got.tobytes()

        before = check(params, x)
        bound = plan.derived[BoundForward][1, VectorizedInterpreter]
        assert check(params, x) == before  # same arrays: same binding
        assert plan.derived[BoundForward][1, VectorizedInterpreter] is bound
        other = init_params(fused.graph, 7)  # a new params dict
        assert check(other, x) != before
        other["c1_bn.gamma"] = other["c1_bn.gamma"] * 2  # replaced in place
        changed = check(other, x)
        assert changed != check(init_params(fused.graph, 7), x)
        xs = _inputs(3, 5)  # another batch size
        rows = run(prog, plan, fused, xs, other)
        assert rows.tobytes() == run(
            prog, _fresh(plan), fused, xs, other).tobytes()
        assert sorted(plan.derived[BoundForward]) == [
            (1, VectorizedInterpreter), (3, VectorizedInterpreter)]

    @pytest.mark.parametrize("mode", ["pipelined", "folded"])
    def test_plan_pickles_the_same_after_a_forward(self, mode):
        run, prog, plan, fused, params = _bn_build(mode)
        before = pickle.dumps(plan)
        run(prog, plan, fused, _inputs(2, 0), params)
        assert plan.derived[BoundForward]
        assert pickle.dumps(plan) == before
        assert _fresh(plan).derived == {}

    def test_deployment_pickles_the_same_after_a_forward(self):
        dep = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        assert dep.params
        before = pickle.dumps(dep)
        dep.forward_functional(np.zeros((1, 28, 28), np.float32))
        assert dep.plan.derived[BoundForward]
        assert pickle.dumps(dep) == before

    @pytest.mark.parametrize("mode", ["pipelined", "folded"])
    def test_one_binding_per_batch_and_interpreter_holding_no_run_arrays(
            self, mode):
        run, prog, plan, fused, params = _bn_build(mode)
        pairs = [(1, "vector"), (3, "vector"), (1, "scalar"), (3, "vector"),
                 (1, "vector")]
        held = {}
        for seed, (n, interp) in enumerate(pairs):
            run(prog, plan, fused, _inputs(n, seed), params, interp=interp)
            cls = VectorizedInterpreter if interp == "vector" else Interpreter
            fwd = plan.derived[BoundForward][n, cls]
            assert fwd.channels == {}
            for bufs, bound in fwd.maps:
                assert set(bufs) == bound
            # a run's arrays would be new objects on every forward
            assert held.setdefault((n, cls), _roots(fwd)) == _roots(fwd)
        assert sorted(plan.derived[BoundForward],
                      key=lambda k: (k[0], k[1].__name__)) == [
            (1, Interpreter), (1, VectorizedInterpreter),
            (3, VectorizedInterpreter)]


def test_a_forward_raised_mid_pipeline_leaves_no_chunk(monkeypatch):
    run, prog, plan, fused, params = _bn_build("pipelined")
    run(prog, plan, fused, _inputs(3, 0), params)
    fwd = plan.derived[BoundForward][3, VectorizedInterpreter]
    kernel, it, _ = fwd.steps[2]
    queued = []

    def raising(k):
        # the first two kernels' output chunks are written, unread
        queued.extend(len(st) for st in fwd.channels.values())
        raise RuntimeSimError(f"{k.name} failed")

    monkeypatch.setattr(it, "run", raising)
    with pytest.raises(RuntimeSimError, match=f"{kernel.name} failed"):
        run(prog, plan, fused, _inputs(3, 1), params)
    assert sum(queued) > 0
    assert fwd.channels == {}
    monkeypatch.undo()
    x = _inputs(3, 2)
    got = run(prog, plan, fused, x, params)
    assert plan.derived[BoundForward][3, VectorizedInterpreter] is fwd
    assert got.tobytes() == run(prog, _fresh(plan), fused, x, params).tobytes()
