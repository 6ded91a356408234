"""Soundness of the vectorized interpreter: bit-identical to scalar.

The vectorized interpreter's contract (:mod:`repro.ir.vinterp`) is that
every result is **bit-identical in float32** to the element-wise scalar
interpreter — vectorization is a pure execution-speed transform, never a
numerics change.  These tests pin that contract four ways:

* a soundness matrix running every shipped network on every board
  (LeNet-5 at full size, MobileNetV1/ResNet-18 through their reduced
  twins from :mod:`repro.models.twins`, which instantiate every
  parameterized kernel group of the full networks — asserted, so
  coverage cannot drift);
* an exact gate on the same matrix: no band falls back to the scalar loop;
* hypothesis property tests over random conv tilings and dense unrolls;
* fallback tests proving that constructs the vectorizer must refuse
  (data-dependent control flow, overlapping stores, non-reduction
  self-reads, indirect indexing) fall back to the scalar loop and still
  produce identical results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ir as ir
from repro.device import ALL_BOARDS, STRATIX10_SX
from repro.flow import FoldedConfig, build_folded, build_pipelined
from repro.flow.deploy import default_folded_config
from repro.flow.stages import MODELS
from repro.ir.vinterp import VectorizedInterpreter, run_kernel_vectorized
from repro.models.twins import TWINS
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.runtime.executor import (
    run_folded_functional,
    run_pipelined_functional,
)
from repro.schedule import lower
from repro.topi import (
    ConvSpec,
    ConvTiling,
    DenseSpec,
    conv2d_symbolic,
    conv2d_tensors,
    dense_tensors,
    depthwise_symbolic,
    schedule_conv2d_opt,
    schedule_dense_opt,
    schedule_symbolic_conv,
)

_BOARDS = {b.name: b for b in ALL_BOARDS}


# ---------------------------------------------------------------------------
# shared builds: one compile and one scalar reference per distinct program


_builds = {}
_scalar_cache = {}


def _program_fingerprint(prog, plan) -> str:
    parts = [prog.name]
    for kern in prog.kernels:
        parts.append(kern.name)
        parts.append(ir.stmt_str(kern.body))
    for inv in getattr(plan, "invocations", ()):
        parts.append(inv.kernel_name)
        if inv.bindings:
            parts.extend(
                f"{v.name}={inv.bindings[v]}"
                for v in sorted(inv.bindings, key=lambda v: v.name)
            )
    return "\n".join(parts)


def _folded_build(network: str, board_name: str):
    """(graph, fused, program, plan, x, params) for one network x board."""
    key = (network, board_name)
    if key not in _builds:
        board = _BOARDS[board_name]
        if network in TWINS:
            graph = TWINS[network]()
            config = default_folded_config(network, board)
        else:
            graph = MODELS[network]()
            config = FoldedConfig()
        fused = fuse_operators(graph)
        prog, plan = build_folded(fused, config, board)
        params = init_params(graph, seed=0)
        x = np.random.default_rng(11).standard_normal(
            graph.input.out_shape
        ).astype(np.float32)
        _builds[key] = (graph, fused, prog, plan, x, params)
    return _builds[key]


def _scalar_folded(network: str, board_name: str) -> np.ndarray:
    """Scalar reference output, computed once per distinct program."""
    _, fused, prog, plan, x, params = _folded_build(network, board_name)
    fp = _program_fingerprint(prog, plan)
    if fp not in _scalar_cache:
        _scalar_cache[fp] = run_folded_functional(
            prog, plan, fused, x, params, interp="scalar"
        )
    return _scalar_cache[fp]


# ---------------------------------------------------------------------------
# the network x board soundness matrix


class TestSoundnessMatrix:
    """vectorized == scalar, bitwise, on every shipped network x board."""

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    @pytest.mark.parametrize("network", ["lenet5", "mobilenet_v1", "resnet18"])
    def test_folded_bit_identical(self, network, board_name):
        _, fused, prog, plan, x, params = _folded_build(network, board_name)
        vec = run_folded_functional(prog, plan, fused, x, params,
                                    interp="vector")
        ref = _scalar_folded(network, board_name)
        assert vec.dtype == np.float32
        assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    def test_lenet_pipelined_bit_identical(self, board_name):
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        prog, plan = build_pipelined(fused, "tvm_autorun",
                                     _BOARDS[board_name])
        params = init_params(graph, seed=0)
        x = np.random.default_rng(11).standard_normal(
            (1, 28, 28)
        ).astype(np.float32)
        vec = run_pipelined_functional(prog, plan, fused, x, params,
                                       interp="vector")
        fp = _program_fingerprint(prog, plan)
        if fp not in _scalar_cache:
            _scalar_cache[fp] = run_pipelined_functional(
                prog, plan, fused, x, params, interp="scalar"
            )
        assert vec.tobytes() == _scalar_cache[fp].tobytes()

    @pytest.mark.parametrize("network", sorted(TWINS))
    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    def test_twin_covers_full_network_kernels(self, network, board_name):
        """Twin builds instantiate every parameterized kernel group (same
        group keys => same kernel names) of the full network."""
        board = _BOARDS[board_name]
        config = default_folded_config(network, board)
        full = fuse_operators(MODELS[network]())
        _, full_plan = build_folded(full, config, board)
        _, _, _, twin_plan, _, _ = _folded_build(network, board_name)

        def param_names(plan):
            return {i.kernel_name for i in plan.invocations
                    if i.bindings is not None}

        assert param_names(full_plan) <= param_names(twin_plan)

    @pytest.mark.parametrize("network", sorted(TWINS))
    def test_twin_matches_numpy_reference(self, network):
        graph, fused, prog, plan, x, params = _folded_build(
            network, "S10SX"
        )
        vec = run_folded_functional(prog, plan, fused, x, params,
                                    interp="vector")
        ref = run_fused_graph(fused, x, params)
        assert np.allclose(vec, ref, atol=1e-4)


class TestFallbackCoverage:
    """Every band of every shipped kernel vectorizes: no scalar fallback.

    The gate is an exact count, not a band: one ``fallback`` event on any
    shipped network x board fails it, naming the kernel, the loop and the
    planning reason.
    """

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    @pytest.mark.parametrize("network", ["lenet5", "mobilenet_v1", "resnet18"])
    def test_folded_kernels_fully_vectorize(self, network, board_name):
        _, fused, prog, plan, x, params = _folded_build(network, board_name)
        events = []
        run_folded_functional(prog, plan, fused, x, params,
                              interp="vector", events=events)
        assert events, "no bands were attempted"
        fallbacks = [(k, ev.loop_var, ev.detail) for k, ev in events
                     if ev.kind == "fallback"]
        assert fallbacks == [], fallbacks[:5]

    def test_lenet_pipelined_fully_vectorizes(self):
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        prog, plan = build_pipelined(fused, "tvm_autorun", STRATIX10_SX)
        params = init_params(graph, seed=0)
        x = np.random.default_rng(3).standard_normal(
            (1, 28, 28)
        ).astype(np.float32)
        events = []
        run_pipelined_functional(prog, plan, fused, x, params,
                                 interp="vector", events=events)
        assert events
        assert all(ev.kind == "vectorized" for _, ev in events)


# ---------------------------------------------------------------------------
# property tests: random schedules, bitwise equality on all buffers


def _divisors(n, cap=8):
    return [d for d in range(1, min(n, cap) + 1) if n % d == 0]


def _run_both(kern, bufs, bindings=None):
    """Run scalar and vectorized on copies; all buffers must match bitwise.

    Returns the vectorized run's band events.
    """
    scalar = {k: v.copy() for k, v in bufs.items()}
    vector = {k: v.copy() for k, v in bufs.items()}
    ir.run_kernel(kern, scalar, bindings=bindings)
    vi = run_kernel_vectorized(kern, vector, bindings)
    for name in scalar:
        assert scalar[name].tobytes() == vector[name].tobytes(), name
    return vi.events


class TestVectorizedEqualsScalarProperty:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_conv_tilings(self, data):
        c1 = data.draw(st.sampled_from([1, 2, 3, 4]), label="c1")
        k = data.draw(st.sampled_from([1, 2, 4]), label="k")
        f = data.draw(st.sampled_from([1, 3]), label="f")
        s = data.draw(st.sampled_from([1, 2]), label="s")
        h = data.draw(st.sampled_from([7, 8, 9, 11]), label="h")
        if h < f:
            return
        act = data.draw(st.sampled_from([None, "relu", "relu6"]), label="act")
        spec = ConvSpec(c1=c1, h=h, w=h, k=k, f=f, s=s, bias=True,
                        activation=act)
        w2 = data.draw(st.sampled_from(_divisors(spec.wo)), label="w2vec")
        cv = data.draw(st.sampled_from(_divisors(c1)), label="c1vec")
        tiling = ConvTiling(w2vec=w2, c1vec=cv)

        _, out = conv2d_tensors(spec, "c")
        kern = lower(schedule_conv2d_opt(out, tiling), "k")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        bufs = {
            "c_in": rng.standard_normal(c1 * h * h).astype(np.float32),
            "c_w": rng.standard_normal(k * c1 * f * f).astype(np.float32),
            "c_b": rng.standard_normal(k).astype(np.float32),
            "c": np.zeros(k * spec.ho * spec.wo, np.float32),
        }
        events = _run_both(kern, bufs)
        assert [e for e in events if e.kind == "fallback"] == []

    @given(
        n=st.sampled_from([4, 8, 12, 24]),
        m=st.integers(1, 6),
        factor=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_dense_unrolls(self, n, m, factor, seed):
        if n % factor:
            return
        _, out = dense_tensors(DenseSpec(n=n, m=m, bias=True), "d")
        kern = lower(schedule_dense_opt(out, factor), "k")
        rng = np.random.default_rng(seed)
        bufs = {
            "d_in": rng.standard_normal(n).astype(np.float32),
            "d_w": rng.standard_normal(m * n).astype(np.float32),
            "d_b": rng.standard_normal(m).astype(np.float32),
            "d": np.zeros(m, np.float32),
        }
        _run_both(kern, bufs)


class TestExtentOneLoops:
    """A one-iteration loop around a register-cache allocation vectorizes.

    With ``w2vec == wo`` the folded conv/depthwise schedules wrap the
    ``cache_write`` accumulator in an outer ``xx_*o`` loop of trip count
    ``n_wo // w2vec == 1``.  The store's address does not vary along it,
    but one iteration re-creates nothing, so it is a lane axis, not a
    reduction axis.  (Static lowering drops such loops, so the parameterized
    kernels the folded flow ships are the ones that keep them.)
    """

    @pytest.mark.parametrize("depthwise", [False, True],
                             ids=["conv", "depthwise"])
    def test_tile_spanning_the_row_vectorizes_bit_identically(self, depthwise):
        c1, k, h, f = 4, 3, 7, 3
        wo = h - f + 1
        if depthwise:
            handle, _, out = depthwise_symbolic(f, 1, "c", bias=True,
                                                activation="relu6")
            n_out, n_w, bindings = c1, c1 * f * f, handle.bindings(c1, h, h)
        else:
            handle, _, out = conv2d_symbolic(f, 1, "c", bias=True,
                                             activation="relu")
            n_out, n_w = k, k * c1 * f * f
            bindings = handle.bindings(c1, h, h, k)
        sch = schedule_symbolic_conv(out, ConvTiling(w2vec=wo, c1vec=2),
                                     is_1x1=False)
        kern = lower(sch, "k")
        assert f"// {wo}" in ir.stmt_str(kern.body)  # the extent-1 xx_*o loop
        rng = np.random.default_rng(7)
        bufs = {
            "c_in": rng.standard_normal(c1 * h * h).astype(np.float32),
            "c_w": rng.standard_normal(n_w).astype(np.float32),
            "c_b": rng.standard_normal(n_out).astype(np.float32),
            "c": np.zeros(n_out * wo * wo, np.float32),
        }
        events = _run_both(kern, bufs, bindings)
        assert [e.kind for e in events] == ["vectorized"], events[:3]


# ---------------------------------------------------------------------------
# fallback semantics on synthetic kernels the vectorizer must refuse


def _events_of(kern, bufs):
    vector = {k: v.copy() for k, v in bufs.items()}
    vi = run_kernel_vectorized(kern, vector)
    return vi.events, vector


class TestFallbackSemantics:
    def _loop(self, n, body_fn, name="i"):
        i = ir.Var(name)
        return i, ir.For(i, ir.IntImm(n), body_fn(i))

    def test_overlapping_stores_fall_back_to_scalar_order(self):
        # A[i // 2] = i: last write per address must win, like scalar
        buf = ir.Buffer("A", (4,))
        i = ir.Var("i")
        body = ir.Store(
            buf, ir.FloorDiv(i, ir.IntImm(2)),
            ir.Cast(ir.FLOAT32, i),
        )
        kern = ir.Kernel("k", [buf], ir.For(i, ir.IntImm(8), body))
        bufs = {"A": np.zeros(4, np.float32)}
        events, vector = _events_of(kern, bufs)
        assert any(e.kind == "fallback" and "overlapping" in e.detail
                   for e in events)
        scalar = {"A": np.zeros(4, np.float32)}
        ir.run_kernel(kern, scalar)
        assert vector["A"].tobytes() == scalar["A"].tobytes()
        assert vector["A"].tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_prefix_sum_self_read_falls_back(self):
        # A[i] = A[i-1] + A[i] is a loop-carried scan, not a reduction
        buf = ir.Buffer("A", (8,))
        i = ir.Var("i")
        prev = ir.Load(buf, ir.Max(i - ir.IntImm(1), ir.IntImm(0)))
        body = ir.Store(buf, i, ir.Add(prev, ir.Load(buf, i)))
        kern = ir.Kernel("k", [buf], ir.For(i, ir.IntImm(8), body))
        data = np.arange(1, 9, dtype=np.float32)
        events, vector = _events_of(kern, {"A": data.copy()})
        assert any(e.kind == "fallback" for e in events)
        scalar = {"A": data.copy()}
        ir.run_kernel(kern, scalar)
        assert vector["A"].tobytes() == scalar["A"].tobytes()

    def test_indirect_index_falls_back(self):
        # A[B[i]] = i: data-dependent addressing cannot be planned
        a = ir.Buffer("A", (8,))
        b = ir.Buffer("B", (8,))
        i = ir.Var("i")
        idx = ir.Cast(ir.INT32, ir.Load(b, i))
        body = ir.Store(a, idx, ir.Cast(ir.FLOAT32, i))
        kern = ir.Kernel("k", [a, b], ir.For(i, ir.IntImm(8), body))
        perm = np.array([3, 1, 4, 0, 6, 2, 7, 5], np.float32)
        bufs = {"A": np.zeros(8, np.float32), "B": perm}
        events, vector = _events_of(kern, bufs)
        assert any(e.kind == "fallback" and "reads memory" in e.detail
                   for e in events)
        scalar = {"A": np.zeros(8, np.float32), "B": perm}
        ir.run_kernel(kern, scalar)
        assert vector["A"].tobytes() == scalar["A"].tobytes()

    def test_if_then_else_falls_back(self):
        buf = ir.Buffer("A", (8,))
        i = ir.Var("i")
        body = ir.IfThenElse(
            ir.LT(i, ir.IntImm(4)),
            ir.Store(buf, i, ir.FloatImm(1.0)),
            ir.Store(buf, i, ir.FloatImm(2.0)),
        )
        kern = ir.Kernel("k", [buf], ir.For(i, ir.IntImm(8), body))
        events, vector = _events_of(kern, {"A": np.zeros(8, np.float32)})
        assert any("IfThenElse" in e.detail for e in events
                   if e.kind == "fallback")
        assert vector["A"].tolist() == [1.0] * 4 + [2.0] * 4

    def test_intrinsics_match_scalar_bitwise(self):
        # scalar intrinsics route through np.float32 ufuncs, so a band of
        # math calls must agree to the last bit
        buf_in = ir.Buffer("X", (64,))
        buf_out = ir.Buffer("Y", (64,))
        i = ir.Var("i")
        x = ir.Load(buf_in, i)
        val = ir.Call("exp", [ir.Call("tanh", [x])])
        kern = ir.Kernel(
            "k", [buf_in, buf_out],
            ir.For(i, ir.IntImm(64), ir.Store(buf_out, i, val)),
        )
        rng = np.random.default_rng(5)
        data = rng.standard_normal(64).astype(np.float32)
        scalar = {"X": data.copy(), "Y": np.zeros(64, np.float32)}
        vector = {"X": data.copy(), "Y": np.zeros(64, np.float32)}
        ir.run_kernel(kern, scalar)
        vi = run_kernel_vectorized(kern, vector)
        assert all(e.kind == "vectorized" for e in vi.events)
        assert scalar["Y"].tobytes() == vector["Y"].tobytes()


class TestInterpreterSelection:
    def test_env_opt_out_forces_scalar(self, monkeypatch):
        from repro.runtime.executor import _interpreter_class

        monkeypatch.setenv("REPRO_INTERP", "scalar")
        assert _interpreter_class("auto") is ir.Interpreter
        monkeypatch.delenv("REPRO_INTERP")
        assert _interpreter_class("auto") is VectorizedInterpreter

    def test_explicit_choices(self):
        from repro.errors import RuntimeSimError
        from repro.runtime.executor import _interpreter_class

        assert _interpreter_class("vector") is VectorizedInterpreter
        assert _interpreter_class("scalar") is ir.Interpreter
        with pytest.raises(RuntimeSimError):
            _interpreter_class("simd")
