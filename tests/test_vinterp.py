"""Soundness of the vectorized interpreter: bit-identical to scalar.

The vectorized interpreter's contract (:mod:`repro.ir.vinterp`) is that
every result is **bit-identical in float32** to the element-wise scalar
interpreter — vectorization is a pure execution-speed transform, never a
numerics change.  These tests pin that contract five ways:

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
  produce identical results;
* plan-cache tests: a second forward plans no band, no shipped store
  needs ``np.unique``, and a cached plan is never replayed where its
  key (bindings, buffer sizes) or the FIFO fill says it does not hold;
* batch tests: a batch of N runs through each kernel once, every
  sample's output is bitwise its batch-1 output, and no band falls back
  at any N;
* blocked-fold tests: hand-built reductions under block budgets that
  force one-row, ragged and whole blocks equal the scalar interpreter,
  and no array the fold evaluates exceeds one block.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ir as ir
from repro.device import ALL_BOARDS, STRATIX10_SX
from repro.errors import RuntimeSimError
from repro.flow import FoldedConfig, build_folded, build_pipelined
from repro.flow.deploy import default_folded_config
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import MODELS
from repro.ir import vinterp
from repro.ir.interp import ChannelState
from repro.ir.vinterp import (
    VectorizedInterpreter,
    _BandCache,
    _BandPlan,
    run_kernel_vectorized,
)
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

    The vectorized side runs twice through the kernel's plan cache, the
    second time on reversed data of the same sizes: it must replay every
    plan and still match its own scalar run.  Then both data sets run as
    one batch of two (every argument a ``(2, n)`` array): each row must
    match its scalar run, and a kernel that vectorizes alone vectorizes
    batched.  Returns the first vectorized run's band events.
    """
    events, scalars = None, []
    datas = (bufs, {k: v[::-1].copy() for k, v in bufs.items()})
    for data in datas:
        scalar = {k: v.copy() for k, v in data.items()}
        vector = {k: v.copy() for k, v in data.items()}
        ir.run_kernel(kern, scalar, bindings=bindings)
        vi = run_kernel_vectorized(kern, vector, bindings)
        for name in scalar:
            assert scalar[name].tobytes() == vector[name].tobytes(), name
        scalars.append(scalar)
        if events is None:
            events = vi.events
        else:
            assert vi.planned == 0 and vi.reused == len(events)
    batch = {k: np.stack([data[k] for data in datas]) for k in bufs}
    vi = run_kernel_vectorized(kern, batch, bindings)
    for n, scalar in enumerate(scalars):
        for name in bufs:  # arguments: locals are not kept per sample
            assert scalar[name].tobytes() == batch[name][n].tobytes(), name
    if all(e.kind == "vectorized" for e in events):
        assert [e.kind for e in vi.events] == [e.kind for e in events]
    return events


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


# ---------------------------------------------------------------------------
# plan once, run many: the per-kernel band-plan cache


_pipelined = {}


def _pipelined_build(board_name: str):
    """(fused, program, plan, params) of pipelined LeNet-5 on one board."""
    if board_name not in _pipelined:
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        prog, plan = build_pipelined(fused, "tvm_autorun",
                                     _BOARDS[board_name])
        _pipelined[board_name] = (fused, prog, plan,
                                  init_params(graph, seed=0))
    return _pipelined[board_name]


def _shipped(network: str, board_name: str):
    """(program, input shape, forward(x, events)) of a shipped build."""
    if network == "lenet5@pipelined":
        fused, prog, plan, params = _pipelined_build(board_name)
        shape, run = (1, 28, 28), run_pipelined_functional
    else:
        _, fused, prog, plan, x, params = _folded_build(network, board_name)
        shape, run = x.shape, run_folded_functional

    def forward(x, events=None):
        return run(prog, plan, fused, x, params, interp="vector",
                   events=events)

    return prog, shape, forward


def _forward(network: str, board_name: str, seed: int):
    """One vectorized forward of a shipped build: (program, events)."""
    prog, shape, forward = _shipped(network, board_name)
    x = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    events = []
    forward(x, events)
    return prog, events


def _cached_plans(prog):
    return [
        plan
        for kern in prog.kernels
        for cache in kern.derived.get(_BandCache, {}).values()
        for plan in cache.plans.values()
        if isinstance(plan, _BandPlan)
    ]


class TestPlanCache:
    """Exact counts of what the band-plan cache plans, replays and proves."""

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    @pytest.mark.parametrize(
        "network", ["lenet5@pipelined", "mobilenet_v1", "resnet18"])
    def test_second_forward_plans_no_band(self, network, board_name):
        _forward(network, board_name, seed=1)
        _, events = _forward(network, board_name, seed=2)
        assert events
        planned = [(k, ev.loop_var) for k, ev in events if not ev.reused]
        assert planned == [], planned[:5]
        assert all(ev.kind == "vectorized" for _, ev in events)

    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    @pytest.mark.parametrize(
        "network", ["lenet5@pipelined", "lenet5", "mobilenet_v1", "resnet18"])
    def test_no_shipped_store_needs_unique(self, network, board_name):
        prog, _ = _forward(network, board_name, seed=1)
        plans = _cached_plans(prog)
        assert plans
        assert sum(p.unique_stores for p in plans) == 0

    def test_other_bindings_replan_and_match_scalar(self):
        handle, _, out = conv2d_symbolic(3, 1, "c", bias=True,
                                         activation="relu")
        kern = lower(schedule_symbolic_conv(
            out, ConvTiling(w2vec=1, c1vec=2), is_1x1=False), "k")
        rng = np.random.default_rng(3)
        c1, k = 2, 3

        def run(h, expect_planned):
            # buffers sized for the larger input on both sizes: only the
            # bindings tell the two invocations apart
            bufs = {
                "c_in": rng.standard_normal(c1 * 81).astype(np.float32),
                "c_w": rng.standard_normal(k * c1 * 9).astype(np.float32),
                "c_b": rng.standard_normal(k).astype(np.float32),
                "c": np.zeros(k * 49, np.float32),
            }
            bindings = handle.bindings(c1, h, h, k)
            scalar = {n: v.copy() for n, v in bufs.items()}
            ir.run_kernel(kern, scalar, bindings=bindings)
            vi = run_kernel_vectorized(kern, bufs, bindings)
            assert bufs["c"].tobytes() == scalar["c"].tobytes()
            assert all(ev.kind == "vectorized" for ev in vi.events)
            assert (vi.planned > 0) == expect_planned, vi.events
            if not expect_planned:
                assert vi.reused == len(vi.events)

        run(7, expect_planned=True)
        run(9, expect_planned=True)   # new bindings: a new key
        run(7, expect_planned=False)  # both keys now replay
        run(9, expect_planned=False)

    def test_other_buffer_sizes_replan(self):
        # Y[i] = X[i] over 8 lanes: a 4-element X must fall back, an
        # 8-element X must vectorize, whichever of them ran first
        x, y = ir.Buffer("X", (8,)), ir.Buffer("Y", (8,))
        i = ir.Var("i")
        kern = ir.Kernel("k", [x, y], ir.For(
            i, ir.IntImm(8), ir.Store(y, i, ir.Load(x, i))))
        data = np.arange(8, dtype=np.float32)

        def attempt(n):
            bufs = {"X": data[:n].copy(), "Y": np.zeros(8, np.float32)}
            vi = VectorizedInterpreter(bufs)
            try:
                vi.run(kern)
            except IndexError:  # the scalar loop reads past a short X
                pass
            return [(ev.kind, ev.reused) for ev in vi.events], bufs["Y"]

        assert attempt(8)[0] == [("vectorized", False)]
        events, out = attempt(4)
        assert events == [("fallback", False)]
        assert out.tolist() == [0, 1, 2, 3, 0, 0, 0, 0]
        events, out = attempt(8)
        assert events == [("vectorized", True)]
        assert out.tobytes() == data.tobytes()
        assert attempt(4)[0] == [("fallback", True)]

    def test_strided_views_of_a_non_contiguous_buffer(self):
        # Y[i] = X[2 - i] + X[i]: affine loads through negative and
        # positive strides of a buffer that is itself a strided view
        x, y = ir.Buffer("X", (3,)), ir.Buffer("Y", (3,))
        i = ir.Var("i")
        kern = ir.Kernel("k", [x, y], ir.For(i, ir.IntImm(3), ir.Store(
            y, i, ir.Load(x, ir.IntImm(2) - i) + ir.Load(x, i))))
        scalar = {"X": np.float32([0, 2, 4]), "Y": np.zeros(3, np.float32)}
        ir.run_kernel(kern, scalar)
        bufs = {"X": np.arange(6, dtype=np.float32)[::2],
                "Y": np.zeros(6, np.float32)[::-2]}
        vi = run_kernel_vectorized(kern, bufs)
        assert [ev.kind for ev in vi.events] == ["vectorized"]
        assert not bufs["Y"].flags.c_contiguous
        assert bufs["Y"].tobytes() == scalar["Y"].tobytes()

    def test_alpha_equivalent_lower_cache_replay_hits(self):
        clear_lower_cache()
        graph = TWINS["mobilenet_v1"]()
        fused = fuse_operators(graph)
        config = default_folded_config("mobilenet_v1", STRATIX10_SX)
        first = build_folded(fused, config, STRATIX10_SX)
        second = build_folded(fused, config, STRATIX10_SX)
        params = init_params(graph, seed=0)
        x = np.random.default_rng(5).standard_normal(
            graph.input.out_shape).astype(np.float32)
        replayed = {k.name for k in second[0].kernels
                    if first[0].kernel(k.name) is k}
        assert len(replayed) >= len(second[0].kernels) - 1
        # both builds bind the replayed kernels' own (interned) vars
        own = {v for k in second[0].kernels if k.name in replayed
               for v in k.scalar_args}
        for prog, plan in (first, second):
            bound = {v for inv in plan.invocations
                     if inv.kernel_name in replayed for v in inv.bindings or {}}
            assert bound and bound <= own
        outs = []
        for prog, plan in (first, second):
            events = []
            outs.append(run_folded_functional(prog, plan, fused, x, params,
                                              interp="vector", events=events))
        assert outs[0].tobytes() == outs[1].tobytes()
        replanned = [(k, ev.loop_var) for k, ev in events
                     if k in replayed and not ev.reused]
        assert replanned == []
        assert any(ev.reused for _, ev in events)

    def test_underfilled_fifo_falls_back_on_a_cached_plan(self):
        # consumer: B[i*4 + j] = read(c) over 2 x 4 lanes
        ch = ir.Channel("c")
        b = ir.Buffer("B", (8,))
        i, j = ir.Var("i"), ir.Var("j")
        kern = ir.Kernel("cons", [b], ir.For(i, ir.IntImm(2), ir.For(
            j, ir.IntImm(4),
            ir.Store(b, i * 4 + j, ir.ChannelRead(ch)))))

        def run(cls, queued):
            state = ChannelState(ch)
            for v in range(queued):
                state.write(float(v))
            bufs = {"B": np.zeros(8, np.float32)}
            it = cls(bufs, channels={"c": state})
            try:
                it.run(kern)
            except RuntimeSimError:
                pass
            return it, bufs["B"]

        vi, full = run(VectorizedInterpreter, 8)
        assert [(ev.kind, ev.reused) for ev in vi.events] == [
            ("vectorized", False)]
        assert full.tolist() == list(range(8))
        # four values queued: the cached 8-value plan must not run; the
        # outer loop goes scalar, its first inner band vectorizes and
        # the second finds the FIFO empty, exactly like the scalar run
        vi, short = run(VectorizedInterpreter, 4)
        assert vi.events[0].kind == "fallback" and vi.events[0].reused
        assert "fewer than 8" in vi.events[0].detail
        _, ref = run(ir.Interpreter, 4)
        assert short.tobytes() == ref.tobytes()
        assert short.tolist() == [0, 1, 2, 3, 0, 0, 0, 0]


class TestBatch:
    """A batch of N runs through each kernel once: every sample's output
    is bitwise its batch-1 output, no band falls back, and a second batch
    of the same N plans no band, at every N."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("board_name", sorted(_BOARDS))
    @pytest.mark.parametrize(
        "network", ["lenet5@pipelined", "mobilenet_v1", "resnet18"])
    def test_samples_equal_batch_one(self, network, board_name, n):
        _, shape, forward = _shipped(network, board_name)
        xs = np.random.default_rng(n).standard_normal(
            (n,) + shape).astype(np.float32)
        events, alone = [], []
        out = forward(xs, events)
        assert out.shape[0] == n
        for x, row in zip(xs, out):
            assert row.tobytes() == forward(x, alone).tobytes()
        fallbacks = [(k, ev.loop_var, ev.detail) for k, ev in events
                     if ev.kind == "fallback"]
        assert events and fallbacks == [], fallbacks[:5]
        # one band execution per band, however many samples it carries
        assert len(events) == len(alone) // n
        again = []
        forward(xs[::-1].copy(), again)
        planned = [(k, ev.loop_var) for k, ev in again if not ev.reused]
        assert planned == [] and len(again) == len(events), planned[:5]

    def test_store_shared_by_the_batch_runs_per_sample(self):
        # Y[i, j] = X[i, j] with Y one store for both samples: the batch
        # may not race on it, so each sample runs loop i in turn and its
        # inner band j vectorizes per sample
        x, y = ir.Buffer("X", (2, 3)), ir.Buffer("Y", (2, 3))
        i, j = ir.Var("i"), ir.Var("j")
        kern = ir.Kernel("k", [x, y], ir.For(i, ir.IntImm(2), ir.For(
            j, ir.IntImm(3),
            ir.Store(y, i * 3 + j, ir.Load(x, i * 3 + j)))))
        bufs = {"X": np.arange(12, dtype=np.float32).reshape(2, 6),
                "Y": np.zeros(6, np.float32)}
        vi = run_kernel_vectorized(kern, bufs)
        assert [(ev.kind, ev.loop_var) for ev in vi.events] == [
            ("fallback", "i")] + [("vectorized", "j")] * 4
        assert "shared by the batch" in vi.events[0].detail
        assert bufs["Y"].tolist() == [6.0, 7.0, 8.0, 9.0, 10.0, 11.0]

    @pytest.mark.parametrize("cls", [ir.Interpreter, VectorizedInterpreter])
    def test_refused_band_and_gathers_on_strided_rows(self, cls):
        # an IfThenElse band (refused: it runs per sample) and a gather
        # band, over rows that are columns of one arena, as a batched
        # folded forward lays them out
        x, y, z = (ir.Buffer(n, (6,)) for n in "XYZ")
        i = ir.Var("i")
        j = ir.Var("j")
        kern = ir.Kernel("k", [x, y, z], ir.seq(
            ir.For(i, ir.IntImm(6), ir.IfThenElse(
                ir.LT(i, ir.IntImm(3)),
                ir.Store(y, i, ir.Load(x, i) * 2.0),
                ir.Store(y, i, ir.Load(x, i) + 1.0))),
            ir.For(j, ir.IntImm(6), ir.Store(
                z, j, ir.Load(y, ir.Mod(j * 5, ir.IntImm(6))))),
        ))
        data = np.random.default_rng(0).standard_normal((3, 6)).astype(
            np.float32)
        arena = np.zeros((3, 20), np.float32)
        bufs = {"X": arena[:, 0:6], "Y": arena[:, 7:13], "Z": arena[:, 14:20]}
        bufs["X"][:] = data
        it = cls(bufs)
        it.run(kern)
        for n in range(3):
            alone = {"X": data[n].copy(), "Y": np.zeros(6, np.float32),
                     "Z": np.zeros(6, np.float32)}
            ir.run_kernel(kern, alone)
            assert bufs["Z"][n].tobytes() == alone["Z"].tobytes()
        if cls is VectorizedInterpreter:
            kinds = [(ev.kind, ev.loop_var) for ev in it.events]
            assert kinds == [("fallback", "i"), ("vectorized", "j")]

    @pytest.mark.parametrize("cls", [ir.Interpreter, VectorizedInterpreter])
    def test_each_sample_keeps_its_fifo_order(self, cls):
        # a producer writes one channel from two bands; each sample's
        # consumer must read its own A values, then its own B values
        ch = ir.Channel("c")
        a, b, out = ir.Buffer("A", (3,)), ir.Buffer("B", (2,)), \
            ir.Buffer("Y", (5,))
        i, j, k = ir.Var("i"), ir.Var("j"), ir.Var("k")
        prod = ir.Kernel("prod", [a, b], ir.seq(
            ir.For(i, ir.IntImm(3), ir.ChannelWrite(ch, ir.Load(a, i))),
            ir.For(j, ir.IntImm(2), ir.ChannelWrite(ch, ir.Load(b, j))),
        ))
        cons = ir.Kernel("cons", [out], ir.For(
            k, ir.IntImm(5), ir.Store(out, k, ir.ChannelRead(ch))))
        bufs = {"A": np.float32([[1, 2, 3], [4, 5, 6]]),
                "B": np.float32([[7, 8], [9, 10]]),
                "Y": np.zeros((2, 5), np.float32)}
        channels = {}
        for kern in (prod, cons):
            cls(bufs, channels=channels).run(kern)
        assert bufs["Y"].tolist() == [[1, 2, 3, 7, 8], [4, 5, 6, 9, 10]]
        assert len(channels["c"]) == 0 and channels["c"].lanes == 2


class TestBlockedFold:
    """A reduction's update is evaluated and folded one block at a time.

    Hand-built ``Y[j] = combine(Y[j], update(j, a, b))`` reductions over
    two reduction axes (5 x 7 steps), for a batch of 3, run under block
    budgets that force one-row blocks, ragged last blocks (along the
    inner and the outer reduction axis) and one whole block; each must
    equal the scalar interpreter bytewise, and no array the blocked
    evaluation produces may exceed ``max(budget, lanes)`` elements.
    """

    RED = (5, 7)
    BATCH = 3
    #: lanes per sample: one (three lanes in the batch), few and many
    LANES = (1, 2, 192)
    #: block budgets, in rows of lanes (``None``: below one row)
    ROWS = (None, 3, 16, 1 << 20)
    _scalar = {}

    def _kernel(self, combine, lanes, variant):
        r0, r1 = self.RED
        steps = r0 * r1
        x, w = ir.Buffer("X", (lanes * steps,)), ir.Buffer("W", (steps,))
        y = ir.Buffer("Y", (lanes,))
        j, a, b = ir.Var("j"), ir.Var("a"), ir.Var("b")
        r = a * r1 + b
        ch = ir.Channel("c")
        if variant == "channel":
            left = ir.ChannelRead(ch)
        else:
            left = ir.Load(x, j * steps + r)
        update = left * ir.Load(w, r)

        def fold(buf, index):
            return ir.For(a, ir.IntImm(r0), ir.For(b, ir.IntImm(r1), ir.Store(
                buf, index, combine(ir.Load(buf, index), update))))

        if variant == "private":
            acc = ir.Buffer("acc", (1,), scope="local")
            body = ir.Allocate(acc, ir.seq(
                ir.Store(acc, 0, ir.FloatImm(0.5)),
                fold(acc, ir.IntImm(0)),
                ir.Store(y, j, ir.Load(acc, 0)),
            ))
        else:
            body = fold(y, j)
        kern = ir.Kernel("k", [x, w, y], ir.For(j, ir.IntImm(lanes), body))
        i = ir.Var("i")
        prod = ir.Kernel("p", [x], ir.For(
            i, ir.IntImm(lanes * steps), ir.ChannelWrite(ch, ir.Load(x, i))))
        return kern, prod if variant == "channel" else None

    def _buffers(self, lanes):
        rng = np.random.default_rng(lanes)
        steps = self.RED[0] * self.RED[1]
        return {
            "X": rng.standard_normal((self.BATCH, lanes * steps)).astype(
                np.float32),
            "W": rng.standard_normal(steps).astype(np.float32),
            "Y": rng.standard_normal((self.BATCH, lanes)).astype(np.float32),
        }

    def _run(self, cls, combine, lanes, variant):
        kern, prod = self._kernel(combine, lanes, variant)
        bufs = self._buffers(lanes)
        channels = {}
        if prod is not None:
            cls(bufs, channels=channels).run(prod)
        it = cls(bufs, channels=channels)
        it.run(kern)
        return bufs["Y"], it

    def _check(self, monkeypatch, combine, lanes, variant, rows):
        key = (combine, lanes, variant)
        if key not in self._scalar:
            self._scalar[key] = self._run(
                ir.Interpreter, combine, lanes, variant)[0]
        total = self.BATCH * lanes
        budget = 1 if rows is None else rows * total
        monkeypatch.setattr(vinterp, "FOLD_BLOCK_LIMIT", budget)
        sizes = []
        eval_block = vinterp._eval_block

        def recorded(leaf, ops, out):
            # every operand block the update reads, and the block it writes
            sizes.extend(np.size(x) for x in ops)
            sizes.append(out.size)
            return eval_block(leaf, ops, out)

        monkeypatch.setattr(vinterp, "_eval_block", recorded)
        got, vi = self._run(VectorizedInterpreter, combine, lanes, variant)
        assert [ev.kind for ev in vi.events] == ["vectorized"]
        assert got.tobytes() == self._scalar[key].tobytes()
        assert sizes and max(sizes) <= max(budget, total)

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("combine", [ir.Add, ir.Max, ir.Min])
    def test_matches_scalar(self, monkeypatch, combine, lanes, rows):
        self._check(monkeypatch, combine, lanes, "plain", rows)

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("variant", ["private", "channel"])
    def test_private_and_channel_updates_match_scalar(
        self, monkeypatch, variant, lanes, rows
    ):
        self._check(monkeypatch, ir.Add, lanes, variant, rows)

    def test_size_limit_counts_a_reduction_by_its_lanes(self, monkeypatch):
        # 3 x 2 lanes x 35 steps: a 210-iteration reduction under a limit
        # of 64 vectorizes; an elementwise Add store of 210 does not
        monkeypatch.setattr(vinterp, "BAND_SIZE_LIMIT", 64)
        got, vi = self._run(VectorizedInterpreter, ir.Add, 2, "plain")
        assert [ev.kind for ev in vi.events] == ["vectorized"]
        assert got.tobytes() == self._run(
            ir.Interpreter, ir.Add, 2, "plain")[0].tobytes()
        x, z, i = ir.Buffer("X", (70,)), ir.Buffer("Z", (70,)), ir.Var("i")
        kern = ir.Kernel("k", [x, z], ir.For(i, ir.IntImm(70), ir.Store(
            z, i, ir.Add(ir.Load(x, i), ir.FloatImm(1.0)))))
        bufs = {"X": self._buffers(2)["X"], "Z": np.zeros((3, 70), np.float32)}
        vi = run_kernel_vectorized(kern, bufs)
        assert vi.events[0].detail == "band exceeds vector size limit"
        assert bufs["Z"].tobytes() == (bufs["X"] + np.float32(1)).tobytes()

    def test_one_lane_folds_left_not_pairwise(self):
        # one lane at batch 1 makes the block's rows its contiguous axis,
        # which np.add.reduce sums through 8 partial sums: 2**24 absorbs
        # each 1.0 of the left fold, but not a partial sum of them
        steps = 16
        x, y, r = ir.Buffer("X", (steps,)), ir.Buffer("Y", (1,)), ir.Var("r")
        kern = ir.Kernel("k", [x, y], ir.For(r, ir.IntImm(steps), ir.Store(
            y, 0, ir.Add(ir.Load(y, 0), ir.Load(x, r)))))
        data = np.ones((1, steps), np.float32)
        data[0, 0] = 2.0 ** 24

        def run(cls):
            bufs = {"X": data.copy(), "Y": np.zeros((1, 1), np.float32)}
            it = cls(bufs)
            it.run(kern)
            return bufs["Y"], it

        want, _ = run(ir.Interpreter)
        assert np.add.reduce(data[0]).tobytes() != want.tobytes()
        got, vi = run(VectorizedInterpreter)
        assert [ev.kind for ev in vi.events] == ["vectorized"]
        assert got.tobytes() == want.tobytes()

    def test_zero_trip_lane_loop_runs_nothing(self):
        # a reduction under a zero-trip lane loop: the scalar loop runs
        # nothing, and planning its blocks must not divide by no lanes
        x, y = ir.Buffer("X", (3,)), ir.Buffer("Y", (1,))
        j, r = ir.Var("j"), ir.Var("r")
        kern = ir.Kernel("k", [x, y], ir.For(j, ir.IntImm(0), ir.For(
            r, ir.IntImm(3),
            ir.Store(y, j, ir.Add(ir.Load(y, j), ir.Load(x, r))))))
        bufs = {"X": np.ones(3, np.float32), "Y": np.zeros(1, np.float32)}
        vi = run_kernel_vectorized(kern, bufs)
        assert [ev.kind for ev in vi.events] == ["vectorized"]
        assert bufs["Y"].tolist() == [0.0]

    def test_blocks_cover_the_steps_in_fold_order(self, monkeypatch):
        # the ragged budgets above cut the inner axis (3 rows: b in
        # 3 + 3 + 1 per a) and the outer one (16 rows: a in 2 + 2 + 1)
        kern, _ = self._kernel(ir.Add, 2, "plain")
        for rows, blocks in ((3, [3, 3, 1] * 5), (16, [14, 14, 7])):
            monkeypatch.setattr(vinterp, "FOLD_BLOCK_LIMIT", rows * 6)
            plan = _BandPlan(VectorizedInterpreter(self._buffers(2)),
                             kern.body)
            (leaf,) = plan.leaves
            got = [shape[0] * math.prod(shape[1:-2])
                   for _, shape, _ in leaf.blocks]
            assert got == blocks == [rows for _, _, rows in leaf.blocks]


class TestStaticStoreProof:
    """Affine stores are proven distinct from their strides alone; the
    proof never admits a colliding store, and interleaved strides that
    do not collide need no ``np.unique``."""

    def _nest(self, body_fn, extents=(4, 4)):
        i, j = ir.Var("i"), ir.Var("j")
        return ir.For(i, ir.IntImm(extents[0]), ir.For(
            j, ir.IntImm(extents[1]), body_fn(i, j)))

    def _check(self, kern, bufs):
        scalar = {k: v.copy() for k, v in bufs.items()}
        ir.run_kernel(kern, scalar)
        vi = run_kernel_vectorized(kern, bufs)
        for name in scalar:
            assert bufs[name].tobytes() == scalar[name].tobytes(), name
        plans = [p for c in kern.derived[_BandCache].values()
                 for p in c.plans.values()]
        return [ev.kind for ev in vi.events], plans

    def test_interleaved_strides_are_proven_distinct(self):
        # A[i + 4*j] and A[2*i + j] with j < 2 hit every address once
        a = ir.Buffer("A", (16,))
        kern = ir.Kernel("k", [a], self._nest(
            lambda i, j: ir.Store(a, i + j * 4, ir.Cast(ir.FLOAT32, i - j))))
        kinds, plans = self._check(kern, {"A": np.zeros(16, np.float32)})
        assert kinds == ["vectorized"] and plans[0].unique_stores == 0
        kern = ir.Kernel("k", [a], self._nest(
            lambda i, j: ir.Store(a, i * 2 + j, ir.Cast(ir.FLOAT32, i - j)),
            extents=(8, 2)))
        kinds, plans = self._check(kern, {"A": np.zeros(16, np.float32)})
        assert kinds == ["vectorized"] and plans[0].unique_stores == 0

    def test_overlapping_affine_store_falls_back(self):
        # A[i + j] = i - j: addresses repeat, the last scalar write wins
        a = ir.Buffer("A", (7,))
        kern = ir.Kernel("k", [a], self._nest(
            lambda i, j: ir.Store(a, i + j, ir.Cast(ir.FLOAT32, i - j))))
        kinds, plans = self._check(kern, {"A": np.zeros(7, np.float32)})
        assert kinds[0] == "fallback"
        assert plans[0] == "overlapping parallel stores"

    def test_colliding_affine_reduction_lanes_fall_back(self):
        # A[i + j] += X[k]: lanes (i, j) share addresses across k's fold
        a, x = ir.Buffer("A", (7,)), ir.Buffer("X", (3,))
        k = ir.Var("k")
        kern = ir.Kernel("k", [a, x], self._nest(
            lambda i, j: ir.For(k, ir.IntImm(3), ir.Store(
                a, i + j, ir.Load(a, i + j) + ir.Load(x, k)))))
        data = np.float32([0.1, 0.2, 0.3])
        kinds, plans = self._check(
            kern, {"A": np.zeros(7, np.float32), "X": data})
        assert kinds[0] == "fallback"
        assert plans[0] == "reduction lanes collide"


class TestInterpreterSelection:
    def test_explicit_choices(self):
        from repro.errors import RuntimeSimError
        from repro.runtime.executor import _interpreter_class

        assert _interpreter_class("vector") is VectorizedInterpreter
        assert _interpreter_class("scalar") is ir.Interpreter
        for gone in ("simd", "auto", "vectorized"):
            with pytest.raises(RuntimeSimError):
                _interpreter_class(gone)
