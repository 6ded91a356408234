"""AOC static-analysis tests: II, LSU inference, cycles, traffic."""

import pytest

import repro.ir as ir
from repro.aoc import DEFAULT_CONSTANTS, KernelAnalysis
from repro.errors import AOCError
from repro.schedule import lower
from repro.topi import (
    ConvSpec,
    ConvTiling,
    conv2d_tensors,
    conv2d_symbolic,
    schedule_conv2d_naive,
    schedule_conv2d_opt,
    schedule_symbolic_conv,
)

C = DEFAULT_CONSTANTS


def _naive():
    spec = ConvSpec(c1=6, h=13, w=13, k=16, f=3, bias=True, activation="relu")
    _, out = conv2d_tensors(spec, "c")
    return KernelAnalysis(lower(schedule_conv2d_naive(out, auto_unroll_ff=True), "k"))


def _opt(tiling=ConvTiling(w2vec=1, c1vec=2)):
    spec = ConvSpec(c1=6, h=13, w=13, k=16, f=3, bias=True, activation="relu")
    _, out = conv2d_tensors(spec, "c")
    return KernelAnalysis(lower(schedule_conv2d_opt(out, tiling), "k"))


class TestInitiationInterval:
    def test_naive_global_accum_gets_high_ii(self):
        a = _naive()
        iis = {n.stmt.loop_var.name: n.ii for n in a.loops.values()}
        assert iis["rc"] == C.ii_global_accum

    def test_opt_register_accum_gets_ii1(self):
        a = _opt()
        iis = {n.stmt.loop_var.name: n.ii_dep for n in a.loops.values()}
        assert all(v == 1 for v in iis.values())

    def test_ii_speedup_reflected_in_cycles(self):
        assert _naive().compute_cycles() > 1.5 * _opt().compute_cycles()

    def test_trip1_loop_does_not_carry_dep(self):
        # 1x1 conv: ry/rx have extent 1 and must not absorb the dep
        spec = ConvSpec(c1=8, h=4, w=4, k=4, f=1, bias=False)
        _, out = conv2d_tensors(spec, "p")
        a = KernelAnalysis(lower(schedule_conv2d_naive(out), "k"))
        iis = {n.stmt.loop_var.name: n.ii for n in a.loops.values()}
        assert iis["rc"] == C.ii_global_accum


class TestLSUInference:
    def test_naive_window_reads_replicated(self):
        """Section 5.1.1: F LSUs of width F for input reads (ry cannot
        coalesce with rx across rows)."""
        a = _naive()
        in_reads = [l for l in a.lsus if l.buffer_name == "c_in" and not l.is_store]
        assert in_reads[0].width_elems == 3
        assert in_reads[0].replicas == 3

    def test_weight_reads_fully_coalesced(self):
        a = _opt(ConvTiling(c1vec=2))
        w_reads = [l for l in a.lsus if l.buffer_name == "c_w"]
        assert w_reads[0].replicas == 1
        assert w_reads[0].width_elems == 2 * 9  # c1vec * F * F

    def test_width_cap_splits(self):
        spec = ConvSpec(c1=256, h=4, w=4, k=4, f=1, bias=False)
        _, out = conv2d_tensors(spec, "p")
        from repro.topi import schedule_conv1x1_opt

        a = KernelAnalysis(lower(schedule_conv1x1_opt(out, ConvTiling(c1vec=128)), "k"))
        w_reads = [l for l in a.lsus if l.buffer_name == "p_w"]
        assert all(l.width_elems <= C.max_lsu_width_elems for l in w_reads)
        assert any(l.replicas > 1 for l in w_reads)

    def test_symbolic_strides_nonaligned(self):
        handle, _, out = conv2d_symbolic(1, 1, "p", bias=False)
        a = KernelAnalysis(
            lower(schedule_symbolic_conv(out, ConvTiling(c1vec=2), True), "k")
        )
        assert a.has_nonaligned_lsu()

    def test_static_kernel_aligned(self):
        assert not _opt().has_nonaligned_lsu()

    def test_small_reads_not_cached(self):
        a = _naive()
        bias_reads = [l for l in a.lsus if l.buffer_name == "c_b"]
        assert not bias_reads[0].cached  # 64-byte bias: registers, no cache

    def test_repetitive_big_reads_auto_cached(self):
        a = _naive()
        in_reads = [l for l in a.lsus if l.buffer_name == "c_in" and not l.is_store]
        assert in_reads[0].cached

    def test_excess_replicas(self):
        a = _naive()
        assert a.excess_lsu_replicas() >= 2  # the replicated window reads


class TestCycleModel:
    def test_unrolled_loops_are_spatial(self):
        slow = _opt(ConvTiling(w2vec=1, c1vec=1))
        fast = _opt(ConvTiling(w2vec=1, c1vec=6))
        # issue count drops 6x; pipeline fills keep the end-to-end ratio lower
        assert slow.compute_cycles() > 2 * fast.compute_cycles()

    def test_fill_charged_per_entry(self):
        a = _opt()
        # cycles must exceed the pure issue count (fills included)
        issues = 16 * 11 * 11 * 3  # ff*yy*xx*rco
        assert a.compute_cycles() > issues

    def test_symbolic_needs_bindings(self):
        handle, _, out = conv2d_symbolic(1, 1, "p", bias=False)
        a = KernelAnalysis(
            lower(schedule_symbolic_conv(out, ConvTiling(), True), "k")
        )
        with pytest.raises(AOCError, match="bindings"):
            a.compute_cycles()
        cycles = a.compute_cycles(handle.bindings(8, 4, 4, 8))
        assert cycles > 0

    def test_cycles_scale_with_bindings(self):
        handle, _, out = conv2d_symbolic(1, 1, "p", bias=False)
        a = KernelAnalysis(
            lower(schedule_symbolic_conv(out, ConvTiling(), True), "k")
        )
        small = a.compute_cycles(handle.bindings(4, 4, 4, 4))
        big = a.compute_cycles(handle.bindings(8, 8, 8, 8))
        assert big > 4 * small

    def test_cycles_cache(self):
        a = _opt()
        assert a.compute_cycles() == a.compute_cycles()


class TestFlopsAndTraffic:
    def test_flops_match_spec(self):
        spec = ConvSpec(c1=6, h=13, w=13, k=16, f=3, bias=True, activation="relu")
        a = _opt()
        # 2 flops per MAC + epilogue (bias add + relu max) per output
        expected_min = 2 * spec.macs
        assert a.flops() >= expected_min
        assert a.flops() < expected_min * 1.2

    def test_symbolic_flops(self):
        handle, _, out = conv2d_symbolic(1, 1, "p", bias=False)
        a = KernelAnalysis(
            lower(schedule_symbolic_conv(out, ConvTiling(), True), "k")
        )
        flops = a.flops(handle.bindings(8, 4, 4, 16))
        assert flops >= 2 * 8 * 16 * 16

    def test_opt_traffic_below_naive(self):
        assert _naive().traffic_bytes() > 2 * _opt().traffic_bytes()

    def test_cached_small_buffer_counts_once(self):
        a = _opt()
        # input (4KB, cached) + weights + bias + output stores; far below
        # the uncached reread total
        uncached_total = 16 * 6 * 13 * 13 * 4  # input re-read per filter
        assert a.traffic_bytes() < uncached_total

    def test_dsp_count_tracks_unroll(self):
        base = _opt(ConvTiling(w2vec=1, c1vec=1))
        wide = _opt(ConvTiling(w2vec=1, c1vec=6))
        assert wide.dsp_count() >= 5 * base.dsp_count()


def _model_values(a, bindings=None):
    """(cycles, flops, traffic, DSPs, pure transform) of one analysis."""
    return (
        a.compute_cycles(bindings), a.flops(bindings),
        a.traffic_bytes(bindings), a.dsp_count(), a.is_pure_transform(),
    )


class TestExactModelValues:
    """The cost model's exact figures on hand-built kernels.

    Fill is ``C.loop_fill_cycles`` (18) per loop entry; every global
    access touches its whole buffer once per re-reading serial loop.
    """

    def test_if_arms_priced_separately_per_metric(self):
        # then: 1 statement, 4 flops; else: 3 statements, 1 flop.  Cycles
        # take the longer arm (3), flops the costlier arm (4), spatial
        # flops both arms side by side (4 + 1) under the 2-wide unroll
        x, y = ir.Buffer("x", (16,)), ir.Buffer("y", (16,))
        i, u = ir.Var("i"), ir.Var("u")
        then = ir.Store(y, i, x[i] * x[i] * x[i] + x[i] * 2.0)
        other = ir.seq(ir.Store(y, i, x[i] + 1.0), ir.Store(y, i, x[i]),
                       ir.Store(y, i, 0.0))
        body = ir.For(i, 16, ir.For(
            u, 2, ir.IfThenElse(i < 8, then, other), kind=ir.ForKind.UNROLLED,
        ))
        a = KernelAnalysis(ir.Kernel("k_if", [x, y], body))
        # 18 + 16*3; 16*2*4; 10 sites * 64 B; ceil(2*(4+1)/2)
        assert _model_values(a) == (66, 128, 640, 5, False)

    def test_partial_unroll_runs_its_remainder_serially(self):
        x, y = ir.Buffer("x", (10,)), ir.Buffer("y", (10,))
        i = ir.Var("i")
        body = ir.For(i, 10, ir.Store(y, i, x[i] * x[i] + 1.0),
                      kind=ir.ForKind.UNROLLED, unroll_factor=4)
        a = KernelAnalysis(ir.Kernel("k_part", [x, y], body))
        # 18 + ceil(10/4); 10*2 flops; 3 sites * 40 B; ceil(4*2/2)
        assert _model_values(a) == (21, 20, 120, 4, False)

    def test_trip1_loop_collapses_around_an_accumulation(self):
        x, acc = ir.Buffer("x", (8,)), ir.Buffer("acc", (1,))
        r, t = ir.Var("r"), ir.Var("t")
        body = ir.For(r, 8, ir.For(t, 1, ir.Store(acc, 0, acc[0] + x[r])))
        a = KernelAnalysis(ir.Kernel("k_trip1", [x, acc], body))
        # r carries the global accumulation (II 8); t adds no fill:
        # 18 + 8*8*1; acc read and written back 8 times plus x once
        assert _model_values(a) == (18 + 8 * C.ii_global_accum, 8, 96, 1,
                                    False)

    def test_symbolic_extent_under_two_binding_sets(self):
        n, i, j = ir.Var("n"), ir.Var("i"), ir.Var("j")
        a_buf, b_buf = ir.Buffer("a", (n,)), ir.Buffer("b", (n,))
        body = ir.For(j, 3, ir.For(
            i, n, ir.Store(a_buf, i, b_buf[i] * 2.0 + 1.0),
        ))
        a = KernelAnalysis(
            ir.Kernel("k_sym", [a_buf, b_buf], body, scalar_args=[n])
        )
        # n=100: b's 400 B fit the LSU cache, so it is read once while
        # the store repeats 3x; n=20000: 80000 B do not fit
        small = (372, 600, 1600, 1, False)
        big = (60072, 120000, 480000, 1, False)
        assert _model_values(a, {n: 100}) == small
        assert _model_values(a, {n: 20000}) == big
        assert _model_values(a, {n: 100}) == small

    def test_pure_transform_kernel(self):
        x, y = ir.Buffer("x", (6,)), ir.Buffer("y", (8,))
        i = ir.Var("i")
        body = ir.For(i, 8, ir.IfThenElse(
            i < 2, ir.Store(y, i, 0.0), ir.Store(y, i, x[i - 2]),
        ))
        a = KernelAnalysis(ir.Kernel("k_pad", [x, y], body))
        assert _model_values(a) == (26, 0, 88, 0, True)
