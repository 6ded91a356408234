"""Static verifier: seeded defects are caught, shipped builds are clean."""

import pytest

import repro.ir as ir
from repro.errors import VerificationError
from repro.ir.analysis import eval_int
from repro.verify import (
    Diagnostic,
    Interval,
    RULES,
    VerifyReport,
    assert_clean,
    binding_sets_of,
    check_bounds,
    check_channels,
    check_races,
    interval_of,
    lint_source,
    verify_build,
)
from repro.runtime.plan import FoldedPlan, Invocation, PipelinePlan, PipelineStage


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------
class TestInterval:
    def test_point_and_extent(self):
        assert Interval.point(3) == Interval(3, 3)
        assert Interval.extent(8) == Interval(0, 7)
        assert Interval.extent(0) == Interval(0, 0)

    def test_arithmetic(self):
        a, b = Interval(1, 3), Interval(-2, 5)
        assert a + b == Interval(-1, 8)
        assert a - b == Interval(-4, 5)
        assert a * b == Interval(-6, 15)

    def test_interval_of_affine(self):
        i, j = ir.Var("i"), ir.Var("j")
        env = {i: Interval(0, 6), j: Interval(0, 4)}
        assert interval_of(i * 5 + j, env) == Interval(0, 34)

    def test_interval_of_minmax_clamp(self):
        # the pad-kernel pattern: max(min(i - 2, 27), 0) stays in range
        i = ir.Var("i")
        env = {i: Interval(0, 31)}
        e = ir.Max(ir.Min(i - 2, ir.IntImm(27)), ir.IntImm(0))
        assert interval_of(e, env) == Interval(0, 27)

    def test_interval_of_unbound_var_is_none(self):
        assert interval_of(ir.Var("free"), {}) is None

    def test_floordiv_mod(self):
        i = ir.Var("i")
        env = {i: Interval(0, 27)}
        assert interval_of(i // 7, env) == Interval(0, 3)
        assert interval_of(i % 7, env) == Interval(0, 6)


# ---------------------------------------------------------------------------
# the eval_int zero-divisor regression (satellite of this PR)
# ---------------------------------------------------------------------------
class TestEvalIntZeroDivisor:
    def test_floordiv_by_zero_is_none(self):
        assert eval_int(ir.IntImm(7) // ir.IntImm(0)) is None

    def test_mod_by_zero_is_none(self):
        assert eval_int(ir.IntImm(7) % ir.IntImm(0)) is None

    def test_bound_var_zero_divisor_is_none(self):
        n = ir.Var("n")
        assert eval_int(ir.IntImm(7) // n, {n: 0}) is None
        assert eval_int(ir.IntImm(7) // n, {n: 2}) == 3


# ---------------------------------------------------------------------------
# bounds checking
# ---------------------------------------------------------------------------
def _store_kernel(buf_elems: int, extent: int, offset: int = 0) -> ir.Kernel:
    a = ir.Buffer("a", (buf_elems,))
    i = ir.Var("i")
    body = ir.For(i, extent, ir.Store(a, i + offset, 1.0))
    return ir.Kernel("k", [a], body)


class TestBounds:
    def test_in_range_is_clean_and_proven(self):
        rep = check_bounds(_store_kernel(8, 8))
        assert rep.clean and not rep.diagnostics
        assert rep.counters["accesses_proven"] == 1

    def test_seeded_oob_store_is_rb001_error(self):
        # the acceptance-criteria defect: store runs past the buffer end
        rep = check_bounds(_store_kernel(8, 8, offset=8))
        assert [d.rule for d in rep.diagnostics] == ["RB001"]
        d = rep.diagnostics[0]
        assert d.severity == "error"
        assert d.kernel == "k"
        assert d.location == "a"
        assert not rep.clean

    def test_partial_overlap_is_rb002_not_rb001(self):
        rep = check_bounds(_store_kernel(8, 12))
        assert [d.rule for d in rep.diagnostics] == ["RB002"]
        assert rep.diagnostics[0].severity == "warn"
        assert rep.clean  # unprovable is not a violation

    def test_oob_under_conditional_downgrades_to_warn(self):
        a = ir.Buffer("a", (8,))
        i = ir.Var("i")
        body = ir.For(
            i, 8, ir.IfThenElse(i.equal(99), ir.Store(a, i + 100, 1.0))
        )
        rep = check_bounds(ir.Kernel("k", [a], body))
        assert [d.rule for d in rep.diagnostics] == ["RB002"]
        assert rep.clean

    def test_negative_index_is_rb001(self):
        rep = check_bounds(_store_kernel(8, 8, offset=-20))
        assert [d.rule for d in rep.diagnostics] == ["RB001"]

    def test_symbolic_kernel_verified_per_binding_set(self):
        n = ir.Var("n")
        a = ir.Buffer("a", (n,))
        i = ir.Var("i")
        body = ir.For(i, n, ir.Store(a, i, 1.0))
        k = ir.Kernel("k", [a], body, scalar_args=[n])
        # bound: provable in range
        rep = check_bounds(k, [{n: 16}])
        assert rep.clean and not rep.diagnostics
        assert rep.counters["accesses_proven"] == 1
        # unbound: unprovable, not a violation
        rep = check_bounds(k)
        assert rep.clean
        assert any(d.rule == "RB002" for d in rep.diagnostics)

    def test_binding_label_in_location(self):
        n = ir.Var("n")
        a = ir.Buffer("a", (n,))
        i = ir.Var("i")
        body = ir.For(i, n, ir.Store(a, i + n, 1.0))
        k = ir.Kernel("k", [a], body, scalar_args=[n])
        rep = check_bounds(k, [{n: 4}])
        (d,) = rep.by_rule("RB001")
        assert "n=4" in d.location

    def test_buffer_capacity(self):
        n = ir.Var("n")
        assert ir.Buffer("a", (2, 3, 4)).num_elements() == 24
        assert ir.Buffer("a", (n, 4)).num_elements() is None
        assert ir.Buffer("a", (n, 4)).num_elements({n: 5}) == 20

    def test_pad_clamp_pattern_is_proven(self):
        # clamped gather: a[max(min(i - 2, 7), 0)] with i in [0, 11]
        a, b = ir.Buffer("a", (8,)), ir.Buffer("b", (12,))
        i = ir.Var("i")
        idx = ir.Max(ir.Min(i - 2, ir.IntImm(7)), ir.IntImm(0))
        body = ir.For(i, 12, ir.Store(b, i, ir.Load(a, idx)))
        rep = check_bounds(ir.Kernel("pad", [a, b], body))
        assert rep.clean and not rep.diagnostics
        assert rep.counters["accesses_proven"] == 2


# ---------------------------------------------------------------------------
# unroll races + def-before-use
# ---------------------------------------------------------------------------
class TestRaces:
    def _unrolled(self, store_index, store_value, extent=4):
        a = ir.Buffer("a", (64,))
        i = ir.Var("i")
        body = ir.For(
            i, extent, ir.Store(a, store_index(i), store_value(i)),
            kind=ir.ForKind.UNROLLED,
        )
        return ir.Kernel("k", [a], body)

    def test_disjoint_stores_are_clean(self):
        k = self._unrolled(lambda i: i, lambda i: ir.Cast(ir.FLOAT32, i))
        rep = check_races(k)
        assert rep.clean and not rep.diagnostics
        assert rep.counters["unrolled_stores_disjoint"] == 1

    def test_seeded_write_race_is_rr001_error(self):
        # the acceptance-criteria defect: every unrolled iteration writes
        # address 0 with an iteration-dependent value
        k = self._unrolled(lambda i: ir.IntImm(0), lambda i: ir.Cast(ir.FLOAT32, i))
        rep = check_races(k)
        assert [d.rule for d in rep.diagnostics] == ["RR001"]
        d = rep.diagnostics[0]
        assert d.severity == "error"
        assert d.kernel == "k"
        assert d.location == "i"
        assert not rep.clean

    def test_reduction_update_is_not_a_race(self):
        a = ir.Buffer("a", (64,))
        i = ir.Var("i")
        body = ir.For(
            i, 4,
            ir.Store(a, 0, ir.Load(a, ir.IntImm(0)) + ir.Cast(ir.FLOAT32, i)),
            kind=ir.ForKind.UNROLLED,
        )
        rep = check_races(ir.Kernel("k", [a], body))
        assert rep.clean and not rep.diagnostics
        assert rep.counters["unrolled_reduction_updates"] == 1

    def test_same_value_broadcast_is_benign(self):
        k = self._unrolled(lambda i: ir.IntImm(0), lambda i: ir.FloatImm(1.0))
        rep = check_races(k)
        assert rep.clean and not rep.diagnostics

    def test_nonaffine_index_is_rr003_unprovable(self):
        k = self._unrolled(lambda i: i * i, lambda i: ir.FloatImm(1.0))
        rep = check_races(k)
        assert [d.rule for d in rep.diagnostics] == ["RR003"]
        assert rep.clean

    def test_symbolic_stride_provable_under_bindings(self):
        # folded-kernel pattern: store stride is a scalar argument
        s = ir.Var("s")
        a = ir.Buffer("a", (64,))
        i = ir.Var("i")
        body = ir.For(
            i, 4, ir.Store(a, i * s, ir.Cast(ir.FLOAT32, i)),
            kind=ir.ForKind.UNROLLED,
        )
        k = ir.Kernel("k", [a], body, scalar_args=[s])
        assert check_races(k).by_rule("RR003")  # unbound: unprovable
        rep = check_races(k, [{s: 16}])
        assert not rep.diagnostics  # bound: disjoint, proven

    def test_def_before_use_is_rr002(self):
        a = ir.Buffer("a", (8,))
        acc = ir.Buffer("acc", (8,), scope="local")
        i = ir.Var("i")
        body = ir.Allocate(
            acc,
            ir.For(i, 8, ir.Store(a, i, ir.Load(acc, i))),  # read before init
        )
        rep = check_races(ir.Kernel("k", [a], body))
        assert [d.rule for d in rep.diagnostics] == ["RR002"]
        assert rep.diagnostics[0].location == "acc"

    def test_init_then_use_is_clean(self):
        a = ir.Buffer("a", (8,))
        acc = ir.Buffer("acc", (8,), scope="local")
        i, j = ir.Var("i"), ir.Var("j")
        body = ir.Allocate(acc, ir.seq(
            ir.For(i, 8, ir.Store(acc, i, 0.0)),
            ir.For(j, 8, ir.Store(a, j, ir.Load(acc, j))),
        ))
        rep = check_races(ir.Kernel("k", [a], body))
        assert rep.clean and not rep.diagnostics


# ---------------------------------------------------------------------------
# channel protocol
# ---------------------------------------------------------------------------
def _producer(ch, n=8, name="prod"):
    i = ir.Var("i")
    body = ir.For(i, n, ir.ChannelWrite(ch, ir.Cast(ir.FLOAT32, i)))
    return ir.Kernel(name, [], body, autorun=True)


def _consumer(ch, n=8, name="cons"):
    out = ir.Buffer("out", (max(n, 1),))
    i = ir.Var("i")
    body = ir.For(i, n, ir.Store(out, i, ir.ChannelRead(ch)))
    return ir.Kernel(name, [out], body)


class TestChannels:
    def test_matched_counts_are_clean(self):
        ch = ir.Channel("ch", depth=8)
        rep = check_channels(ir.Program([_producer(ch), _consumer(ch)]))
        assert rep.clean
        assert rep.counters["channels_matched"] == 1

    def test_seeded_count_mismatch_is_rc001_error(self):
        # the acceptance-criteria defect: producer writes 8, consumer
        # reads 6 — the producer blocks forever on element 7
        ch = ir.Channel("ch", depth=8)
        rep = check_channels(ir.Program([_producer(ch, 8), _consumer(ch, 6)]))
        (d,) = rep.by_rule("RC001")
        assert d.severity == "error"
        assert d.location == "ch"
        assert "producer" in d.message  # the blocking side is named
        assert not rep.clean

    def test_missing_consumer_is_rc001(self):
        ch = ir.Channel("ch", depth=8)
        rep = check_channels(ir.Program([_producer(ch)]))
        assert rep.by_rule("RC001")

    def test_conditional_write_is_rc002_unprovable(self):
        ch = ir.Channel("ch", depth=8)
        i = ir.Var("i")
        body = ir.For(i, 8, ir.IfThenElse(i < 6, ir.ChannelWrite(ch, 1.0)))
        prod = ir.Kernel("prod", [], body, autorun=True)
        rep = check_channels(ir.Program([prod, _consumer(ch, 8)]))
        assert rep.by_rule("RC002")
        assert rep.clean  # unprovable is a warning, not an error

    def test_wait_cycle_is_rc003_deadlock(self):
        # two kernels that each consume the other's output: a cycle
        c1, c2 = ir.Channel("c1", depth=1), ir.Channel("c2", depth=1)
        i = ir.Var("i")
        k1 = ir.Kernel("k1", [], ir.For(
            i, 1, ir.ChannelWrite(c1, ir.ChannelRead(c2))), autorun=True)
        j = ir.Var("j")
        k2 = ir.Kernel("k2", [], ir.For(
            j, 1, ir.ChannelWrite(c2, ir.ChannelRead(c1))), autorun=True)
        rep = check_channels(ir.Program([k1, k2]))
        (d,) = rep.by_rule("RC003")
        assert d.severity == "error"
        assert "k1" in d.message and "k2" in d.message

    def test_overdeep_fifo_is_rc004(self):
        ch = ir.Channel("ch", depth=64)  # producer only ever writes 8
        rep = check_channels(ir.Program([_producer(ch, 8), _consumer(ch, 8)]))
        assert rep.by_rule("RC004")
        assert rep.clean

    def test_underdeep_fifo_is_rc005_info(self):
        ch = ir.Channel("ch", depth=2)
        rep = check_channels(ir.Program([_producer(ch, 8), _consumer(ch, 8)]))
        (d,) = rep.by_rule("RC005")
        assert d.severity == "info"

    def test_plan_drift_is_rc006(self):
        ch = ir.Channel("ch", depth=8)
        program = ir.Program([_producer(ch), _consumer(ch)])
        plan = PipelinePlan(stages=[
            PipelineStage("prod", "l0", channel_in=False, channel_out=True,
                          channel_depth=4),  # program says 8
            PipelineStage("cons", "l1", channel_in=True, channel_out=False),
            PipelineStage("ghost", "l2"),  # not in the program at all
        ], uses_channels=True)
        rep = check_channels(program, plan)
        rules = [d.rule for d in rep.by_rule("RC006")]
        assert len(rules) == 2  # depth drift + missing kernel


# ---------------------------------------------------------------------------
# OpenCL source lint
# ---------------------------------------------------------------------------
CLEAN_CL = """\
channel float ch_a __attribute__((depth(8)));

kernel void k1(global float * restrict out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = read_channel_intel(ch_a);
  }
}
"""


class TestSourceLint:
    def test_clean_source(self):
        rep = lint_source(CLEAN_CL)
        assert rep.clean and not rep.diagnostics
        assert rep.counters["kernels_linted"] == 1

    def test_unused_arg_is_rl001(self):
        src = "kernel void k(global float * restrict a, global float * restrict b) {\n  a[0] = 1.0f;\n}\n"
        rep = lint_source(src)
        (d,) = rep.by_rule("RL001")
        assert d.location == "b"

    def test_missing_restrict_is_rl002(self):
        src = "kernel void k(global float *a) {\n  a[0] = 1.0f;\n}\n"
        rep = lint_source(src)
        (d,) = rep.by_rule("RL002")
        assert d.kernel == "k"

    def test_barrier_in_divergent_control_is_rl003(self):
        src = (
            "kernel void k(global float * restrict a) {\n"
            "  if (get_local_id(0) == 0) {\n"
            "    barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  }\n"
            "  a[0] = 1.0f;\n"
            "}\n"
        )
        rep = lint_source(src)
        (d,) = rep.by_rule("RL003")
        assert d.severity == "error"

    def test_barrier_at_top_level_is_fine(self):
        src = (
            "kernel void k(global float * restrict a) {\n"
            "  barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  a[0] = 1.0f;\n"
            "}\n"
        )
        assert not lint_source(src).diagnostics

    def test_undeclared_channel_is_rl004(self):
        src = (
            "kernel void k(global float * restrict a) {\n"
            "  a[0] = read_channel_intel(ch_ghost);\n"
            "}\n"
        )
        rep = lint_source(src)
        (d,) = rep.by_rule("RL004")
        assert d.severity == "error"
        assert d.location == "ch_ghost"


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------
class TestVerifyBuild:
    def test_merges_all_families(self):
        ch = ir.Channel("ch", depth=8)
        program = ir.Program([_producer(ch), _consumer(ch)], name="p")
        rep = verify_build(program, source=CLEAN_CL)
        assert rep.clean
        assert rep.counters["kernels_bounds_checked"] == 2
        assert rep.counters["kernels_race_checked"] == 2
        assert rep.counters["channels_matched"] == 1
        assert rep.counters["kernels_linted"] == 1

    def test_suppress_drops_findings(self):
        rep = verify_build(
            ir.Program([_store_kernel(8, 8, offset=8)]), suppress=["RB001"]
        )
        assert rep.clean and not rep.diagnostics
        assert rep.counters["suppressed"] == 1

    def test_suppress_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="RZ999"):
            verify_build(ir.Program([_store_kernel(8, 8)]), suppress=["RZ999"])

    def test_assert_clean_raises_with_report(self):
        rep = verify_build(ir.Program([_store_kernel(8, 8, offset=8)]))
        with pytest.raises(VerificationError, match="RB001") as exc:
            assert_clean(rep)
        assert exc.value.report is rep

    def test_assert_clean_passes_through(self):
        rep = verify_build(ir.Program([_store_kernel(8, 8)]))
        assert assert_clean(rep) is rep

    def test_binding_sets_of_dedupes(self):
        n = ir.Var("n")
        plan = FoldedPlan(invocations=[
            Invocation("k", "l0", "conv", bindings={n: 4}),
            Invocation("k", "l1", "conv", bindings={n: 4}),
            Invocation("k", "l2", "conv", bindings={n: 8}),
            Invocation("static", "l3", "pool"),
        ])
        sets = binding_sets_of(plan)
        assert sorted(b[n] for b in sets["k"]) == [4, 8]
        assert "static" not in sets


# ---------------------------------------------------------------------------
# diagnostics vocabulary
# ---------------------------------------------------------------------------
class TestDiagnostics:
    def test_unknown_rule_rejected(self):
        with pytest.raises(AssertionError):
            Diagnostic("RZ999", "error", "nope")

    def test_unknown_severity_rejected(self):
        with pytest.raises(AssertionError):
            Diagnostic("RB001", "fatal", "nope")

    def test_rule_ids_are_stable_and_grouped(self):
        assert set(RULES) == {
            "RB001", "RB002", "RR001", "RR002", "RR003",
            "RC001", "RC002", "RC003", "RC004", "RC005", "RC006",
            "RL001", "RL002", "RL003", "RL004",
            "RP001", "RP002", "RP003", "RP004", "RP005", "RP006",
            "RE001", "RE002", "RE003", "RE004", "RE005", "RE006",
            "RM001", "RM002", "RM003", "RM004", "RM005",
        }

    def test_report_json_round_trip(self):
        rep = VerifyReport(subject="s")
        rep.diagnostics.append(Diagnostic("RB001", "error", "m", "k", "loc"))
        d = rep.to_dict()
        assert d["clean"] is False
        assert d["diagnostics"][0]["rule"] == "RB001"

    def test_format_table_orders_by_severity(self):
        rep = VerifyReport(subject="s")
        rep.diagnostics.append(Diagnostic("RC005", "info", "third"))
        rep.diagnostics.append(Diagnostic("RB001", "error", "first"))
        rep.diagnostics.append(Diagnostic("RB002", "warn", "second"))
        table = rep.format_table()
        assert table.index("first") < table.index("second") < table.index("third")
