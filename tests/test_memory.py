"""Static memory liveness & footprint certifier (RM rules).

Soundness is exercised in both directions on a deliberately corrupted
reuse plan: :func:`check_memory` must reject the corruption with the
exact RM rule, and the functional executor run on the same corrupted
arena must produce logits that really diverge from the reference —
mirroring the RE soundness protocol of ``tests/test_equiv.py``.
"""

import dataclasses
import io

import numpy as np
import pytest

from repro.device import ARRIA10, STRATIX10_SX
from repro.errors import IRError, ReproError
from repro.flow import FoldedConfig, build_folded, build_pipelined
from repro.flow.deploy import default_folded_config, deploy_folded
from repro.flow.folded import plan_folded, schedule_folded
from repro.flow.stages import MODELS
from repro.relay import fuse_operators, init_params
from repro.runtime.executor import run_folded_functional
from repro.serve import deployment_ddr_bytes, replicas_per_board
from repro.serve.metrics import ServeMetrics
from repro.topi import ConvTiling
from repro.verify.dominance import infeasible_reason, profile_conv_tiling
from repro.verify.memory import (
    MemoryPlan,
    check_memory,
    format_memory_plan,
    network_footprint,
    plan_memory,
    weights_bytes,
)


@pytest.fixture(scope="module")
def lenet_build():
    fused = fuse_operators(MODELS["lenet5"]())
    prog, plan = build_folded(fused, FoldedConfig(), STRATIX10_SX)
    return fused, prog, plan


def _config(net, board):
    try:
        return default_folded_config(net, board)
    except ReproError:  # LeNet-class: no thesis tiling table
        return FoldedConfig()


def _fresh_lenet_build():
    """A private build whose plan the test may corrupt freely."""
    fused = fuse_operators(MODELS["lenet5"]())
    prog, plan = build_folded(fused, FoldedConfig(), STRATIX10_SX)
    return fused, prog, plan


def _interfering_pair(mem: MemoryPlan):
    """Two values with overlapping live ranges at distinct offsets."""
    names = sorted(mem.offsets)
    for a in names:
        for b in names:
            if a >= b:
                continue
            (af, al), (bf, bl) = mem.intervals[a], mem.intervals[b]
            if af <= bl and bf <= al and mem.offsets[a] != mem.offsets[b]:
                return a, b
    pytest.fail("no interfering pair in the lenet5 plan")


class TestLivenessAndColoring:
    def test_plan_attached_by_plan_stage(self, lenet_build):
        _, _, plan = lenet_build
        mem = plan.memory
        assert mem is not None
        assert mem.key and mem.subject.startswith("folded:")

    def test_intervals_well_formed(self, lenet_build):
        fused, _, plan = lenet_build
        mem = plan.memory
        graph_in = fused.graph.input.name
        assert mem.intervals[graph_in][0] == 0
        for name, (first, last) in mem.intervals.items():
            assert 0 <= first <= last
            assert mem.sizes[name] > 0
            lo, hi = mem.slot(name)
            assert 0 <= lo < hi <= mem.arena_bytes

    def test_arena_beats_naive_with_reuse_pairs(self, lenet_build):
        _, _, plan = lenet_build
        mem = plan.memory
        assert mem.arena_bytes < mem.naive_bytes
        assert mem.saved_bytes == mem.naive_bytes - mem.arena_bytes
        assert len(mem.reuse_pairs) > 0

    def test_reuse_pairs_have_disjoint_live_ranges(self, lenet_build):
        _, _, plan = lenet_build
        mem = plan.memory
        for a, b in mem.reuse_pairs:
            (af, al), (bf, bl) = mem.intervals[a], mem.intervals[b]
            assert al < bf or bl < af, f"pair ({a}, {b}) overlaps in time"

    def test_coloring_is_deterministic(self, lenet_build):
        fused, _, plan = lenet_build
        again = plan_memory(fused, plan, subject=plan.memory.subject)
        assert again.key == plan.memory.key
        assert again.offsets == plan.memory.offsets

    def test_roundtrips_through_dict(self, lenet_build):
        _, _, plan = lenet_build
        mem = plan.memory
        back = MemoryPlan.from_dict(mem.to_dict())
        assert back.offsets == mem.offsets
        assert back.intervals == mem.intervals
        assert back.compute_key() == mem.key

    @pytest.mark.parametrize("net", ["mobilenet_v1", "resnet18"])
    def test_large_nets_fold_activations_substantially(self, net):
        board = STRATIX10_SX
        fused = fuse_operators(MODELS[net]())
        sched = schedule_folded(fused, _config(net, board), board)
        plan = plan_folded(fused, sched)
        mem = plan.memory
        assert mem is not None
        # at most a handful of feature maps are live at once, so the
        # arena must fold away well over half of the naive footprint
        assert mem.arena_bytes * 2 < mem.naive_bytes
        assert len(mem.reuse_pairs) > 10


class TestCertifier:
    @pytest.mark.parametrize("net", ["lenet5", "mobilenet_v1", "resnet18"])
    def test_shipped_folded_builds_are_rm_clean(self, net):
        board = STRATIX10_SX
        fused = fuse_operators(MODELS[net]())
        prog, plan = build_folded(fused, _config(net, board), board)
        report, mem, cert = check_memory(
            fused, plan, program=prog, board=board, subject=net)
        assert report.clean, report.format_table()
        assert cert.certified and cert.key == mem.key
        assert report.counters["memory_checks"] > 0
        assert report.counters["memory_arena_bytes"] == mem.arena_bytes
        assert report.counters["memory_ddr_bytes"] == (
            mem.arena_bytes + weights_bytes(fused))

    def test_pipelined_plan_is_rm_clean_with_full_span(self):
        fused = fuse_operators(MODELS["lenet5"]())
        prog, plan = build_pipelined(fused, "channels", ARRIA10)
        mem = plan.memory
        assert mem is not None
        # every globally-buffered stage is concurrently resident
        firsts = {iv[0] for iv in mem.intervals.values()}
        lasts = {iv[1] for iv in mem.intervals.values()}
        assert firsts == {0} and len(lasts) == 1
        report, _, cert = check_memory(fused, plan, board=ARRIA10)
        assert report.clean and cert.certified

    def test_corrupted_reuse_trips_rm001_and_diverges(self):
        """Both directions: static RM001 AND real logit divergence."""
        fused, prog, plan = _fresh_lenet_build()
        params = init_params(fused.graph, seed=0)
        x = np.random.default_rng(3).standard_normal(
            fused.graph.input.out_shape).astype(np.float32)
        reference = run_folded_functional(prog, plan, fused, x, params)

        a, b = _interfering_pair(plan.memory)
        plan.memory.offsets[b] = plan.memory.offsets[a]

        report, _, cert = check_memory(fused, plan, program=prog,
                                       board=STRATIX10_SX)
        assert not report.clean and not cert.certified
        assert "RM001" in {d.rule for d in report.diagnostics}
        assert "RM001" in cert.rules

        corrupted = run_folded_functional(prog, plan, fused, x, params)
        assert not np.array_equal(reference, corrupted), (
            f"clobbering {b!r} onto {a!r} did not change the logits — "
            "the static RM001 verdict would be vacuous"
        )

    def test_size_drift_trips_rm004(self):
        fused, prog, plan = _fresh_lenet_build()
        victim = sorted(plan.memory.sizes)[0]
        plan.memory.sizes[victim] += 4
        report, _, cert = check_memory(fused, plan, program=prog)
        assert "RM004" in {d.rule for d in report.diagnostics}
        assert not cert.certified

    def test_stale_slot_trips_rm004(self):
        fused, _, plan = _fresh_lenet_build()
        plan.memory.offsets["ghost"] = 0
        plan.memory.sizes["ghost"] = 4
        report, _, cert = check_memory(fused, plan)
        msgs = [d.message for d in report.by_rule("RM004")]
        assert any("stale" in m for m in msgs)
        assert not cert.certified

    def test_interval_drift_trips_rm004(self):
        fused, _, plan = _fresh_lenet_build()
        victim = sorted(plan.memory.intervals)[0]
        f0, l0 = plan.memory.intervals[victim]
        plan.memory.intervals[victim] = (f0, l0 + 5)
        report, _, _ = check_memory(fused, plan)
        assert "RM004" in {d.rule for d in report.diagnostics}

    def test_stripped_bindings_trip_rm002(self):
        """Without its bindings a folded kernel's symbolic output buffer
        has unbounded capacity — the slot cannot be proven to contain
        every store."""
        fused, prog, plan = _fresh_lenet_build()
        plan.invocations[0].bindings.clear()
        report, _, cert = check_memory(fused, plan, program=prog)
        assert "RM002" in {d.rule for d in report.diagnostics}
        assert not cert.certified

    def test_tiny_board_trips_rm003(self, lenet_build):
        fused, prog, plan = lenet_build
        tiny = dataclasses.replace(STRATIX10_SX, ddr_bytes=1 << 10)
        report, _, cert = check_memory(fused, plan, program=prog, board=tiny)
        rm3 = report.by_rule("RM003")
        assert rm3 and "DDR" in rm3[0].message
        assert not cert.certified

    def test_naive_plan_gets_rm005_advice_but_certifies(self, lenet_build):
        fused, _, plan = lenet_build
        mem = plan.memory
        naive_offsets, off = {}, 0
        for name in sorted(mem.offsets, key=lambda n: mem.intervals[n]):
            naive_offsets[name] = off
            off += mem.sizes[name]
        naive = MemoryPlan(
            subject="naive", arena_bytes=off, naive_bytes=mem.naive_bytes,
            offsets=naive_offsets, sizes=dict(mem.sizes),
            intervals=dict(mem.intervals), layers=dict(mem.layers))
        naive.key = naive.compute_key()
        report, _, cert = check_memory(fused, plan, memory=naive)
        advice = report.by_rule("RM005")
        assert advice and "unshared" in advice[0].message
        # advice never fails a build: the naive plan is safe, just wasteful
        assert report.clean and cert.certified

    def test_rendering_names_arena_and_verdict(self, lenet_build):
        fused, _, plan = lenet_build
        text = format_memory_plan(plan.memory, fused=fused, board=STRATIX10_SX)
        assert "arena" in text and "(shared)" in text
        assert "fits S10SX" in text


class TestAdoption:
    def test_arena_execution_is_bit_identical(self):
        fused, prog, plan = _fresh_lenet_build()
        params = init_params(fused.graph, seed=0)
        x = np.random.default_rng(7).standard_normal(
            fused.graph.input.out_shape).astype(np.float32)
        with_arena = run_folded_functional(prog, plan, fused, x, params)
        plan.memory = None
        without = run_folded_functional(prog, plan, fused, x, params)
        assert np.array_equal(with_arena, without)

    def test_verify_stage_records_memory_counters(self):
        dep = deploy_folded("lenet5", STRATIX10_SX, config=FoldedConfig(),
                            cache=False)
        rec = dep.trace.stage("verify")
        assert rec.status == "ok"
        assert rec.counters["memory_arena_bytes"] > 0
        assert rec.counters["memory_saved_bytes"] > 0
        assert rec.counters["memory_checks"] > 0

    def test_network_footprint_orders_arena_under_naive(self):
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        fp = network_footprint(fused)
        assert 0 < fp.arena_bytes < fp.naive_bytes
        assert fp.ddr_bytes == fp.arena_bytes + fp.weights_bytes
        resident = network_footprint(fused, pipelined=True)
        assert resident.arena_bytes == resident.naive_bytes == fp.naive_bytes

    def test_dominance_gains_ddr_axis(self):
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        prof = profile_conv_tiling(fused, ("conv", 1, 1), ConvTiling())
        assert prof.ddr_bytes == network_footprint(fused).ddr_bytes > 0
        assert infeasible_reason(prof, STRATIX10_SX) is None
        tiny = dataclasses.replace(STRATIX10_SX, ddr_bytes=1 << 16)
        reason = infeasible_reason(prof, tiny)
        assert reason is not None and "RM003" in reason

    def test_serve_packs_replicas_by_footprint(self):
        dep = deploy_folded("lenet5", STRATIX10_SX, config=FoldedConfig(),
                            cache=False)
        ddr = deployment_ddr_bytes(dep)
        assert ddr == (dep.plan.memory.arena_bytes
                       + weights_bytes(dep.fused))
        per_board = replicas_per_board(STRATIX10_SX, ddr)
        assert per_board >= 1
        assert replicas_per_board(STRATIX10_SX, 0) == 0

    def test_serve_metrics_render_memory_line(self):
        m = ServeMetrics(ddr_per_replica_bytes=8 << 20, replicas_per_board=4)
        table = m.format_table()
        assert "ddr/replica" in table and "replicas/board 4" in table
        assert m.to_dict()["replicas_per_board"] == 4
        # zero stays silent: CPU-only pools have no DDR residency
        assert "ddr/replica" not in ServeMetrics().format_table()


class TestBufferSizeHardening:
    def test_symbolic_size_raises_rm002_not_none(self):
        import repro.ir as ir

        n = ir.Var("n")
        buf = ir.Buffer("acts", (n, 8))
        assert buf.size_bytes() is None
        with pytest.raises(IRError, match="RM002"):
            buf.require_size_bytes()
        with pytest.raises(IRError, match="acts"):
            buf.require_num_elements()

    def test_concrete_size_passes_through(self):
        import repro.ir as ir

        buf = ir.Buffer("w", (3, 4))
        assert buf.require_num_elements() == 12
        assert buf.require_size_bytes() == 48

    def test_sim_allocation_rejects_unresolved_size(self):
        import repro.ir as ir
        from repro.aoc import compile_program
        from repro.errors import RuntimeSimError
        from repro.runtime import SimContext
        from repro.schedule import lower
        from repro.topi import ConvSpec, ConvTiling, conv2d_tensors, \
            schedule_conv2d_opt

        spec = ConvSpec(c1=4, h=6, w=6, k=4, f=3)
        _, out = conv2d_tensors(spec, "c")
        kern = lower(schedule_conv2d_opt(out, ConvTiling()), "k")
        bits = compile_program(ir.Program([kern], "p"), STRATIX10_SX)
        ctx = SimContext(bits)
        # a symbolic Buffer.size_bytes() must be rejected at allocation
        # with the RM002 cause, not propagate None into a TypeError
        with pytest.raises(RuntimeSimError, match="RM002"):
            ctx.create_buffer("acts", None)


class TestMemoryCLI:
    def test_memory_report_runs_clean(self):
        from repro.report import main

        out = io.StringIO()
        assert main(out, ["--check", "lenet5:S10SX"]) == 0
        text = out.getvalue()
        assert "arena" in text and "memory plan certified" in text

    def test_memory_report_json(self):
        import json

        from repro.report import main

        out = io.StringIO()
        assert main(out, ["--check", "mobilenet_v1:A10", "--json"]) == 0
        payload = json.loads(out.getvalue())
        assert payload["memory_certificate"]["status"] == "certified"
        assert payload["memory"]["arena_bytes"] < payload["memory"]["naive_bytes"]

    # the retired analyzer modes (folded into --check) must be rejected
    # with the usage text too, never silently dispatched
    @pytest.mark.parametrize("mode", [
        "--trace", "--check", "--autofix", "--serve",
        "--verify", "--advise", "--certify", "--memory",
    ])
    def test_malformed_spec_exits_2_with_usage(self, mode):
        from repro.report import main

        out = io.StringIO()
        assert main(out, [mode, "no_such_network:NOBOARD"]) == 2
        assert "usage:" in out.getvalue()

    @pytest.mark.parametrize("mode", [
        "--trace", "--check", "--autofix", "--serve",
        "--verify", "--advise", "--certify", "--memory",
    ])
    def test_missing_spec_exits_2_with_usage(self, mode):
        from repro.report import main

        out = io.StringIO()
        assert main(out, [mode]) == 2
        assert "usage:" in out.getvalue()
