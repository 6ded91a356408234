"""The schedule-equivalence certifier (RE rules) and its flow wiring.

Soundness is exercised in both directions on deliberately corrupted
recipes: the static certifier must reject each corruption with the
exact RE rule, and the dynamic interpreter cross-check must confirm the
same verdict (mismatch for rejected recipes, bit-exact logits for
certified ones).  The dynamic runs only ever touch tiny symbolic conv
kernels — shipped networks certify purely statically, and the tests
assert that with the ``equiv_dynamic_runs`` counter.
"""

import io

import pytest

from repro.device.boards import STRATIX10_SX, board_by_name
from repro.flow.artifacts import ScheduledKernel
from repro.flow.folded import FoldedConfig, plan_folded, schedule_folded
from repro.flow.stages import MODELS
from repro.ir import stmt as _s
from repro.relay import fuse_operators
from repro.schedule import create_schedule
from repro.schedule.lower import lower_stage_body
from repro.topi.recipes import recipe
from repro.topi.symbolic import conv2d_symbolic
from repro.verify import (
    EquivCertificate,
    certify_bodies,
    certify_build,
    certify_kernel,
    clear_equiv_cache,
    dynamic_equiv_check,
    equiv_cache_stats,
)

CI_NETWORKS = ("lenet5", "mobilenet_v1", "resnet18")
CI_BOARDS = ("S10MX", "S10SX", "A10")


def _make_kernel(rec, name, **kwargs):
    """A tiny 3x3/s1 symbolic conv scheduled by ``rec``."""
    handle, _inputs, out = conv2d_symbolic(3, 1, name, bias=False, **kwargs)
    sch = create_schedule(out)
    rec.apply(sch)
    sk = ScheduledKernel(name=f"k_{name}", layer=name, schedule=sch,
                         recipe=rec)
    return handle, sk, out


def _bind(handle):
    # c1=3, 6x6 input, k=4 -> 4x4 output: small enough for the scalar
    # interpreter to cross-check in milliseconds
    return handle.bindings(3, 6, 6, 4)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_equiv_cache()
    yield
    clear_equiv_cache()


class TestSoundnessBothDirections:
    """Static verdict and dynamic cross-check must agree."""

    def test_clean_recipe_certifies_and_is_bit_exact(self):
        rec = (recipe().cache_write("register").split("xx", 2)
               .unroll("xxi").writeback_at("xxo"))
        handle, sk, _ = _make_kernel(rec, "tclean")
        cert, diags = certify_kernel(sk, [_bind(handle)],
                                     dynamic_fallback=False)
        assert cert.status == "certified"
        assert not [d for d in diags if d.severity == "error"]
        assert dynamic_equiv_check(sk, _bind(handle)) is True

    def test_non_dividing_split_rejected_re004(self):
        # xx extent is 4; split by 3 drops the tail iteration
        rec = (recipe().cache_write("register").split("xx", 3)
               .unroll("xxi").writeback_at("xxo"))
        handle, sk, _ = _make_kernel(rec, "tbad4")
        cert, diags = certify_kernel(sk, [_bind(handle)],
                                     dynamic_fallback=False)
        assert cert.status == "rejected"
        assert "RE004" in [d.rule for d in diags]
        # ...and the interpreter confirms the results really differ
        assert dynamic_equiv_check(sk, _bind(handle)) is False

    def test_reorder_across_recurrence_rejected_re002(self):
        # rc hoisted outside the writeback axis: the accumulator is
        # written back before the reduction finishes
        rec = (recipe().cache_write("register").writeback_at("xx")
               .reorder("ff", "rc", "yy", "xx"))
        handle, sk, _ = _make_kernel(rec, "tbad2")
        cert, diags = certify_kernel(sk, [_bind(handle)],
                                     dynamic_fallback=False)
        assert cert.status == "rejected"
        assert "RE002" in [d.rule for d in diags]
        assert dynamic_equiv_check(sk, _bind(handle)) is False

    def test_corrupted_stride_binding_rejected_re005(self):
        rec = (recipe().cache_write("register").writeback_at("xx")
               .pin_unit_stride())
        handle, sk, _ = _make_kernel(rec, "tpin", pin_unit_stride=False)
        good = _bind(handle)
        bad = {
            k: (2 if getattr(k, "name", "").startswith("s_") and v == 1
                else v)
            for k, v in good.items()
        }
        cert, diags = certify_kernel(sk, [bad], dynamic_fallback=False)
        assert cert.status == "rejected"
        assert "RE005" in [d.rule for d in diags]
        # the same kernel under honest unit strides certifies
        clear_equiv_cache()
        cert, diags = certify_kernel(sk, [good], dynamic_fallback=False)
        assert cert.status == "certified"

    def test_dropped_writeback_rejected_re001(self):
        """A doctored body whose output store was deleted."""
        handle, _inputs, out = conv2d_symbolic(3, 1, "tdrop", bias=False)
        sch = create_schedule(out)
        recipe().cache_write("register").writeback_at("xx").apply(sch)
        sched_body = lower_stage_body(sch)
        naive_body = lower_stage_body(create_schedule(*sch.tensors))
        doctored = _DropStores(out.buffer).visit(sched_body)
        stage = next(st for st in sch.stages if st.op is out.op)
        diags, _unknowns, _re = certify_bodies(
            stage, out.buffer, naive_body, doctored,
            [handle.bindings(3, 6, 6, 4)], kernel="k_tdrop",
        )
        assert "RE001" in [d.rule for d in diags]


class _DropStores:
    """Deletes every store into one buffer (test corruption harness)."""

    def __init__(self, buf):
        self.buf = buf

    def visit(self, st):
        if isinstance(st, _s.SeqStmt):
            kept = [x for x in (self.visit(c) for c in st.stmts)
                    if x is not None]
            if not kept:
                return None
            return _s.seq(kept) if len(kept) > 1 else kept[0]
        if isinstance(st, _s.For):
            body = self.visit(st.body)
            return None if body is None else _s.For(
                st.loop_var, st.extent, body, st.kind, st.unroll_factor)
        if isinstance(st, _s.Allocate):
            body = self.visit(st.body)
            return None if body is None else _s.Allocate(st.buffer, body)
        if isinstance(st, _s.AttrStmt):
            body = self.visit(st.body)
            return None if body is None else _s.AttrStmt(
                st.attr, st.value, body)
        if isinstance(st, _s.Store) and st.buffer is self.buf:
            return None
        return st


def _certify_network(network, board):
    fused = fuse_operators(MODELS[network]())
    sched = schedule_folded(fused, FoldedConfig(), board)
    plan = plan_folded(fused, sched)
    return certify_build(sched, plan=plan,
                         subject=f"{network}:{board.name}",
                         dynamic_fallback=False)


class TestShippedRecipesCertify:
    """Every shipped network x board certifies RE-clean, zero dynamic."""

    @pytest.mark.parametrize("network", CI_NETWORKS)
    @pytest.mark.parametrize("board_name", CI_BOARDS)
    def test_matrix_certifies_statically(self, network, board_name):
        report, certs = _certify_network(network, board_by_name(board_name))
        assert report.clean, report.format_table()
        assert report.counters["equiv_rejected"] == 0
        assert report.counters["equiv_unknown"] == 0
        assert report.counters["equiv_dynamic_runs"] == 0
        assert report.counters["equiv_certified"] > 0
        # only the prebuilt softmax IR is out of the prover's scope
        uncertified = {k for k, c in certs.items()
                       if c.status == "uncertified"}
        assert uncertified <= {"k_softmax"}

    def test_counters_pre_bumped_to_zero(self):
        report, _ = _certify_network("lenet5", STRATIX10_SX)
        for key in ("equiv_certified", "equiv_rejected", "equiv_unknown",
                    "equiv_uncertified", "equiv_dynamic_runs"):
            assert key in report.counters


class TestCertificates:
    def test_round_trips_through_dict(self):
        rec = (recipe().cache_write("register").split("xx", 2)
               .unroll("xxi").writeback_at("xxo"))
        handle, sk, _ = _make_kernel(rec, "trt")
        cert, _ = certify_kernel(sk, [_bind(handle)],
                                 dynamic_fallback=False)
        again = EquivCertificate.from_dict(cert.to_dict())
        assert again == cert
        assert again.fingerprint and again.status == "certified"

    def test_cache_hits_on_repeat_certification(self):
        rec = (recipe().cache_write("register").split("xx", 2)
               .unroll("xxi").writeback_at("xxo"))
        handle, sk, _ = _make_kernel(rec, "tcache")
        b = _bind(handle)
        certify_kernel(sk, [b], dynamic_fallback=False)
        before = equiv_cache_stats()
        cert, _ = certify_kernel(sk, [b], dynamic_fallback=False)
        after = equiv_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert cert.status == "certified"

    def test_verify_stage_records_equiv_counters(self):
        from repro.flow import deploy_folded

        d = deploy_folded("mobilenet_v1", STRATIX10_SX, cache=False)
        c = d.trace.stage("verify").counters
        assert c["equiv_certified"] > 0
        assert c["equiv_rejected"] == 0
        assert c["equiv_dynamic_runs"] == 0


class TestHotPathsSkipInterpreter:
    """DSE/autofix accept candidates on certificates, not interpreter
    runs — asserted via the dynamic-run counters."""

    def test_dse_points_carry_certification(self):
        from repro.flow import sweep_conv1x1

        fused = fuse_operators(MODELS["mobilenet_v1"]())
        summary = sweep_conv1x1(
            fused, STRATIX10_SX, w2vec_options=(7,), c2vec_options=(8,),
            c1vec_options=(8,),
        )
        assert summary.certified_kernels > 0
        assert summary.cert_fallbacks == 0
        for p in summary.points:
            if p.fps is not None:
                assert p.certified > 0
                assert p.cert_dynamic_runs == 0
        d = summary.to_dict()
        assert d["certified_kernels"] == summary.certified_kernels
        assert d["cert_fallbacks"] == 0
        assert "certified" in summary.format()

    def test_autofix_gates_on_certificates_without_interpreter(self):
        from repro.flow import autofix_folded

        fused = fuse_operators(MODELS["lenet5"]())
        r = autofix_folded(fused, STRATIX10_SX,
                           config=FoldedConfig(naive=True),
                           subject="lenet5-naive")
        assert r.certified > 0
        assert r.cert_dynamic_runs == 0
        d = r.to_dict()
        assert d["certified"] == r.certified
        assert d["cert_dynamic_runs"] == 0

    def test_autotune_certifies_winner(self):
        from repro.flow.autotune import autotune_folded

        fused = fuse_operators(MODELS["mobilenet_v1"]())
        r = autotune_folded(fused, STRATIX10_SX)
        assert r.certified > 0
        assert r.cert_dynamic_runs == 0


class TestCertifyCLI:
    # lenet5's real build is pipelined (no recipe-backed kernels); its
    # folded certification stays covered by _certify_network above
    def test_certify_exits_clean_for_shipped_builds(self):
        from repro.report import main as report_main

        out = io.StringIO()
        assert report_main(out, ["--check", "mobilenet_v1:A10"]) == 0
        text = out.getvalue()
        assert "certificates:" in text
        assert "certified" in text
        assert "equiv_rejected" not in text and "equiv_unknown" not in text

    def test_certify_works_on_unfittable_build(self):
        # naive ResNet does not fit the Arria 10; certification is
        # static and never synthesizes, so it still completes
        import json

        from repro.report import main as report_main

        out = io.StringIO()
        assert report_main(out, ["--check", "resnet50:A10", "--json"]) == 0
        payload = json.loads(out.getvalue())
        assert payload["counters"]["equiv_rejected"] == 0
        assert payload["counters"]["equiv_unknown"] == 0
        statuses = {c["status"]
                    for c in payload["certificates"].values()}
        assert "certified" in statuses

    def test_certify_json_payload(self):
        import json

        from repro.report import main as report_main

        out = io.StringIO()
        assert report_main(out, ["--check", "mobilenet_v1:A10", "--json"]) == 0
        payload = json.loads(out.getvalue())
        assert payload["counters"]["equiv_rejected"] == 0
        assert payload["counters"]["equiv_dynamic_runs"] == 0
        statuses = {c["status"]
                    for c in payload["certificates"].values()}
        assert "certified" in statuses

    def test_certify_rejects_bad_specs(self):
        from repro.report import main as report_main

        assert report_main(io.StringIO(), ["--check", "nosuch"]) == 2
        assert report_main(io.StringIO(), ["--check", "lenet5:Z9"]) == 2
        assert report_main(io.StringIO(), ["--check"]) == 2


class TestExecuteTraceRow:
    def test_trace_reports_vinterp_fallback_counters(self):
        from repro.report import main as report_main

        out = io.StringIO()
        assert report_main(out, ["--trace", "lenet5"]) == 0
        text = out.getvalue()
        assert "execute" in text
        assert "vinterp_fallbacks=" in text
        assert "vinterp_bands=" in text

    def test_trace_exits_1_when_the_forward_raises(self, monkeypatch):
        import json

        from repro.flow.deploy import Deployment
        from repro.report import main as report_main

        def boom(self, x, events=None):
            raise RuntimeError("forward exploded")

        monkeypatch.setattr(Deployment, "forward_functional", boom)
        out = io.StringIO()
        assert report_main(out, ["--trace", "lenet5", "--json"]) == 1
        row = json.loads(out.getvalue())["stages"][-1]
        assert row["stage"] == "execute" and row["status"] == "error"
        assert "forward exploded" in row["error"]
