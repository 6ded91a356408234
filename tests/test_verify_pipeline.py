"""The verify pipeline stage and the ``repro.report --check`` CLI."""

import io
import json

import pytest

import repro.ir as ir
from repro.device.boards import ALL_BOARDS, ARRIA10, STRATIX10_SX
from repro.errors import VerificationError
from repro.flow import default_folded_config, deploy_pipelined, stages
from repro.flow.stages import _verify_stage, folded_flow
from repro.pipeline import Pipeline
from repro.report import main as report_main
from repro.verify import Diagnostic


def _broken_program() -> ir.Program:
    """A program with a seeded out-of-bounds store (RB001)."""
    a = ir.Buffer("a", (8,))
    i = ir.Var("i")
    body = ir.For(i, 8, ir.Store(a, i + 8, 1.0))
    return ir.Program([ir.Kernel("oob", [a], body)], name="broken")


def _clean_program() -> ir.Program:
    a = ir.Buffer("a", (8,))
    i = ir.Var("i")
    body = ir.For(i, 8, ir.Store(a, i, 1.0))
    return ir.Program([ir.Kernel("fine", [a], body)], name="fine")


class TestVerifyStage:
    def test_stage_passes_clean_program(self):
        flow = Pipeline("t", [_verify_stage(lambda ctx: None)])
        result = flow.run(seed={"program": _clean_program(), "source": ""})
        report = result.value("verify")
        assert report.clean
        rec = result.trace.stage("verify")
        assert rec.status == "ok"
        assert rec.counters["errors"] == 0
        assert len(rec.fingerprint) == 64

    def test_stage_fails_broken_program_before_synthesis(self):
        flow = Pipeline("t", [_verify_stage(lambda ctx: None)])
        with pytest.raises(VerificationError, match="RB001") as exc:
            flow.run(seed={"program": _broken_program(), "source": ""})
        err = exc.value
        assert err.stage == "verify"
        assert err.report is not None
        assert [d.rule for d in err.report.errors] == ["RB001"]
        failing = err.diagnostic.trace.records[-1]
        assert failing.stage == "verify"
        assert failing.status == "error"

    def test_deploy_records_verify_counters(self):
        d = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        rec = d.trace.stage("verify")
        assert rec.status == "ok"
        assert rec.counters["errors"] == 0
        assert rec.counters["accesses_proven"] > 0
        assert rec.counters["channels_matched"] > 0

    def test_repeat_build_reports_identically(self):
        # the second build replays kernels from the per-kernel lower
        # cache; their symbolic vars are distinct objects from the new
        # plan's, and the verdict must not depend on that history
        def verify_once():
            flow = folded_flow("mobilenet_v1", ARRIA10,
                               default_folded_config("mobilenet_v1", ARRIA10),
                               cache=False)
            names = [s.name for s in flow.stages]
            result = Pipeline(flow.name,
                              flow.stages[: names.index("verify") + 1]).run()
            return (result.value("verify"),
                    result.value("program").lower_cache["hits"])

        (first, _), (second, hits) = verify_once(), verify_once()
        assert hits > 0
        assert second.diagnostics == first.diagnostics
        assert second.counters == first.counters
        assert second.counters["unrolled_stores_disjoint"] == 81


class TestReportVerifyCLI:
    def test_clean_network_exits_zero(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "lenet5:S10MX"]) == 0
        text = out.getvalue()
        assert "error=" not in text and "warn=" not in text
        assert "memory plan certified" in text

    def test_unfittable_board_still_verifies(self):
        # resnet18 on the Arria 10 cannot synthesize (FitError), but
        # --check stops after the verify stage, so it must still succeed
        out = io.StringIO()
        assert report_main(out, ["--check", "resnet18:A10"]) == 0

    def test_json_output(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "mobilenet_v1", "--json"]) == 0
        payload = json.loads(out.getvalue())
        assert payload["clean"] is True
        assert payload["subject"] == "folded:mobilenet_v1:S10SX"

    def test_error_finding_exits_one_with_the_report(self, monkeypatch):
        # an error fails the verify stage; --check still renders the
        # stage's report (taken from the VerificationError) and exits 1
        real = stages.verify_build

        def seeded(*args, **kwargs):
            report = real(*args, **kwargs)
            report.extend([Diagnostic("RB001", "error", "seeded",
                                      kernel="k_conv1")])
            return report

        monkeypatch.setattr(stages, "verify_build", seeded)
        out = io.StringIO()
        assert report_main(out, ["--check", "mobilenet_v1:A10"]) == 1
        text = out.getvalue()
        assert "[RB001] error k_conv1: seeded" in text
        assert "certificates:" in text and "arena" in text

    def test_bad_network_exits_two(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "nosuch"]) == 2

    def test_bad_board_exits_two(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "lenet5:Z99"]) == 2

    def test_missing_spec_exits_two(self):
        out = io.StringIO()
        assert report_main(out, ["--check"]) == 2

    @pytest.mark.parametrize("network", ["lenet5", "mobilenet_v1", "resnet18"])
    @pytest.mark.parametrize("board", [b.name for b in ALL_BOARDS])
    def test_ci_matrix_is_verifier_clean(self, network, board):
        # the CI static-check job's contract: every shipped network x
        # board build carries zero error-severity diagnostics
        out = io.StringIO()
        assert report_main(out, ["--check", f"{network}:{board}"]) == 0, (
            out.getvalue()
        )
