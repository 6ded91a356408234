"""The static performance advisor: RP rules, trace notes, --check CLI."""

import io
import json

import pytest

from repro.aoc import DEFAULT_CONSTANTS, KernelAnalysis
from repro.device.boards import ARRIA10, STRATIX10_SX
from repro.flow import deploy_pipelined
from repro.report import main as report_main
from repro.schedule import lower
from repro.topi import (
    ConvSpec,
    ConvTiling,
    conv2d_symbolic,
    conv2d_tensors,
    schedule_conv2d_naive,
    schedule_conv2d_opt,
    schedule_symbolic_conv,
)
from repro.verify import assert_clean, check_perf, roof_elems
from repro.verify.advisor import SUGGESTIONS, format_advice
from repro.verify.diagnostics import VerifyReport
from repro.verify.perf import RULES

C = DEFAULT_CONSTANTS


def _advise(kernel, binding_sets=None, board=STRATIX10_SX):
    report = VerifyReport(subject="t")
    check_perf(kernel, binding_sets, report, board, C)
    return report


def _naive_conv():
    spec = ConvSpec(c1=6, h=13, w=13, k=16, f=3, bias=True, activation="relu")
    _, out = conv2d_tensors(spec, "c")
    return lower(schedule_conv2d_naive(out, auto_unroll_ff=True), "k")


def _opt_conv():
    spec = ConvSpec(c1=6, h=13, w=13, k=16, f=3, bias=True, activation="relu")
    _, out = conv2d_tensors(spec, "c")
    return lower(schedule_conv2d_opt(out, ConvTiling(w2vec=1, c1vec=2)), "k")


class TestIIAttribution:
    def test_naive_conv_attributes_ii_to_accumulator(self):
        an = KernelAnalysis(_naive_conv(), C)
        recs = [r for r in an.ii_attribution() if r["cause"] == "dependence"]
        assert recs, "naive conv must have a dependence-limited loop"
        assert recs[0]["ii"] == C.ii_global_accum
        assert recs[0]["buffer"] == "c_acc"
        assert recs[0]["scope"] == "global"

    def test_attribution_sorted_worst_first(self):
        an = KernelAnalysis(_naive_conv(), C)
        iis = [r["ii"] for r in an.ii_attribution()]
        assert iis == sorted(iis, reverse=True)
        assert an.max_ii() == max(iis)

    def test_opt_conv_has_no_dependence_bottleneck(self):
        an = KernelAnalysis(_opt_conv(), C)
        assert all(r["cause"] != "dependence" for r in an.ii_attribution())


class TestRPRules:
    def test_rp001_on_naive_conv_names_buffer_and_rewrite(self):
        report = _advise(_naive_conv())
        findings = report.by_rule("RP001")
        assert findings
        assert all(d.severity == "advice" for d in findings)
        assert "c_acc" in findings[0].message
        assert "cache_write('register')" in findings[0].message

    def test_rp001_absent_on_register_cached_conv(self):
        assert not _advise(_opt_conv()).by_rule("RP001")

    def test_rp003_on_unpinned_symbolic_conv(self):
        handle, _, out = conv2d_symbolic(
            f=1, s=1, name="p", pin_unit_stride=False
        )
        kern = lower(schedule_symbolic_conv(out, ConvTiling(), is_1x1=True), "k")
        bindings = [handle.bindings(c1=16, hi=8, wi=8, k=32)]
        report = _advise(kern, bindings)
        assert report.by_rule("RP003")

    def test_rp003_absent_when_stride_pinned(self):
        handle, _, out = conv2d_symbolic(
            f=1, s=1, name="q", pin_unit_stride=True
        )
        kern = lower(schedule_symbolic_conv(out, ConvTiling(), is_1x1=True), "k")
        bindings = [handle.bindings(c1=16, hi=8, wi=8, k=32)]
        report = _advise(kern, bindings)
        assert not report.by_rule("RP003")

    def test_advice_never_fails_a_build(self):
        report = _advise(_naive_conv())
        assert report.advice and report.clean
        assert_clean(report)  # must not raise

    def test_every_emitted_rule_has_a_suggestion(self):
        assert set(SUGGESTIONS) == set(RULES)

    def test_roofline_counters_present(self):
        report = _advise(_naive_conv())
        c = report.summary_counters()
        assert c["perf_kernels"] == 1
        assert (
            c.get("kernels_memory_bound", 0) + c.get("kernels_compute_bound", 0)
            == 1
        )

    def test_roof_elems_worked_example(self):
        # thesis example: ~34 GB/s at 250 MHz is about 32 floats/cycle
        assert 30 <= roof_elems(ARRIA10, fmax_mhz=250.0) <= 36


class TestFormatAdvice:
    def test_findings_carry_fix_lines(self):
        report = _advise(_naive_conv())
        text = format_advice(report)
        assert "[RP001]" in text
        assert "fix:" in text

    def test_clean_report_says_so(self):
        report = VerifyReport(subject="t")
        assert "no performance findings" in format_advice(report)


class TestTraceNotes:
    def test_deploy_verify_stage_carries_advice_notes(self):
        d = deploy_pipelined("lenet5", STRATIX10_SX, level="base", cache=False)
        rec = d.trace.stage("verify")
        assert rec.counters["advice"] > 0
        assert any("RP001" in n for n in rec.notes)
        # notes survive both export formats
        assert any("RP001" in n for n in d.trace.to_dict()["stages"][5]["notes"])
        assert ">> " in d.trace.format_table()

    def test_optimized_deploy_emits_fewer_findings(self):
        base = deploy_pipelined("lenet5", STRATIX10_SX, level="base", cache=False)
        top = deploy_pipelined(
            "lenet5", STRATIX10_SX, level="tvm_autorun", cache=False
        )
        n_base = base.trace.stage("verify").counters["advice"]
        n_top = top.trace.stage("verify").counters["advice"]
        assert n_top < n_base


class TestAdviseCLI:
    def test_deoptimized_lenet_triggers_rp001(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "lenet5:S10SX:base"]) == 0
        text = out.getvalue()
        assert "[RP001]" in text
        assert "cache_write('register')" in text

    def test_folded_network_includes_prune_preview(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "mobilenet_v1:A10"]) == 0
        assert "dominance pruning" in out.getvalue()

    def test_json_payload_has_advice_and_preview(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "mobilenet_v1:A10", "--json"]) == 0
        payload = json.loads(out.getvalue())
        assert any(
            d["severity"] == "advice" for d in payload["diagnostics"]
        )
        assert payload["prune_preview"]["pruned_static"] > 0

    def test_unknown_network_exits_two(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "nosuch"]) == 2
        assert "unknown network" in out.getvalue()

    def test_unknown_board_exits_two(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "lenet5:Z99"]) == 2

    def test_level_on_folded_network_exits_two(self):
        out = io.StringIO()
        assert report_main(out, ["--check", "resnet18:A10:base"]) == 2

    def test_missing_spec_prints_usage(self):
        out = io.StringIO()
        assert report_main(out, ["--check"]) == 2
        assert "--check" in out.getvalue()

    def test_help_documents_advise_and_verify(self):
        out = io.StringIO()
        assert report_main(out, ["--help"]) == 0
        usage = out.getvalue()
        assert "--check" in usage
        assert "RP advice" in usage and "bounds/race" in usage


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
