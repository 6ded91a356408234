"""The advise->rewrite auto-scheduler: fixpoints, blocking, round-trips."""

import dataclasses
import io
import json

import pytest

from repro.device.boards import ARRIA10, STRATIX10_SX
from repro.errors import ReproError
from repro.flow import (
    FoldedConfig,
    autofix_folded,
    autofix_network,
    autofix_pipelined,
    default_folded_config,
    plan_recipe_fixes,
    sweep_conv1x1,
)
from repro.flow import incremental
from repro.flow.artifacts import ScheduledKernel
from repro.flow.pipelined import schedule_pipelined
from repro.models import lenet5, mobilenet_v1
from repro.relay import fuse_operators
from repro.report import autofix_deployment
from repro.schedule import ScheduleRecipe


@pytest.fixture(scope="module")
def lenet_fused():
    return fuse_operators(lenet5())


@pytest.fixture(scope="module")
def mobilenet_fused():
    return fuse_operators(mobilenet_v1())


@pytest.fixture(scope="module")
def naive_result(lenet_fused):
    return autofix_folded(
        lenet_fused, STRATIX10_SX, config=FoldedConfig(naive=True),
        subject="lenet5-naive",
    )


class TestFoldedAutofix:
    def test_naive_build_converges_provably_stuck(self, naive_result):
        # every schedule-backed kernel gets its register cache; only the
        # prebuilt softmax IR remains, with an explicit blocking reason
        r = naive_result
        assert r.status == "stuck"
        assert r.stuck_reason == "blocked"
        assert r.blocked and all(b.reason for b in r.blocked)
        assert {b.kernel for b in r.blocked} == {"k_softmax"}

    def test_rp001_fixed_on_every_scheduled_kernel(self, naive_result):
        fixed = {s.kernel for s in naive_result.applied if s.rule == "RP001"}
        assert {"k_conv1", "k_conv2", "k_dense1", "k_dense2", "k_dense3"} <= fixed
        # ...and those fixes stuck: nothing but the softmax remains flagged
        assert {d.kernel for d in naive_result.remaining} == {"k_softmax"}

    def test_every_applied_fix_is_a_cache_write(self, naive_result):
        for s in naive_result.applied:
            assert s.fix is not None
            assert s.fix.get("transform") == "cache_write"

    def test_final_recipes_serialize_and_roundtrip(self, naive_result):
        r = naive_result
        assert r.roundtrip_ok is True
        assert r.recipes and set(r.recipes) == set(r.recipes_json)
        for text in r.recipes_json.values():
            json.loads(text)  # every recipe is valid JSON

    def test_result_to_dict_is_json_ready(self, naive_result):
        d = naive_result.to_dict()
        json.dumps(d)
        assert d["status"] == "stuck" and d["stuck_reason"] == "blocked"
        assert d["applied"] and d["applied"][0]["fix"]
        assert all(b["reason"] for b in d["blocked"])

    def test_deterministic_across_runs(self, lenet_fused, naive_result):
        again = autofix_folded(
            lenet_fused, STRATIX10_SX, config=FoldedConfig(naive=True),
            subject="lenet5-naive",
        )
        assert again.recipes == naive_result.recipes
        assert [s.format() for s in again.applied] == [
            s.format() for s in naive_result.applied
        ]

    def test_input_config_is_not_mutated(self, lenet_fused):
        cfg = FoldedConfig(naive=True)
        autofix_folded(lenet_fused, STRATIX10_SX, config=cfg)
        assert not cfg.recipe_deltas
        assert cfg.naive is True


class TestPipelinedAutofix:
    def test_lenet_reaches_advice_clean(self, lenet_fused):
        r = autofix_pipelined(lenet_fused, STRATIX10_SX)
        assert r.clean and r.status == "clean"
        assert r.mode == "pipelined"
        assert not r.remaining and not r.blocked

    def test_softmax_stages_fixed_independently(self, lenet_fused):
        # the LICM softmax carries two RP001 reductions in *different*
        # stages (max over k, sum over k1) — each gets its own delta,
        # which names its stage in the kernel's one recipe
        r = autofix_pipelined(lenet_fused, STRATIX10_SX)
        rp001 = [s for s in r.applied if s.rule == "RP001"]
        assert len(rp001) == 2
        assert {s.location for s in rp001} == {"k", "k1"}
        final = ScheduleRecipe.from_json(r.recipes_json["k_softmax"])
        assert final == (ScheduleRecipe().stage(0).cache_write("register")
                         .stage(2).cache_write("register"))
        assert r.roundtrip_ok is True

    def test_fix_leaves_memoized_kernels_untouched(self, lenet_fused):
        # a fix edits recipes only: every scheduled kernel the memo
        # holds keeps the recipe it was built from, and its schedule
        def state(sk):
            return sk.recipe.fingerprint(), [
                st.scratch_scope for st in sk.schedule.stages]

        incremental.clear_lower_cache()
        schedule_pipelined(lenet_fused, "tvm_autorun", STRATIX10_SX)
        memo = [sk for sk in (v[0] for v in incremental._CACHE.values()
                              if isinstance(v, tuple))
                if isinstance(sk, ScheduledKernel) and sk.recipe is not None]
        before = [state(sk) for sk in memo]
        assert any(sk.name == "k_softmax" for sk in memo)
        autofix_pipelined(lenet_fused, STRATIX10_SX)
        assert [state(sk) for sk in memo] == before


class TestNetworkDispatch:
    def test_lenet_goes_pipelined(self):
        r = autofix_network("lenet5", STRATIX10_SX)
        assert r.mode == "pipelined" and r.clean

    def test_mobilenet_goes_folded_and_blocks_honestly(self):
        r = autofix_network("mobilenet_v1", ARRIA10)
        assert r.mode == "folded"
        assert r.status in ("clean", "stuck")
        if r.status == "stuck":
            assert r.stuck_reason == "blocked"
            assert all(b.reason for b in r.blocked)
        assert r.roundtrip_ok is True

    def test_unknown_network_rejected(self):
        with pytest.raises(ReproError, match="unknown network"):
            autofix_network("vgg99", STRATIX10_SX)


class TestRecipeFixesHook:
    def test_plan_recipe_fixes_preserves_tiling_identity(self, mobilenet_fused):
        base = dataclasses.replace(
            default_folded_config("mobilenet_v1", STRATIX10_SX),
            pin_unit_stride=False,
        )
        fixed, changed = plan_recipe_fixes(mobilenet_fused, STRATIX10_SX, base)
        assert changed
        # recipe-level only: the swept coordinates never move
        assert fixed.conv_tilings == base.conv_tilings
        assert fixed.dense_unroll == base.dense_unroll

    def test_sweep_counts_autofixed_points(self, mobilenet_fused):
        base = dataclasses.replace(
            default_folded_config("mobilenet_v1", STRATIX10_SX),
            pin_unit_stride=False,
        )
        summary = sweep_conv1x1(
            mobilenet_fused, STRATIX10_SX,
            w2vec_options=(7,), c2vec_options=(4,), c1vec_options=(4, 8),
            base_config=base, autofix=True,
        )
        assert summary.fixed_static == len(summary.points) == 2
        assert all(p.fixed for p in summary.points)
        assert "autofixed" in summary.format()
        assert summary.to_dict()["fixed_static"] == 2

    def test_sweep_without_autofix_counts_zero(self, mobilenet_fused):
        summary = sweep_conv1x1(
            mobilenet_fused, STRATIX10_SX,
            w2vec_options=(7,), c2vec_options=(4,), c1vec_options=(4,),
        )
        assert summary.fixed_static == 0
        assert not any(p.fixed for p in summary.points)


class TestCLI:
    def test_clean_build_exits_zero(self):
        buf = io.StringIO()
        assert autofix_deployment("lenet5:S10SX", out=buf) == 0
        text = buf.getvalue()
        assert "clean" in text and "(pipelined)" in text

    def test_blocked_build_exits_zero(self):
        # provably stuck counts as converged: the report is the deliverable
        buf = io.StringIO()
        assert autofix_deployment("resnet18:A10", out=buf) == 0

    def test_json_output(self):
        buf = io.StringIO()
        rc = autofix_deployment("mobilenet_v1:S10MX", out=buf, as_json=True)
        d = json.loads(buf.getvalue())
        assert rc == 0
        assert d["status"] in ("clean", "stuck")
        assert "recipes" in d and "roundtrip_ok" in d

    def test_bad_specs_exit_two(self):
        assert autofix_deployment("nope:S10SX", out=io.StringIO()) == 2
        assert autofix_deployment("lenet5:BOGUS", out=io.StringIO()) == 2
