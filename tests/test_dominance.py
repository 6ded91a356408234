"""Dominance proofs between DSE points and the static sweep pruner."""

import pytest

from repro.device.boards import ARRIA10, STRATIX10_SX
from repro.errors import AOCError
from repro.flow.dse import choose_tiling, evaluate_tiling, sweep_conv1x1
from repro.flow.stages import MODELS
from repro.relay import fuse_operators
from repro.topi import ConvTiling
from repro.verify.dominance import (
    StaticProfile,
    dominates,
    group_members,
    infeasible_reason,
    plan_conv_sweep,
    profile_conv_tiling,
)


def _profile(**overrides):
    base = dict(
        tiling=ConvTiling(), max_ii=1, access_width_elems=8, replicas=4,
        aluts=1000, ffs=2000, rams=10, dsps=64, max_kernel_dsps=64,
        cycles=(100, 200), traffic=(4096, 8192),
    )
    base.update(overrides)
    return StaticProfile(**base)


@pytest.fixture(scope="module")
def mobilenet():
    return fuse_operators(MODELS["mobilenet_v1"]())


class TestDominatesPartialOrder:
    def test_reflexive(self):
        p = _profile()
        assert dominates(p, p)

    def test_strictly_worse_in_one_dimension(self):
        better = _profile()
        worse = _profile(dsps=128)
        assert dominates(better, worse)
        assert not dominates(worse, better)

    def test_incomparable_points(self):
        a = _profile(dsps=32, cycles=(400, 200))
        b = _profile(dsps=128, cycles=(100, 200))
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_any_single_regression_breaks_dominance(self):
        better = _profile()
        for field, worse_value in [
            ("max_ii", 8), ("access_width_elems", 64), ("replicas", 16),
            ("aluts", 9999), ("ffs", 9999), ("rams", 99), ("dsps", 999),
            ("max_kernel_dsps", 999), ("cycles", (100, 999)),
            ("traffic", (4096, 99999)),
        ]:
            worse = _profile(**{field: worse_value})
            assert dominates(better, worse), field
            assert not dominates(worse, better), field

    def test_binding_count_mismatch_is_never_dominated(self):
        a = _profile(cycles=(100,), traffic=(4096,))
        b = _profile()
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_transitive_on_chain(self):
        a = _profile(dsps=32)
        b = _profile(dsps=64)
        c = _profile(dsps=128)
        assert dominates(a, b) and dominates(b, c) and dominates(a, c)


class TestStaticProfiles:
    def test_profile_covers_every_group_member(self, mobilenet):
        members = group_members(mobilenet, ("conv", 1, 1))
        prof = profile_conv_tiling(mobilenet, ("conv", 1, 1), ConvTiling())
        assert len(members) > 1
        assert len(prof.cycles) == len(members)
        assert len(prof.traffic) == len(members)

    def test_wider_tiling_needs_more_dsps(self, mobilenet):
        narrow = profile_conv_tiling(
            mobilenet, ("conv", 1, 1), ConvTiling(w2vec=7, c2vec=4, c1vec=4)
        )
        wide = profile_conv_tiling(
            mobilenet, ("conv", 1, 1), ConvTiling(w2vec=7, c2vec=16, c1vec=16)
        )
        assert wide.dsps > narrow.dsps

    def test_empty_group_raises(self, mobilenet):
        with pytest.raises(AOCError):
            profile_conv_tiling(mobilenet, ("conv", 9, 9), ConvTiling())

    def test_oversized_profile_is_infeasible_on_a10(self, mobilenet):
        huge = profile_conv_tiling(
            mobilenet, ("conv", 1, 1), ConvTiling(w2vec=7, c2vec=32, c1vec=16)
        )
        reason = infeasible_reason(huge, ARRIA10)
        assert reason is not None and "DSP" in reason

    def test_modest_profile_is_feasible_on_s10(self, mobilenet):
        prof = profile_conv_tiling(
            mobilenet, ("conv", 1, 1), ConvTiling(w2vec=7, c2vec=4, c1vec=4)
        )
        assert infeasible_reason(prof, STRATIX10_SX) is None


class TestPlanConvSweep:
    GRID = [
        ConvTiling(w2vec=7, c2vec=c2, c1vec=c1)
        for c2 in (4, 8, 16, 32)
        for c1 in (4, 8, 16)
    ]

    def test_prunes_some_but_not_all_on_a10(self, mobilenet):
        decisions = plan_conv_sweep(
            mobilenet, ("conv", 1, 1), self.GRID, ARRIA10
        )
        pruned = [d for d in decisions if d.pruned]
        kept = [d for d in decisions if not d.pruned]
        assert pruned and kept
        assert all(d.reason for d in pruned)

    def test_dominated_points_name_an_earlier_kept_point(self, mobilenet):
        decisions = plan_conv_sweep(
            mobilenet, ("conv", 1, 1), self.GRID, ARRIA10
        )
        kept_so_far = []
        for d in decisions:
            if d.dominated_by is not None:
                assert d.dominated_by in kept_so_far
            if not d.pruned:
                kept_so_far.append(d.tiling)

    def test_pruned_point_is_never_the_argmax(self, mobilenet):
        """The soundness property: synthesize every pruned candidate
        anyway and check none of them beats the kept best."""
        decisions = plan_conv_sweep(
            mobilenet, ("conv", 1, 1), self.GRID, ARRIA10
        )
        points = {
            id(d): evaluate_tiling(mobilenet, ARRIA10, ("conv", 1, 1), d.tiling)
            for d in decisions
        }
        kept_best = choose_tiling(
            [points[id(d)] for d in decisions if not d.pruned]
        )
        overall_best = choose_tiling(list(points.values()))
        assert overall_best.tiling == kept_best.tiling
        for d in decisions:
            p = points[id(d)]
            if d.pruned and p.feasible:
                assert p.fps <= kept_best.fps


class TestSweepWithPruning:
    def test_sweep_prune_skips_synthesis_keeps_best(self, mobilenet):
        unpruned = sweep_conv1x1(mobilenet, ARRIA10, cache=False)
        pruned = sweep_conv1x1(mobilenet, ARRIA10, cache=False, prune=True)
        assert pruned.pruned_static > 0
        assert pruned.synthesized < unpruned.synthesized
        assert pruned.best.tiling == unpruned.best.tiling
        assert len(pruned.points) == len(unpruned.points)

    def test_summary_accounts_for_pruned_points(self, mobilenet):
        summary = sweep_conv1x1(mobilenet, ARRIA10, cache=False, prune=True)
        d = summary.to_dict()
        assert d["pruned_static"] + d["synthesized"] == d["points"]
        assert d["fail_reasons"].get("pruned") == d["pruned_static"]
        assert list(d["fail_reasons"]) == sorted(d["fail_reasons"])
        assert "pruned statically" in summary.format()


class TestAutotunePrune:
    def test_autotune_skips_proven_trials(self, mobilenet):
        from repro.flow.autotune import autotune_folded

        plain = autotune_folded(mobilenet, ARRIA10, max_rounds=1, cache=False)
        pruned = autotune_folded(
            mobilenet, ARRIA10, max_rounds=1, cache=False, prune=True
        )
        assert pruned.pruned_static == len(pruned.pruned) > 0
        assert pruned.evaluations < plain.evaluations
        # pruning skips losers, so the ascent lands at least as high
        assert pruned.fps >= plain.fps * 0.999
        for gid, tiling, reason in pruned.pruned:
            assert reason.startswith(("infeasible:", "dominated by w2vec="))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
