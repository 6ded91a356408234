"""The candidate-search core and the strategies over it (sweep, ascent)."""

import pytest

from repro.device.boards import ARRIA10
from repro.errors import AOCError, ReproError
from repro.flow import (
    FoldedConfig,
    autotune_folded,
    default_folded_config,
    sweep_conv1x1,
)
from repro.flow.search import evaluate, group_extents
from repro.flow.stages import MODELS, folded_flow
from repro.pipeline.cache import CompileCache
from repro.relay import fuse_operators
from repro.topi import ConvTiling


@pytest.fixture(scope="module")
def mobilenet():
    return fuse_operators(MODELS["mobilenet_v1"]())


@pytest.fixture(scope="module")
def resnet18():
    return fuse_operators(MODELS["resnet18"]())


def _tiling(t):
    return (t.w2vec, t.c2vec, t.c1vec)


class TestEvaluate:
    def test_fit_failure_keeps_certificate_counters(self, mobilenet):
        # the naive MobileNet overflows the Arria 10 past the verify stage
        verdict = evaluate(mobilenet, ARRIA10, FoldedConfig(naive=True),
                           cache=False)
        assert (verdict.fits, verdict.routed, verdict.fps) == (False, True, None)
        assert verdict.fail_reason.startswith("FitError: ")
        assert verdict.certified > 0
        assert verdict.cert_dynamic_runs == 0


class TestGroupExtents:
    def test_groups_are_kind_field_stride(self, resnet18):
        ext = group_extents(resnet18)
        assert ("conv", 1, 1) not in ext  # only stride-2 downsamples
        assert ("conv", 1, 2) in ext
        for entry in ext.values():
            assert len(entry["w2"]) == len(entry["c2"]) == len(entry["c1"])


class TestSweepStrategy:
    def test_pruned_sweep_matches_thesis_grid(self, mobilenet):
        s = sweep_conv1x1(mobilenet, ARRIA10, cache=CompileCache(), prune=True)
        assert s.to_dict() == {
            "points": 12, "feasible": 6, "failed": 6, "pruned_static": 6,
            "fixed_static": 0, "synthesized": 6, "cache_hits": 0,
            "cache_misses": 6, "certified_kernels": 48,
            "uncertified_kernels": 6, "cert_fallbacks": 0,
            "fail_reasons": {"pruned": 6},
        }
        assert _tiling(s.best.tiling) == (7, 16, 4)
        assert s.best.fps == 15.783382212005137

    def test_candidates_follow_the_swept_group(self, mobilenet):
        # every factor divides the ('conv', 1, 1) layers' extents
        s = sweep_conv1x1(
            mobilenet, ARRIA10, cache=False, prune=True,
            w2vec_options=(1, 7), c2vec_options=(4, 8, 16, 32),
            c1vec_options=(4, 8, 16),
        )
        assert [_tiling(p.tiling) for p in s.points] == [
            (w2, c2, c1) for w2 in (1, 7) for c2 in (4, 8, 16, 32)
            for c1 in (4, 8, 16)
        ]

    def test_network_without_the_group_raises(self, resnet18):
        with pytest.raises(ReproError, match=r"\('conv', 1, 1\)"):
            sweep_conv1x1(resnet18, ARRIA10, cache=False)

    def test_naive_base_reaches_the_build(self, mobilenet, monkeypatch):
        seen = []

        def spy(network, board, config, *args, **kwargs):
            seen.append(config)
            return folded_flow(network, board, config, *args, **kwargs)

        monkeypatch.setattr("repro.flow.search.folded_flow", spy)
        naive = default_folded_config("mobilenet_v1", ARRIA10).copy()
        naive.naive = True
        sweep_conv1x1(mobilenet, ARRIA10, cache=False, base_config=naive,
                      c2vec_options=(8,), c1vec_options=(4,))
        (built,) = seen
        direct = naive.copy()
        direct.conv_tilings[("conv", 1, 1)] = ConvTiling(7, 8, 4)

        def codegen_fingerprint(config):
            flow = folded_flow("mobilenet_v1", ARRIA10, config, cache=False)
            try:
                trace = flow.run(
                    seed={"graph": mobilenet.graph, "fused": mobilenet}
                ).trace
            except AOCError as e:
                trace = e.diagnostic.trace
            return trace.stage("codegen").fingerprint

        assert built.naive
        assert codegen_fingerprint(built) == codegen_fingerprint(direct)

    def test_pool_matches_serial(self, mobilenet):
        grid = dict(c2vec_options=(8, 16), c1vec_options=(4, 8))
        serial = sweep_conv1x1(mobilenet, ARRIA10, cache=CompileCache(),
                               workers=1, **grid)
        pooled = sweep_conv1x1(mobilenet, ARRIA10, cache=CompileCache(),
                               workers=2, **grid)
        assert pooled.points == serial.points
        assert pooled.to_dict() == serial.to_dict()


class TestAscentStrategy:
    @pytest.mark.parametrize("prune, evaluations, failed, pruned", [
        (False, 60, 4, 0),
        (True, 34, 0, 26),
    ])
    def test_pinned_outcome(self, mobilenet, prune, evaluations, failed,
                            pruned):
        r = autotune_folded(mobilenet, ARRIA10, max_rounds=2,
                            cache=CompileCache(max_entries=512), prune=prune)
        assert {g: _tiling(t) for g, t in r.config.conv_tilings.items()} == {
            ("conv", 1, 1): (7, 8, 8), ("conv", 3, 2): (14, 1, 1),
            ("dw", 3, 1): (7, 1, 1), ("dw", 3, 2): (7, 1, 1),
        }
        assert r.fps == 14.86685527020583
        assert len(r.history) == 18
        assert [r.certified, r.cert_unknown, r.cert_uncertified,
                r.cert_dynamic_runs] == [8, 0, 1, 0]
        assert (r.evaluations, r.failed_points, r.pruned_static) == (
            evaluations, failed, pruned
        )
