"""The candidate-search core and the strategies over it (sweep, ascent)."""

import multiprocessing
import os

import pytest

from repro.device.boards import ARRIA10
from repro.errors import AOCError, ReproError
from repro.flow import (
    FoldedConfig,
    autotune_folded,
    default_folded_config,
    sweep_conv1x1,
)
from repro.flow import incremental, search
from repro.flow.incremental import clear_lower_cache
from repro.flow.search import evaluate, group_extents
from repro.flow.stages import MODELS, folded_flow
from repro.pipeline import Pipeline
from repro.pipeline.cache import CachedFailure, CompileCache, DiskBackend
from repro.relay import fuse_operators
from repro.schedule import recipe
from repro.topi import ConvTiling
from repro.verify.dominance import profile_conv_tiling
from repro.verify.equiv import clear_equiv_cache


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


def _store_and_report(task, cache):
    cache.store(f"task-{task}", task * 10)
    return task, os.getpid()


class TestForkMap:
    @pytest.mark.parametrize("cpus, tasks, started", [
        (2, [0, 1, 2, 3], 2),  # capped at the affinity mask
        (8, [5], 1),           # capped at the task count
    ])
    def test_pool_size_is_capped(self, monkeypatch, cpus, tasks, started):
        """Four workers asked for start no more processes than usable
        CPUs or tasks; results stay in task order and every worker's
        cache entry reaches the caller's cache."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        fork = multiprocessing.get_context("fork")
        pool_sizes = []

        class SpyContext:
            def Pool(self, processes, **kwargs):
                pool_sizes.append(processes)
                return fork.Pool(processes, **kwargs)

        monkeypatch.setattr(search.multiprocessing, "get_context",
                            lambda method: SpyContext())
        cache = CompileCache()
        results, _, _ = search.fork_map(_store_and_report, tasks, 4, cache)
        assert pool_sizes == [started]
        assert [task for task, _ in results] == tasks
        assert len({pid for _, pid in results}) <= started
        assert [cache.lookup(f"task-{t}") for t in tasks] == [
            (True, t * 10) for t in tasks
        ]


def _entry(value):
    """What a compile-cache value says: a replayed failure, or the
    synthesized design's kernels, resources and clock."""
    if isinstance(value, CachedFailure):
        return value
    return (value.program.name, [k.name for k in value.program.kernels],
            value.board.name, value.total, value.fmax_mhz)


class TestPoolCache:
    GRID = dict(c2vec_options=(8, 16, 32), c1vec_options=(4, 8))

    def test_pool_hands_the_callers_cache_the_serial_entries(self, mobilenet):
        """Without a disk cache, the workers return what they stored and
        the caller's cache holds the serial sweep's keys, in the same
        order, with the same designs and failures."""
        caches = {workers: CompileCache() for workers in (1, 2)}
        for workers, cache in caches.items():
            sweep_conv1x1(mobilenet, ARRIA10, cache=cache, workers=workers,
                          **self.GRID)
        serial, pooled = (c.backends[0]._store for c in caches.values())
        assert len(serial) == 6
        assert list(pooled) == list(serial)
        assert [_entry(v) for v in pooled.values()] == \
            [_entry(v) for v in serial.values()]

    def test_disk_cache_is_shared_with_the_workers(self, mobilenet, tmp_path):
        serial = CompileCache()
        sweep_conv1x1(mobilenet, ARRIA10, cache=serial, workers=1,
                      **self.GRID)
        pooled = CompileCache(disk_dir=tmp_path)
        sweep_conv1x1(mobilenet, ARRIA10, cache=pooled, workers=2,
                      **self.GRID)
        disk = DiskBackend(tmp_path)
        assert sorted(p.stem for p in tmp_path.glob("*.pkl")) == \
            sorted(serial.backends[0]._store)
        assert {k: _entry(disk.get(k)) for k in serial.backends[0]._store} == \
            {k: _entry(v) for k, v in serial.backends[0]._store.items()}


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

    def test_each_lower_key_is_computed_once(self, mobilenet, monkeypatch):
        # the lower stage and the equivalence certifier key on the same
        # fingerprint: one computation per recipe-backed kernel of a build
        # (prebuilt softmax has none) and per dominance profile, which
        # lowers the group kernel under the build's name
        clear_lower_cache()
        clear_equiv_cache()
        calls = []
        key = incremental.kernel_lower_key
        monkeypatch.setattr(incremental, "kernel_lower_key",
                            lambda sk: calls.append(sk.name) or key(sk))
        s = sweep_conv1x1(
            mobilenet, ARRIA10, cache=CompileCache(), prune=True,
            w2vec_options=(1, 7), c2vec_options=(4, 8, 16, 32),
            c1vec_options=(4, 8, 16),
        )
        built = sum(1 for p in s.points if not p.pruned)
        assert (len(s.points), built) == (24, 16)
        assert len(calls) == 152  # 16 builds x 8 kernels + 24 profiles
        assert len(set(calls)) == 8


class TestProfileDescribesTheBuild:
    GROUP = ("conv", 1, 1)
    KERNEL = "k_conv_1_1_True_relu6_False_False"
    TILING = ConvTiling(w2vec=7, c2vec=8, c1vec=4)

    def _config(self, delta):
        config = default_folded_config("mobilenet_v1", ARRIA10).copy()
        config.pin_unit_stride = False
        if delta:
            config.recipe_deltas[self.KERNEL] = recipe().pin_unit_stride()
        return config

    def test_profile_lowers_the_kept_builds_kernel(self, mobilenet,
                                                   monkeypatch):
        """With a recipe delta on the 1x1 group kernel, the dominance
        profile lowers the build's own kernel (same lower key), and the
        build's lower stage replays it as a hit."""
        config = self._config(delta=True)
        lowered = []
        lower_kernel = incremental.lower_kernel
        monkeypatch.setattr(
            incremental, "lower_kernel",
            lambda sk: lowered.append((sk, lower_kernel(sk))) or lowered[-1][1],
        )
        clear_lower_cache()
        profile = profile_conv_tiling(mobilenet, self.GROUP, self.TILING,
                                      config=config)
        assert profile != profile_conv_tiling(
            mobilenet, self.GROUP, self.TILING, config=self._config(False))
        (profiled, kernel), _ = lowered
        assert profiled.name == self.KERNEL
        assert profiled.recipe.steps[-1].op == "pin_unit_stride"

        config.conv_tilings[self.GROUP] = self.TILING
        flow = folded_flow("mobilenet_v1", ARRIA10, config, cache=False)
        names = [s.name for s in flow.stages]
        result = Pipeline(flow.name, flow.stages[: names.index("lower") + 1]
                          ).run(seed={"graph": mobilenet.graph,
                                      "fused": mobilenet})
        (built,) = [sk for sk in result.value("schedule").kernels
                    if sk.name == self.KERNEL]
        assert built.lower_key == profiled.lower_key
        assert result.value("program").kernel(self.KERNEL) is kernel
        # the other recipe kernels miss; softmax is looked up when scheduled
        counters = result.trace.stage("lower").counters
        assert (counters["lower_hits"], counters["lower_misses"],
                counters["lower_uncached"]) == (1, 7, 0)


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
