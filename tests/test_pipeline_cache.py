"""Compile-cache coverage: hits, key sensitivity, disk persistence."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.aoc.constants import DEFAULT_CONSTANTS
from repro.aoc.report import area_row
from repro.device.boards import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.errors import FitError
from repro.flow import (
    autotune_folded,
    build_folded,
    default_folded_config,
    deploy_folded,
    deploy_pipelined,
    sweep_conv1x1,
)
from repro.flow.deploy import MOBILENET_1X1_TILINGS
from repro.flow.search import fork_map
from repro.ir import Var
from repro.ir.expr import sym
from repro.ir.functor import StmtVisitor
from repro.models.twins import TWINS
from repro.pipeline import CachedFailure, CompileCache, DiskBackend, MemoryBackend
from repro.relay import fuse_operators, init_params
from repro.models import mobilenet_v1
from repro.runtime.executor import run_folded_functional
from repro.topi import ConvTiling

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestCacheHit:
    def test_second_deploy_hits(self):
        cache = CompileCache()
        d1 = deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        d2 = deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        assert d1.trace.stage("synthesize").status == "ok"
        assert d1.trace.stage("synthesize").cache == "miss"
        assert d2.trace.stage("synthesize").status == "cached"
        assert d2.trace.stage("synthesize").cache == "hit"
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_hit_equal_bitstream_and_logits(self):
        cache = CompileCache()
        d1 = deploy_folded("mobilenet_v1", STRATIX10_SX, cache=cache)
        d2 = deploy_folded("mobilenet_v1", STRATIX10_SX, cache=cache)
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert area_row(d1.bitstream) == area_row(d2.bitstream)
        assert d1.fps() == pytest.approx(d2.fps())
        x = np.random.default_rng(0).normal(size=(3, 224, 224)).astype("float32")
        np.testing.assert_array_equal(d1.forward(x), d2.forward(x))

    def test_cached_bitstream_works_with_fresh_plan(self):
        # a replayed bitstream must pair with invocation bindings built
        # by a later build, which binds the same interned symbolic vars
        cache = CompileCache()
        deploy_folded("mobilenet_v1", STRATIX10_SX, cache=cache)
        d2 = deploy_folded("mobilenet_v1", STRATIX10_SX, cache=cache)
        assert d2.per_op()  # exercises symbolic bindings on every kernel


class TestCacheKeySensitivity:
    def _miss_count(self, cache):
        return cache.stats()["misses"]

    def test_tiling_change_misses(self):
        cache = CompileCache()
        base = default_folded_config("mobilenet_v1", STRATIX10_SX)
        deploy_folded("mobilenet_v1", STRATIX10_SX, config=base, cache=cache)
        other = dataclasses.replace(
            base,
            conv_tilings={
                **base.conv_tilings,
                ("conv", 1, 1): ConvTiling(w2vec=7, c2vec=8, c1vec=4),
            },
        )
        deploy_folded("mobilenet_v1", STRATIX10_SX, config=other, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}

    def test_board_change_misses(self):
        cache = CompileCache()
        deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        deploy_pipelined("lenet5", STRATIX10_MX, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}

    def test_board_resource_change_misses(self):
        # same board name, fewer DSPs: replaying the S10SX bitstream would
        # report the S10SX's DSP share
        cache = CompileCache()
        deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        board = dataclasses.replace(STRATIX10_SX, dsps=1440)
        dep = deploy_pipelined("lenet5", board, cache=cache)
        assert dep.trace.stage("synthesize").cache == "miss"
        assert cache.stats() == {"hits": 0, "misses": 2}
        cold = deploy_pipelined("lenet5", board, cache=False)
        assert (dep.bitstream.utilization()["dsp"]
                == cold.bitstream.utilization()["dsp"])

    def test_constants_change_misses(self):
        cache = CompileCache()
        deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        tweaked = dataclasses.replace(
            DEFAULT_CONSTANTS, loop_fill_cycles=DEFAULT_CONSTANTS.loop_fill_cycles + 1
        )
        deploy_pipelined("lenet5", STRATIX10_SX, constants=tweaked, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}

    def test_model_change_misses(self):
        cache = CompileCache()
        deploy_folded("mobilenet_v1", STRATIX10_SX, cache=cache)
        deploy_folded("resnet18", STRATIX10_SX, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}

    def test_schedule_level_change_misses(self):
        cache = CompileCache()
        deploy_pipelined("lenet5", STRATIX10_SX, level="channels", cache=cache)
        deploy_pipelined("lenet5", STRATIX10_SX, level="tvm_autorun", cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}


class TestFailureCaching:
    def test_fit_error_replayed_from_cache(self):
        cache = CompileCache()
        with pytest.raises(FitError):
            deploy_folded("mobilenet_v1", ARRIA10, naive=True, cache=cache)
        with pytest.raises(FitError):
            deploy_folded("mobilenet_v1", ARRIA10, naive=True, cache=cache)
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_cached_failure_entry_shape(self):
        backend = MemoryBackend()
        backend.put("k", CachedFailure("FitError", "too big"))
        entry = backend.get("k")
        assert isinstance(entry, CachedFailure)
        assert entry.kind == "FitError"


class TestBackends:
    def test_memory_lru_eviction(self):
        backend = MemoryBackend(max_entries=2)
        backend.put("a", 1)
        backend.put("b", 2)
        backend.get("a")  # refresh a; b becomes LRU
        backend.put("c", 3)
        assert backend.get("b") is backend.get("missing")  # evicted
        assert backend.get("a") == 1
        assert backend.get("c") == 3

    def test_disk_backend_within_process(self, tmp_path):
        cache = CompileCache(disk_dir=tmp_path)
        d1 = deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        # memory-only front means a second lookup comes from memory, but
        # a *fresh* cache over the same dir must hit the disk entry
        fresh = CompileCache(disk_dir=tmp_path)
        d2 = deploy_pipelined("lenet5", STRATIX10_SX, cache=fresh)
        assert fresh.stats() == {"hits": 1, "misses": 0}
        assert area_row(d1.bitstream) == area_row(d2.bitstream)

    def test_disk_backend_survives_fresh_process(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.device.boards import STRATIX10_SX\n"
            "from repro.flow import deploy_pipelined\n"
            "from repro.pipeline import CompileCache\n"
            "c = CompileCache(disk_dir=sys.argv[1])\n"
            "d = deploy_pipelined('lenet5', STRATIX10_SX, cache=c)\n"
            "s = c.stats()\n"
            "print(s['hits'], s['misses'], d.trace.stage('synthesize').cache)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.append(proc.stdout.split())
        assert outs[0] == ["0", "1", "miss"]
        assert outs[1] == ["1", "0", "hit"]

    def test_corrupt_disk_entry_is_miss(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("k", {"x": 1})
        (tmp_path / "k.pkl").write_bytes(b"not a pickle")
        sentinel = backend.get("nope")
        assert backend.get("k") is sentinel
        assert not (tmp_path / "k.pkl").exists()  # dropped


def _twin_build(task=None, cache=None):
    fused = fuse_operators(TWINS["mobilenet_v1"]())
    config = default_folded_config("mobilenet_v1", STRATIX10_SX)
    return build_folded(fused, config, STRATIX10_SX)


def _symbols(program):
    return {v for k in program.kernels for v in k.scalar_args}


def _loop_vars(program):
    found = []

    class _Loops(StmtVisitor):
        def visit_For(self, f):
            found.append(f.loop_var)
            self.generic_visit_stmt(f)

    for k in program.kernels:
        _Loops().visit_stmt(k.body)
    return found


class TestInternedSymbols:
    """Symbolic vars come back as the process's own objects from a pickle,
    so a replayed program runs under bindings built in this process."""

    def _forward(self, program, plan):
        graph = TWINS["mobilenet_v1"]()
        x = np.random.default_rng(3).standard_normal(
            graph.input.out_shape).astype(np.float32)
        fused = fuse_operators(graph)
        return run_folded_functional(program, plan, fused, x,
                                     init_params(graph, seed=0))

    def _assert_interned_replay(self, got, prog, plan):
        syms = _symbols(got)
        assert syms and all(v is sym(v.name) for v in syms)
        assert syms == _symbols(prog)
        assert (self._forward(got, plan).tobytes()
                == self._forward(prog, plan).tobytes())

    def test_disk_round_trip(self, tmp_path):
        prog, plan = _twin_build()
        backend = DiskBackend(tmp_path)
        backend.put("prog", prog)
        got = backend.get("prog")
        self._assert_interned_replay(got, prog, plan)
        # loop vars are not interned: each unpickles to a fresh object
        before, after = _loop_vars(prog), _loop_vars(got)
        assert len(after) == len(before) > 0
        assert not {id(v) for v in before} & {id(v) for v in after}

    def test_fork_map_worker_result(self):
        (got, _), = fork_map(_twin_build, [0], workers=1, cache=None)[0]
        prog, plan = _twin_build()
        self._assert_interned_replay(got, prog, plan)

    def test_loop_var_unpickles_fresh(self):
        assert pickle.loads(pickle.dumps(sym("n_c"))) is sym("n_c")
        # a loop var, even one named like a symbol, stays a fresh object
        for v in (Var("i"), Var("n_c")):
            w = pickle.loads(pickle.dumps(v))
            assert w is not v and w is not sym(v.name)
            assert (w.name, w.dtype) == (v.name, v.dtype)


@pytest.fixture(scope="module")
def mobilenet_fused():
    return fuse_operators(mobilenet_v1())


class TestSweepCaching:
    def test_sweep_rerun_all_hits(self, mobilenet_fused):
        cache = CompileCache()
        kw = dict(
            w2vec_options=(7,), c2vec_options=(8, 16), c1vec_options=(4,),
            cache=cache,
        )
        s1 = sweep_conv1x1(mobilenet_fused, STRATIX10_SX, **kw)
        assert s1.cache_misses == len(s1.points) > 0
        assert s1.cache_hits == 0
        s2 = sweep_conv1x1(mobilenet_fused, STRATIX10_SX, **kw)
        assert s2.cache_misses == 0
        assert s2.cache_hits == len(s2.points)
        assert [p.tiling for p in s2.points] == [p.tiling for p in s1.points]
        assert s1.best.tiling == MOBILENET_1X1_TILINGS["S10SX"]

    def test_autotune_reports_cache_stats(self, mobilenet_fused):
        cache = CompileCache(max_entries=256)
        start = default_folded_config("mobilenet_v1", STRATIX10_SX)
        r1 = autotune_folded(
            mobilenet_fused, STRATIX10_SX, start=start, max_rounds=1, cache=cache
        )
        assert r1.cache_hits + r1.cache_misses > 0
        r2 = autotune_folded(
            mobilenet_fused, STRATIX10_SX, start=start, max_rounds=1, cache=cache
        )
        assert r2.cache_misses == 0
        assert r2.cache_hits == r1.cache_hits + r1.cache_misses
        assert r2.fps == pytest.approx(r1.fps)
