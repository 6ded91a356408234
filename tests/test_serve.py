"""Tests for the batched multi-replica serving layer (repro.serve)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.device import ARRIA10, STRATIX10_SX
from repro.errors import ReproError
from repro.flow import deploy_folded, deploy_pipelined
from repro.flow.stages import MODELS
from repro.perf import tf_cpu_fps
from repro.pipeline import CompileCache
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.resilience.events import log as resilience_log
from repro.resilience.faults import Fault, FaultPlan
from repro.runtime import simulate_batched, simulate_folded
from repro.serve import (
    DynamicBatcher,
    RequestTrace,
    ServeConfig,
    Server,
    cpu_service_us,
    percentile,
    provision_replicas,
    summarize,
)
from repro.serve.replica import LogitsCache, Replica
from repro.serve.request import InferenceRequest, input_fingerprint

LENET_SHAPE = (1, 28, 28)
MOBILENET_SHAPE = (3, 224, 224)


def _req(rid, network="lenet5", t=0.0, shape=LENET_SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    return InferenceRequest(
        rid=rid, network=network, arrival_us=t,
        x=rng.standard_normal(shape).astype(np.float32),
    )


# ---------------------------------------------------------------------------
# DynamicBatcher


class TestBatcher:
    def test_max_batch_one_is_serial(self):
        b = DynamicBatcher(window_us=1000.0, max_batch=1)
        batch = b.add(_req(0), now=0.0)
        assert batch is not None and batch.rids == [0]
        assert len(b) == 0

    def test_cap_closes_batch(self):
        b = DynamicBatcher(window_us=1e9, max_batch=3)
        assert b.add(_req(0, t=0.0), 0.0) is None
        assert b.add(_req(1, t=1.0), 1.0) is None
        batch = b.add(_req(2, t=2.0), 2.0)
        assert batch is not None and batch.rids == [0, 1, 2]
        assert batch.closed_us == 2.0

    def test_window_deadline_tracks_oldest_request(self):
        b = DynamicBatcher(window_us=500.0, max_batch=8)
        b.add(_req(0, t=100.0), 100.0)
        b.add(_req(1, t=300.0), 300.0)
        key = ("lenet5", LENET_SHAPE)
        assert b.deadline(key) == 600.0  # oldest arrival + window
        batch = b.flush(key, now=600.0)
        assert batch.rids == [0, 1]
        assert b.deadline(key) is None

    def test_incompatible_requests_do_not_coalesce(self):
        b = DynamicBatcher(window_us=1e9, max_batch=8)
        b.add(_req(0, network="lenet5"), 0.0)
        b.add(_req(1, network="mobilenet_v1", shape=MOBILENET_SHAPE), 0.0)
        assert len(b.pending_keys()) == 2

    def test_flush_all_drains_and_ids_are_sequential(self):
        b = DynamicBatcher(window_us=1e9, max_batch=8)
        b.add(_req(0, network="lenet5"), 0.0)
        b.add(_req(1, network="mobilenet_v1", shape=MOBILENET_SHAPE), 0.0)
        batches = b.flush_all(now=50.0)
        assert [x.batch_id for x in batches] == [0, 1]
        assert len(b) == 0

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch=0)


# ---------------------------------------------------------------------------
# metrics helpers


class TestMetrics:
    def test_percentile_nearest_rank(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == 50
        assert percentile(data, 95) == 95
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100
        assert percentile(data, 0) == 1
        assert percentile([], 50) == 0.0

    def test_summarize_keys_and_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert set(s) == {"mean", "p50", "p95", "p99", "max"}
        assert s["mean"] == 2.5
        assert s["max"] == 4.0
        assert summarize([])["p99"] == 0.0


# ---------------------------------------------------------------------------
# request traces


class TestRequestTrace:
    def test_poisson_deterministic_per_seed(self):
        a = RequestTrace.poisson("lenet5", 16, 100.0, LENET_SHAPE, seed=5)
        b = RequestTrace.poisson("lenet5", 16, 100.0, LENET_SHAPE, seed=5)
        c = RequestTrace.poisson("lenet5", 16, 100.0, LENET_SHAPE, seed=6)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_uniform_arrivals(self):
        t = RequestTrace.uniform("lenet5", 4, 250.0, LENET_SHAPE)
        assert [r.arrival_us for r in t] == [0.0, 250.0, 500.0, 750.0]
        assert t.duration_us == 750.0

    def test_distinct_inputs_cycle(self):
        t = RequestTrace.uniform(
            "lenet5", 6, 1.0, LENET_SHAPE, distinct_inputs=2
        )
        xs = [r.x for r in t]
        assert xs[0] is xs[2] is xs[4]
        assert xs[1] is xs[3] is xs[5]
        assert not np.array_equal(xs[0], xs[1])

    def test_merged_renumbers_by_arrival(self):
        a = RequestTrace.uniform("lenet5", 2, 1000.0, LENET_SHAPE)
        b = RequestTrace.uniform("mobilenet_v1", 2, 700.0, MOBILENET_SHAPE)
        m = a.merged(b)
        assert [r.rid for r in m] == [0, 1, 2, 3]
        arrivals = [r.arrival_us for r in m]
        assert arrivals == sorted(arrivals)

    def test_describe(self):
        t = RequestTrace.burst("lenet5", 3, 10.0, LENET_SHAPE)
        d = t.describe()
        assert d["requests"] == 3 and d["networks"] == ["lenet5"]


# ---------------------------------------------------------------------------
# batched runtime model


class TestSimulateBatched:
    def test_folded_batch_one_matches_single_image(self):
        d = deploy_folded("mobilenet_v1", STRATIX10_SX)
        single = simulate_folded(d.bitstream, d.plan)
        batched = simulate_batched(d.bitstream, d.plan, 1)
        assert batched.time_per_image_us == single.time_per_image_us

    def test_folded_batching_amortizes_host_overhead(self):
        d = deploy_folded("mobilenet_v1", STRATIX10_SX)
        one = simulate_batched(d.bitstream, d.plan, 1)
        eight = simulate_batched(d.bitstream, d.plan, 8)
        assert eight.time_per_image_us < one.time_per_image_us
        assert eight.fps > one.fps

    def test_pipelined_batching_amortizes_pipeline_fill(self):
        d = deploy_pipelined("lenet5", STRATIX10_SX)
        one = simulate_batched(d.bitstream, d.plan, 1, concurrent=True)
        big = simulate_batched(d.bitstream, d.plan, 32, concurrent=True)
        assert big.time_per_image_us < one.time_per_image_us

    def test_run_batch_total_scales_with_batch(self):
        d = deploy_folded("mobilenet_v1", STRATIX10_SX)
        r4 = d.run_batch(4)
        assert r4.time_per_image_us * 4 > 3 * d.run().time_per_image_us

    def test_invalid_batch_raises(self):
        d = deploy_pipelined("lenet5", STRATIX10_SX)
        with pytest.raises(ValueError):
            simulate_batched(d.bitstream, d.plan, 0)


# ---------------------------------------------------------------------------
# replicas + placement


class TestProvisioning:
    def test_replicas_share_compile_cache(self):
        cache = CompileCache()
        reps = provision_replicas("mobilenet_v1", STRATIX10_SX, 4, cache=cache)
        assert [r.bitstream_cache for r in reps] == [
            "miss", "hit", "hit", "hit"
        ]
        assert cache.stats() == {"hits": 3, "misses": 1}

    def test_preferred_rungs(self):
        assert provision_replicas("lenet5", STRATIX10_SX, 1)[0].rung == "pipelined"
        assert provision_replicas("mobilenet_v1", STRATIX10_SX, 1)[0].rung == "folded"

    def test_unbuildable_network_degrades_to_cpu(self):
        cursor = resilience_log().cursor()
        reps = provision_replicas("resnet18", ARRIA10, 1, cache=False)
        assert reps[0].rung == "cpu"
        assert reps[0].deployment is None
        kinds = [e.kind for e in resilience_log().since(cursor)]
        assert "fallback" in kinds

    def test_unknown_network_raises(self):
        with pytest.raises(ReproError):
            provision_replicas("vgg16", STRATIX10_SX, 1)

    def test_cpu_service_time_uses_calibrated_baseline(self):
        assert cpu_service_us("mobilenet_v1") == pytest.approx(
            1e6 / tf_cpu_fps("mobilenet_v1")
        )
        assert cpu_service_us("mobilenet_v1_bn") == cpu_service_us("mobilenet_v1")
        assert cpu_service_us("alexnet") > 0  # no anchors: flat fallback

    def test_replica_batch_service_amortizes(self):
        rep = provision_replicas("mobilenet_v1", STRATIX10_SX, 1)[0]
        assert rep.service_us(8) < 8 * rep.service_us(1)


# ---------------------------------------------------------------------------
# the server


def lenet_server(n_replicas=2, **cfg):
    reps = provision_replicas("lenet5", STRATIX10_SX, n_replicas)
    defaults = dict(window_us=200.0, max_batch=4, max_queue=64)
    defaults.update(cfg)
    return Server(reps, ServeConfig(**defaults))


class TestServer:
    def test_every_request_served_in_rid_order(self):
        trace = RequestTrace.poisson("lenet5", 20, 2000.0, LENET_SHAPE, seed=1)
        result = lenet_server().run(trace)
        assert [r.rid for r in result.responses] == list(range(20))
        assert all(r.status == "ok" for r in result.responses)
        assert result.metrics.completed == 20

    def test_burst_coalesces_into_one_batch(self):
        trace = RequestTrace.burst("lenet5", 4, 0.0, LENET_SHAPE)
        result = lenet_server(max_batch=4).run(trace)
        assert result.metrics.batches == 1
        assert result.metrics.batch_histogram == {4: 1}
        assert {r.batch_id for r in result.responses} == {0}

    def test_window_separates_distant_arrivals(self):
        trace = RequestTrace.uniform("lenet5", 2, 5000.0, LENET_SHAPE)
        result = lenet_server(window_us=200.0, max_batch=8).run(trace)
        assert result.metrics.batches == 2

    def test_close_arrivals_share_a_window(self):
        trace = RequestTrace.uniform("lenet5", 3, 50.0, LENET_SHAPE)
        result = lenet_server(window_us=1000.0, max_batch=8).run(trace)
        assert result.metrics.batches == 1
        assert result.metrics.mean_batch == 3.0

    def test_queue_wait_included_in_latency(self):
        trace = RequestTrace.uniform("lenet5", 3, 50.0, LENET_SHAPE)
        result = lenet_server(window_us=1000.0, max_batch=8).run(trace)
        first = result.responses[0]
        # the batch waited for the window to expire
        assert first.queue_us >= 950.0
        assert first.latency_us == first.queue_us + first.service_us

    def test_logits_match_functional_reference(self):
        trace = RequestTrace.poisson(
            "lenet5", 6, 1000.0, LENET_SHAPE, seed=2, distinct_inputs=3
        )
        result = lenet_server().run(trace)
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        params = init_params(graph, seed=0)
        for resp, req in zip(result.responses, trace):
            expected = run_fused_graph(fused, req.x, params)
            assert np.allclose(resp.logits, expected)

    def test_logits_cache_computes_each_input_once(self):
        trace = RequestTrace.uniform(
            "lenet5", 10, 100.0, LENET_SHAPE, distinct_inputs=2
        )
        server = lenet_server()
        server.run(trace)
        assert server.logits_cache.misses == 2
        assert server.logits_cache.hits == 8

    def test_batched_lookup_counts_like_sequential_lookups(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal(LENET_SHAPE).astype(np.float32)
                   for _ in range(3))
        calls = []

        def compute(xs):
            calls.append(xs.copy())
            return xs.reshape(len(xs), -1)[:, :10] * 2.0

        cache = LogitsCache()
        out = cache.get_batch("lenet5", [a, b, a, a], compute)
        # the repeated input is a hit, as it would be looked up in order
        assert (cache.misses, cache.hits) == (2, 2)
        assert len(calls) == 1
        assert calls[0].tobytes() == np.stack([a, b]).tobytes()
        assert out[0] is out[2] is out[3]
        assert out[1].tobytes() == (b.ravel()[:10] * 2.0).tobytes()
        cache.get_batch("lenet5", [b, c], compute)
        assert (cache.misses, cache.hits) == (3, 3)
        assert calls[1].tobytes() == c[None].tobytes()
        cache.get_batch("lenet5", [c, a], compute)
        assert (cache.misses, cache.hits) == (3, 5) and len(calls) == 2

    def test_one_forward_per_batch_with_a_memo_miss(self, monkeypatch):
        # two batches of four over three inputs: the second is all hits
        trace = RequestTrace.burst("lenet5", 8, 0.0, LENET_SHAPE,
                                   distinct_inputs=3)
        server = lenet_server(max_batch=4)
        forward, sizes = Replica.forward, []

        def counted(self, xs):
            sizes.append(len(xs))
            return forward(self, xs)

        monkeypatch.setattr(Replica, "forward", counted)
        result = server.run(trace)
        assert result.metrics.batches == 2
        assert sizes == [3]
        assert (server.logits_cache.misses, server.logits_cache.hits) == (3, 5)

    def test_buffer_bitflips_match_the_per_image_path(self, monkeypatch):
        """Batched logits probe the ``buffer`` fault site once per miss, in
        request order: the same faults fire on the same inputs, the same
        corrupted logits are served and the memo counts are the same as
        with one lookup, and one single-image forward per miss, per
        request."""
        trace = RequestTrace.poisson("lenet5", 24, 3000.0, LENET_SHAPE,
                                     seed=3, distinct_inputs=12)

        def run():
            server = lenet_server(max_batch=8)
            flips = Fault("buffer", "bitflip", times=4)
            with FaultPlan(flips, seed=5) as plan:
                result = server.run(trace)
            counts = (server.logits_cache.misses, server.logits_cache.hits)
            return plan.fired, result, counts

        def per_image(self, network, xs, compute):
            out = []
            for x in xs:
                key = f"{network}:{input_fingerprint(x)}"
                if key in self._store:
                    self.hits += 1
                else:
                    self.misses += 1
                    self._store[key] = compute(x[None])[0]
                out.append(self._store[key])
            return out

        fired, batched, counts = run()
        monkeypatch.setattr(LogitsCache, "get_batch", per_image)
        per_image_fired, per_image, per_image_counts = run()
        assert len(fired) == 4 and fired == per_image_fired
        assert counts == per_image_counts
        assert batched.fingerprint() == per_image.fingerprint()
        for got, want in zip(batched.responses, per_image.responses):
            assert got.logits.tobytes() == want.logits.tobytes()
        monkeypatch.undo()
        clean = lenet_server(max_batch=8).run(trace)
        corrupted = [
            r.rid for r, c in zip(batched.responses, clean.responses)
            if r.logits.tobytes() != c.logits.tobytes()
        ]
        assert corrupted  # the flips reached the served logits

    def test_compute_logits_off(self):
        trace = RequestTrace.burst("lenet5", 4, 0.0, LENET_SHAPE)
        result = lenet_server(compute_logits=False).run(trace)
        assert all(r.logits is None for r in result.responses)

    def test_unknown_network_in_trace_raises(self):
        trace = RequestTrace.burst("mobilenet_v1", 1, 0.0, MOBILENET_SHAPE)
        with pytest.raises(ReproError):
            lenet_server().run(trace)

    def test_run_is_restartable(self):
        trace = RequestTrace.poisson("lenet5", 12, 3000.0, LENET_SHAPE, seed=4)
        server = lenet_server()
        a = server.run(trace)
        b = server.run(trace)
        assert a.fingerprint() == b.fingerprint()
        assert a.metrics.per_replica[0].images == b.metrics.per_replica[0].images

    def test_utilization_bounded(self):
        trace = RequestTrace.poisson("lenet5", 16, 4000.0, LENET_SHAPE, seed=0)
        result = lenet_server().run(trace)
        for rep in result.metrics.per_replica:
            assert 0.0 <= rep.utilization <= 1.0 + 1e-9

    def test_config_validation(self):
        with pytest.raises(ReproError):
            ServeConfig(overload_policy="drop")
        with pytest.raises(ReproError):
            ServeConfig(max_batch=0)
        with pytest.raises(ReproError):
            Server([])


class TestOverload:
    def test_shed_to_cpu_rung_with_events(self):
        trace = RequestTrace.burst("lenet5", 12, 0.0, LENET_SHAPE,
                                   distinct_inputs=2)
        server = lenet_server(
            n_replicas=1, max_batch=2, max_queue=4, window_us=100.0
        )
        result = server.run(trace)
        shed = [r for r in result.responses if r.status == "shed"]
        assert result.metrics.shed == len(shed) > 0
        assert all(r.rung == "cpu" for r in shed)
        assert {e["kind"] for e in result.events} == {"shed"}
        assert all(e["site"] == "serve" for e in result.events)
        # shed requests still return correct logits
        graph = MODELS["lenet5"]()
        fused = fuse_operators(graph)
        params = init_params(graph, seed=0)
        for resp in shed:
            expected = run_fused_graph(fused, trace.requests[resp.rid].x, params)
            assert np.allclose(resp.logits, expected)

    def test_reject_policy(self):
        trace = RequestTrace.burst("lenet5", 12, 0.0, LENET_SHAPE)
        server = lenet_server(
            n_replicas=1, max_batch=2, max_queue=4, window_us=100.0,
            overload_policy="reject",
        )
        result = server.run(trace)
        rejected = [r for r in result.responses if r.status == "rejected"]
        assert result.metrics.rejected == len(rejected) > 0
        assert all(r.logits is None for r in rejected)
        assert "reject" in {e["kind"] for e in result.events}
        assert result.metrics.completed == 12 - len(rejected)

    def test_peak_queue_depth_respects_bound(self):
        trace = RequestTrace.burst("lenet5", 20, 0.0, LENET_SHAPE)
        result = lenet_server(
            n_replicas=1, max_batch=2, max_queue=5, window_us=100.0
        ).run(trace)
        assert 0 < result.metrics.peak_queue_depth <= 5


class TestDeterminism:
    """Same seed + same trace => identical batches, metrics, logits."""

    def test_identical_runs_from_fresh_pools(self):
        def run_once():
            cache = CompileCache()
            reps = provision_replicas("lenet5", STRATIX10_SX, 3, cache=cache)
            trace = RequestTrace.poisson(
                "lenet5", 24, 3000.0, LENET_SHAPE, seed=11
            )
            cfg = ServeConfig(window_us=300.0, max_batch=4, max_queue=16)
            return Server(reps, cfg).run(trace)

        a, b = run_once(), run_once()
        assert a.fingerprint() == b.fingerprint()
        assert a.batches == b.batches
        assert a.metrics.to_dict() == b.metrics.to_dict()
        for ra, rb in zip(a.responses, b.responses):
            assert ra.replica == rb.replica and ra.batch_id == rb.batch_id
            assert ra.completed_us == rb.completed_us
            assert np.array_equal(ra.logits, rb.logits)

    def test_different_trace_seed_changes_fingerprint(self):
        def run_seed(seed):
            trace = RequestTrace.poisson(
                "lenet5", 24, 3000.0, LENET_SHAPE, seed=seed
            )
            return lenet_server().run(trace)

        assert run_seed(0).fingerprint() != run_seed(1).fingerprint()


class TestServiceMemo:
    """A replica costs each batch size once while no fault plan is
    active; under a plan it runs the timing model on every dispatch, so
    the model's probes fire and the run is the unmemoized one."""

    def test_warm_memo_leaves_a_fault_plans_run_alone(self, monkeypatch):
        from repro.flow.deploy import Deployment

        trace = RequestTrace.poisson("lenet5", 24, 3000.0, LENET_SHAPE, seed=11)

        def crash():
            return FaultPlan(Fault("run_batch", "crash", times=1, param=0.5,
                                   match="replica0"), seed=0)

        warm = lenet_server()
        warm.run(trace)
        memo = [dict(r._service) for r in warm.replicas]
        assert any(memo)
        run_batch, costed = Deployment.run_batch, []

        def counted(self, batch, concurrent=True):
            costed.append(batch)
            return run_batch(self, batch, concurrent)

        monkeypatch.setattr(Deployment, "run_batch", counted)
        with crash() as plan:
            got = warm.run(trace)
        assert [site for site, _, _ in plan.fired] == ["run_batch"]
        assert [b["outcome"] for b in got.batches].count("crash") == 1
        # every dispatch ran the model; the memo was neither read nor written
        assert len(costed) == len(got.batches)
        assert [dict(r._service) for r in warm.replicas] == memo
        with crash():
            want = lenet_server().run(trace)
        assert got.fingerprint() == want.fingerprint()


# ---------------------------------------------------------------------------
# report CLI


class TestServeReport:
    def test_serve_demo_renders_metrics(self):
        from repro.report import serve_demo

        out = io.StringIO()
        rc = serve_demo("lenet5:S10SX:2", out, n_requests=12)
        assert rc == 0
        text = out.getvalue()
        assert "serving lenet5 on 2x S10SX" in text
        assert "throughput" in text and "p95" in text

    def test_serve_demo_json(self):
        import json

        from repro.report import serve_demo

        out = io.StringIO()
        rc = serve_demo("lenet5:S10SX:2", out, as_json=True, n_requests=8)
        assert rc == 0
        payload = json.loads(out.getvalue())
        assert payload["metrics"]["requests"] == 8
        assert payload["spec"]["replicas"] == 2

    def test_serve_demo_rejects_unknown_spec(self):
        from repro.report import serve_demo

        assert serve_demo("vgg16", io.StringIO()) == 2
        assert serve_demo("lenet5:BOGUS", io.StringIO()) == 2
        assert serve_demo("lenet5:S10SX:x", io.StringIO()) == 2
        assert serve_demo("lenet5:S10SX:0", io.StringIO()) == 2
        assert serve_demo("lenet5:S10SX:-2", io.StringIO()) == 2
        assert serve_demo("lenet5", io.StringIO(), n_requests=-3) == 2

    def test_usage_lists_all_flags(self):
        from repro.report import USAGE

        for flag in ("--trace", "--serve", "--json", "--faults",
                     "--overload", "--requests", "--help"):
            assert flag in USAGE
