"""Unit tests for the resilience subsystem: retry/backoff, fault plans,
placement-seed sweeps, the watchdog, and the hardened failure paths of
the cache, DSE and runtime."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.boards import STRATIX10_MX, STRATIX10_SX
from repro.errors import (
    DeadlockError,
    FitError,
    RoutingError,
    RuntimeSimError,
    TransferError,
)
from repro.flow import (
    deploy_pipelined,
    default_folded_config,
    deploy_folded,
    deploy_resilient,
    sweep_conv1x1,
)
from repro.models import mobilenet_v1
from repro.pipeline import CompileCache, DiskBackend
from repro.relay import fuse_operators
from repro.resilience import (
    Fault,
    FaultPlan,
    ResilienceEvent,
    ResilienceLog,
    RetryPolicy,
    VirtualClock,
    Watchdog,
    backoff_schedule,
    configured,
    probe,
    retry,
)
from repro.runtime import PipelinePlan, PipelineStage
from repro.runtime.simulate import simulate_pipelined
from repro.topi import ConvTiling


class TestBackoff:
    def test_schedule_deterministic(self):
        p = RetryPolicy(attempts=5, base_us=100, multiplier=2, jitter=0.1)
        assert backoff_schedule(p, seed=42) == backoff_schedule(p, seed=42)
        assert backoff_schedule(p, seed=42) != backoff_schedule(p, seed=43)

    def test_schedule_shape(self):
        p = RetryPolicy(attempts=4, base_us=100, multiplier=2, max_us=250,
                        jitter=0.1)
        delays = backoff_schedule(p, seed=0)
        assert len(delays) == 3
        for nominal, d in zip((100, 200, 250), delays):
            assert nominal * 0.9 <= d <= nominal * 1.1  # jitter bounds

    def test_no_jitter_is_pure_exponential(self):
        p = RetryPolicy(attempts=4, base_us=10, multiplier=3, jitter=0.0,
                        max_us=1e9)
        assert backoff_schedule(p, seed=7) == [10, 30, 90]

    def test_single_attempt_no_delays(self):
        assert backoff_schedule(RetryPolicy(attempts=1)) == []


class TestRetry:
    def test_recovers_on_virtual_clock(self):
        calls = []
        clock = VirtualClock()

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransferError("boom")
            return "ok"

        policy = RetryPolicy(attempts=3, jitter=0.0, base_us=100,
                             multiplier=2)
        assert retry(flaky, policy, clock=clock) == "ok"
        assert len(calls) == 3
        assert clock.now_us == pytest.approx(100 + 200)  # no wall sleeping

    def test_exhausts_and_raises_last(self):
        def always():
            raise TransferError("persistent")

        with pytest.raises(TransferError):
            retry(always, RetryPolicy(attempts=3))

    def test_non_matching_error_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not a ReproError")

        with pytest.raises(ValueError):
            retry(wrong_kind, RetryPolicy(attempts=5))
        assert len(calls) == 1


class TestFaultPlan:
    def test_no_plan_probe_is_noop(self):
        assert probe("synthesize", "anything") is None

    def test_times_counts_down(self):
        with FaultPlan(Fault("synthesize", "routing", times=2)) as plan:
            assert probe("synthesize") is not None
            assert probe("synthesize") is not None
            assert probe("synthesize") is None
            assert len(plan.fired) == 2

    def test_match_filters_labels(self):
        with FaultPlan(Fault("channel", "stall", match="conv")):
            assert probe("channel", "pool1") is None
            assert probe("channel", "conv2") is not None

    def test_rng_deterministic_per_seed(self):
        a = FaultPlan(seed=5).rng("x").random()
        b = FaultPlan(seed=5).rng("x").random()
        c = FaultPlan(seed=6).rng("x").random()
        assert a == b != c

    def test_plans_nest_innermost_wins(self):
        with FaultPlan(Fault("device", "device_lost")):
            with FaultPlan() as inner:
                assert probe("device") is None  # inner plan has no faults
                assert inner.remaining() == 0
            assert probe("device") is not None


class TestSeedSweep:
    def test_routing_failure_converges_after_n_minus_1_seeds(self):
        """Three deterministic routing failures, four seeds allowed:
        synthesis recovers on placement seed 3."""
        plan = FaultPlan(
            Fault("synthesize", "routing", times=3, transient=False)
        )
        with plan, configured(routing_seeds=4):
            d = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        assert len(plan.fired) == 3
        events = d.trace.stage("synthesize").events
        kinds = [e["kind"] for e in events]
        assert kinds.count("retry") == 3
        assert kinds[-1] == "recovered"
        assert events[-1]["data"]["seed"] == 3

    def test_default_config_fails_fast_on_deterministic_routing(self):
        with FaultPlan(Fault("synthesize", "routing", transient=False)):
            with pytest.raises(RoutingError) as exc:
                deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        assert exc.value.seeds_tried == (0,)

    def test_transient_failure_retried_by_default(self):
        with FaultPlan(Fault("synthesize", "crash", times=1, transient=True)):
            d = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        kinds = [e["kind"] for e in d.trace.stage("synthesize").events]
        assert "retry" in kinds and "recovered" in kinds

    def test_seed_relief_never_breaks_a_routing_design(self):
        """A design that routes on seed 0 routes identically on any seed
        (relief is one-sided)."""
        base = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        from repro.aoc.compiler import compile_program

        bs = compile_program(
            base.bitstream.program, STRATIX10_SX, placement_seed=9
        )
        assert bs.timing.routed
        assert bs.fmax_mhz == base.bitstream.fmax_mhz


class TestFailureCaching:
    def test_injected_failure_never_cached(self):
        cache = CompileCache()
        with FaultPlan(Fault("synthesize", "routing", transient=False)):
            with pytest.raises(RoutingError):
                deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        # the same cache now serves a clean build: the injected failure
        # was not stored as a deterministic outcome
        d = deploy_pipelined("lenet5", STRATIX10_SX, cache=cache)
        assert d.trace.stage("synthesize").status == "ok"

    def test_deterministic_failure_replay_carries_seeds_tried(self):
        cache = CompileCache()
        cfg = default_folded_config("mobilenet_v1", STRATIX10_MX)
        cfg.conv_tilings[("conv", 1, 1)] = ConvTiling(w2vec=7, c2vec=32,
                                                      c1vec=8)
        with pytest.raises((FitError, RoutingError)) as first:
            deploy_folded("mobilenet_v1", STRATIX10_MX, config=cfg,
                          cache=cache)
        with pytest.raises((FitError, RoutingError)) as replay:
            deploy_folded("mobilenet_v1", STRATIX10_MX, config=cfg,
                          cache=cache)
        assert cache.hits >= 1
        assert replay.value.seeds_tried == first.value.seeds_tried == (0,)


class TestWatchdog:
    def test_budget_exceeded_raises(self):
        wd = Watchdog(budget_us=1000)
        wd.observe("conv1", 999)
        with pytest.raises(DeadlockError, match="virtual-time budget"):
            wd.observe("conv2", 1001)

    def test_injected_hang_caught_by_watchdog(self):
        """A hung kernel launch stretches the run past the ladder's
        watchdog budget: the first rung falls back with a deadlock."""
        with FaultPlan(Fault("enqueue.kernel", "hang", match="conv1")) as plan:
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert plan.fired == [("enqueue.kernel", "conv1", "hang")]
        first = r.attempts[0]
        assert first.rung == "pipelined-concurrent" and not first.ok
        assert first.reason.startswith("DeadlockError")
        assert "hung" in first.reason
        assert r.rung == "pipelined-serial"


class TestRuntimeFaults:
    @pytest.fixture(scope="class")
    def lenet(self):
        return deploy_pipelined("lenet5", STRATIX10_SX)

    def test_dma_fault_without_policy_fails_fast(self, lenet):
        with FaultPlan(Fault("enqueue.write", "dma")):
            with pytest.raises(TransferError, match="injected"):
                simulate_pipelined(lenet.bitstream, lenet.plan, True)

    def test_dma_fault_recovered_by_retry_policy(self, lenet):
        clean = simulate_pipelined(lenet.bitstream, lenet.plan, True)
        clock = VirtualClock()
        with FaultPlan(Fault("enqueue.write", "dma", times=1)) as plan:
            out = retry(
                lambda: simulate_pipelined(lenet.bitstream, lenet.plan, True),
                RetryPolicy(attempts=3), clock=clock,
            )
        assert plan.fired == [("enqueue.write", "input", "dma")]
        # the backoff waits on the virtual clock, not the device
        assert clock.now_us > 0
        assert out.fps == clean.fps

    def test_channel_stall_slows_simulation(self, lenet):
        clean = simulate_pipelined(lenet.bitstream, lenet.plan, True)
        with FaultPlan(Fault("channel", "stall", param=700.0)):
            stalled = simulate_pipelined(lenet.bitstream, lenet.plan, True)
        assert stalled.fps < clean.fps

    def test_channel_hang_is_diagnosed(self, lenet):
        with FaultPlan(Fault("channel", "hang", match="pool1")):
            with pytest.raises(DeadlockError, match="ch_conv1"):
                simulate_pipelined(lenet.bitstream, lenet.plan, True)

    def test_device_lost_raises(self, lenet):
        from repro.errors import DeviceLostError

        with FaultPlan(Fault("device", "device_lost")):
            with pytest.raises(DeviceLostError):
                simulate_pipelined(lenet.bitstream, lenet.plan, True)

    def test_unknown_kernel_name_lists_available(self, lenet):
        """A plan naming a kernel the bitstream lacks (a stale host
        program) fails with the kernels it does provide."""
        stale = PipelinePlan(
            [PipelineStage("no_such_kernel", "conv1")], input_bytes=4,
            output_bytes=4,
        )
        with pytest.raises(RuntimeSimError) as exc:
            simulate_pipelined(lenet.bitstream, stale, False)
        assert "no_such_kernel" in str(exc.value)
        assert "k_conv1" in str(exc.value)

    def test_bitstream_kernel_lookup_not_bare_keyerror(self, lenet):
        with pytest.raises(RuntimeSimError, match="available kernels"):
            lenet.bitstream.kernel_time_us("missing")
        with pytest.raises(RuntimeSimError):
            lenet.bitstream.kernel_roofline_us("missing")
        with pytest.raises(RuntimeSimError):
            lenet.bitstream.kernel_cycles("missing")
        with pytest.raises(RuntimeSimError):
            lenet.bitstream.kernel_flops("missing")


class TestDiskCacheHardening:
    def test_round_trip_verified_put(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("good", {"x": 1})
        assert backend.get("good") == {"x": 1}

    def test_unpicklable_value_rejected_and_no_debris(self, tmp_path):
        backend = DiskBackend(tmp_path)
        with pytest.raises(Exception):
            backend.put("bad", lambda: None)  # unpicklable
        assert len(backend) == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_truncated_entry_is_miss_and_quarantined(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("k", {"big": list(range(1000))})
        path = tmp_path / "k.pkl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        sentinel = backend.get("never-stored")
        assert backend.get("k") is sentinel
        assert not path.exists()  # quarantined, not retried forever

    def test_corrupt_entry_survives_pickle_of_wrong_type(self, tmp_path):
        backend = DiskBackend(tmp_path)
        (tmp_path / "z.pkl").write_bytes(pickle.dumps({"ok": True})[:-3])
        assert backend.get("z") is backend.get("missing")


class TestSweepFaults:
    def test_dse_records_compiler_crashes_and_continues(self):
        fused = fuse_operators(mobilenet_v1())
        with FaultPlan(
            Fault("synthesize", "crash", times=1, transient=False)
        ):
            summary = sweep_conv1x1(
                fused, STRATIX10_SX, w2vec_options=(7,),
                c2vec_options=(8, 16), c1vec_options=(4,), cache=False,
            )
        assert len(summary.points) == 2
        assert summary.failed_points == 1
        failed = [p for p in summary.points if p.fail_reason][0]
        assert "AOCError" in failed.fail_reason
        assert summary.best.feasible  # the sweep still found a winner

    def test_autotune_start_failure_reports_reason(self):
        from repro.flow import autotune_folded

        fused = fuse_operators(mobilenet_v1())
        with FaultPlan(
            Fault("synthesize", "crash", times=99, transient=False)
        ):
            with pytest.raises(FitError, match="AOCError"):
                autotune_folded(fused, STRATIX10_SX, cache=False)


# ---------------------------------------------------------------------------
# property tests: backoff jitter determinism and event serialization


class TestBackoffProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        attempts=st.integers(min_value=1, max_value=8),
        jitter=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_schedule_is_a_pure_function_of_policy_and_seed(
        self, seed, attempts, jitter
    ):
        policy = RetryPolicy(
            attempts=attempts, base_us=100.0, multiplier=2.0, jitter=jitter
        )
        first = backoff_schedule(policy, seed=seed)
        second = backoff_schedule(policy, seed=seed)
        assert first == second
        assert len(first) == attempts - 1

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        jitter=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_jitter_stays_inside_its_envelope_for_every_seed(
        self, seed, jitter
    ):
        policy = RetryPolicy(
            attempts=6, base_us=50.0, multiplier=3.0, max_us=1000.0,
            jitter=jitter,
        )
        for i, delay in enumerate(backoff_schedule(policy, seed=seed)):
            nominal = min(1000.0, 50.0 * 3.0**i)
            assert nominal * (1.0 - jitter) <= delay
            assert delay <= nominal * (1.0 + jitter)


_event_data = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=24),
        st.booleans(),
    ),
    max_size=4,
)

_events = st.builds(
    ResilienceEvent,
    kind=st.sampled_from(
        ["fault", "retry", "suspect", "breaker", "dead", "reprovision",
         "refill", "requeue", "watchdog", "shed"]
    ),
    site=st.sampled_from(["serve", "synthesize", "channel", "device"]),
    detail=st.text(max_size=64),
    attempt=st.integers(min_value=0, max_value=100),
    t_us=st.floats(
        min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
    data=_event_data,
)


class TestEventSerialization:
    @given(event=_events)
    @settings(max_examples=50, deadline=None)
    def test_event_dict_round_trip(self, event):
        assert ResilienceEvent.from_dict(event.to_dict()) == event

    @given(events=st.lists(_events, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_log_json_round_trip(self, events):
        original = ResilienceLog()
        for e in events:
            original.record(e)
        restored = ResilienceLog.from_json(original.to_json())
        assert len(restored) == len(original)
        assert restored.since(0) == original.since(original.cursor() - len(original))
        # and the round trip is a fixed point
        assert restored.to_json() == original.to_json()

    def test_restored_log_starts_at_base_zero(self):
        original = ResilienceLog()
        original.record(ResilienceEvent("fault", "serve", "x"))
        original.clear()  # advances the base cursor
        original.record(ResilienceEvent("refill", "serve", "y"))
        restored = ResilienceLog.from_json(original.to_json())
        assert restored.cursor() == 1
        assert restored.since(0)[0].kind == "refill"
