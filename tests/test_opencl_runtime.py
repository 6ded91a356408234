"""OpenCL host-runtime timing model tests: the thesis §5.2 host program's
command queues, dispatch costs and event profile as the closed form in
:mod:`repro.runtime.simulate` costs them."""

import pytest

from repro.device import STRATIX10_SX
from repro.flow import deploy_folded, deploy_pipelined
from repro.runtime import event_profile, simulate_batched, simulate_folded


@pytest.fixture(scope="module")
def lenet():
    return deploy_pipelined("lenet5", STRATIX10_SX, "tvm_autorun")


@pytest.fixture(scope="module")
def lenet_base():
    return deploy_pipelined("lenet5", STRATIX10_SX, "base")


class TestEventSemantics:
    def test_in_order_queue(self, lenet):
        """One in-order queue: every command of an image runs back to
        back, so the image time is the sum of all of them."""
        r = lenet.run(concurrent=False)
        assert r.time_per_image_us == pytest.approx(
            r.write_us + r.read_us + sum(r.stage_times_us.values())
            + r.host_overhead_us,
            rel=1e-12,
        )

    def test_explicit_dependency_across_queues(self, lenet_base):
        """Without channels, each kernel waits on its producer's global-
        memory output even on its own queue: one image's chain stays
        serial."""
        r = lenet_base.run(concurrent=True)
        assert r.time_per_image_us >= sum(r.stage_times_us.values())

    def test_independent_queues_overlap(self, lenet):
        """Channel-connected stages on their own queues overlap: the
        steady state beats the summed stage times."""
        r = lenet.run(concurrent=True)
        assert r.time_per_image_us < sum(r.stage_times_us.values())
        assert r.time_per_image_us >= max(r.stage_times_us.values())

    def test_host_thread_serializes_enqueues(self, lenet):
        """The host thread issues one image's enqueues one after another;
        that serialization is a floor on the concurrent image time."""
        n_enqueued = sum(1 for s in lenet.plan.stages if not s.autorun)
        r = lenet.run(concurrent=True)
        assert r.host_overhead_us == (
            n_enqueued * STRATIX10_SX.enqueue_overhead_us
        )
        assert r.time_per_image_us >= r.host_overhead_us

    def test_event_profile_totals(self, lenet):
        totals = event_profile(lenet.run(concurrent=False))
        assert totals["kernel_us"] > 0
        assert totals["write_us"] > 0 and totals["read_us"] > 0

    def test_kernel_duration_matches_model(self, lenet):
        r = lenet.run(concurrent=False)
        for stage in lenet.plan.stages:
            assert r.stage_times_us[stage.layer] == (
                lenet.bitstream.kernel_time_us(stage.kernel_name)
            )


class TestFoldedEventEngine:
    @pytest.fixture(scope="class")
    def deployment(self):
        return deploy_folded("mobilenet_v1", STRATIX10_SX)

    def test_multi_image_amortizes(self, deployment):
        one = simulate_folded(deployment.bitstream, deployment.plan)
        many = simulate_batched(deployment.bitstream, deployment.plan, 4)
        assert many.time_per_image_us <= one.time_per_image_us

    def test_profile_breakdown_present(self, deployment):
        profile = event_profile(
            simulate_folded(deployment.bitstream, deployment.plan)
        )
        assert profile["kernel_us"] > profile["read_us"]


class TestPipelinedEventEngine:
    def test_throughput_improves_with_pipelining(self, lenet):
        assert lenet.fps(concurrent=True) > 1.5 * lenet.fps(concurrent=False)

    def test_autorun_stages_cost_no_dispatch(self, lenet):
        """Only host-enqueued kernels pay dispatch and launch latency."""
        n_enqueued = sum(1 for s in lenet.plan.stages if not s.autorun)
        assert n_enqueued < len(lenet.plan.stages)
        per_command = (
            STRATIX10_SX.enqueue_overhead_us
            + lenet.bitstream.constants.launch_latency_us
        )
        r = lenet.run(concurrent=False)
        assert r.host_overhead_us == n_enqueued * per_command

    def test_base_level_event_engine(self, lenet_base):
        """Without channels, throughput sits between the serial rate and
        the bottleneck-stage bound."""
        serial = lenet_base.run(concurrent=False)
        bottleneck_bound = 1e6 / max(serial.stage_times_us.values())
        assert serial.fps <= lenet_base.fps(concurrent=True) <= bottleneck_bound
