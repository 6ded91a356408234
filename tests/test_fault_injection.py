"""Acceptance tests: under an injected fault plan (transient routing
failure + channel stall + DMA error) the resilient deployment flow still
returns a working deployment with logits identical to the fault-free
run, and the recovery story is visible as structured events.  The CI
``fault-injection`` job runs this module with ``REPRO_FAULT_SEED``
matrixed over several seeds."""

import numpy as np
import pytest

from repro.device.boards import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.flow import deploy_pipelined, deploy_resilient
from repro.resilience import Fault, FaultPlan, configured


def acceptance_plan():
    """The ISSUE's scenario: one transient routing failure, one channel
    stall, one DMA write error.  Seed comes from REPRO_FAULT_SEED."""
    return FaultPlan(
        Fault("synthesize", "routing", times=1),
        Fault("channel", "stall", times=1, param=800.0),
        Fault("enqueue.write", "dma", times=1),
    )


class TestAcceptance:
    def test_lenet_pipelined_survives_fault_plan(self):
        clean = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        plan = acceptance_plan()
        with plan:
            faulted = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert plan.remaining() == 0  # every fault actually fired
        assert faulted.rung == clean.rung == "pipelined-concurrent"
        assert np.array_equal(faulted.logits, clean.logits)
        kinds = [e["kind"] for e in faulted.events]
        assert "fault" in kinds and "retry" in kinds
        assert "recovered" in kinds and "served" in kinds

    def test_mobilenet_folded_survives_fault_plan(self):
        clean = deploy_resilient("mobilenet_v1", STRATIX10_SX, cache=False)
        plan = acceptance_plan()
        with plan:
            faulted = deploy_resilient(
                "mobilenet_v1", STRATIX10_SX, cache=False
            )
        # mobilenet has no pipelined schedule: both runs land on folded
        assert faulted.rung == clean.rung == "folded"
        assert np.array_equal(faulted.logits, clean.logits)
        # the folded rung enqueues its input write too, so the DMA fault
        # fires there and the ladder's retry recovers it
        assert ("enqueue.write", "input", "dma") in plan.fired
        ladder = [e["kind"] for e in faulted.events if e["site"] == "ladder"]
        assert "retry" in ladder and "recovered" in ladder

    def test_retry_events_visible_in_stage_trace(self):
        with acceptance_plan():
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        synth = r.deployment.trace.stage("synthesize")
        kinds = [e["kind"] for e in synth.events]
        assert "fault" in kinds and "retry" in kinds and "recovered" in kinds
        # the rendered trace shows the events inline
        assert "~~ [retry]" in r.deployment.trace.format_table()


class TestDegradationLadder:
    def test_persistent_bitflip_degrades_to_cpu(self):
        clean = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        with FaultPlan(Fault("buffer", "bitflip", times=99, param=30)):
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert r.rung == "cpu"
        assert r.degraded
        assert [a.rung for a in r.attempts] == [
            "pipelined-concurrent", "pipelined-serial", "folded", "cpu"
        ]
        assert all(not a.ok for a in r.attempts[:-1])
        kinds = [e["kind"] for e in r.events]
        assert "corruption" in kinds and "crosscheck" in kinds
        assert kinds.count("fallback") == 3
        # the CPU reference is immune to device-buffer corruption
        assert np.array_equal(r.logits, clean.logits)

    def test_transient_bitflip_only_costs_one_rung(self):
        with FaultPlan(Fault("buffer", "bitflip", times=1)):
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert r.rung == "pipelined-serial"
        assert [a.ok for a in r.attempts] == [False, True]

    def test_device_lost_recovered_by_rung_retry(self):
        with FaultPlan(Fault("device", "device_lost", times=1)) as plan:
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert len(plan.fired) == 1
        assert r.rung == "pipelined-concurrent"  # recovered, not degraded
        assert not r.degraded
        kinds = [e["kind"] for e in r.events]
        assert "retry" in kinds and "recovered" in kinds

    def test_persistent_device_loss_falls_to_cpu(self):
        with FaultPlan(Fault("device", "device_lost", times=999)):
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert r.rung == "cpu"
        assert r.timing == {}  # the CPU rung makes no throughput claim

    def test_crosscheck_tolerance_is_configurable(self):
        with configured(crosscheck_atol=float("inf")):
            with FaultPlan(Fault("buffer", "bitflip", times=99)):
                r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        # an absurd tolerance accepts even corrupted logits: the first
        # rung serves (proving the atol knob gates the cross-check)
        assert r.rung == "pipelined-concurrent"


class TestBatchedForward:
    def test_buffer_probed_once_per_sample_in_order(self):
        """A batch through the generated kernels probes the ``buffer``
        site per sample, in sample order, exactly like one forward per
        sample would."""
        dep = deploy_pipelined("lenet5", STRATIX10_SX)
        xs = np.random.default_rng(4).standard_normal(
            (3, 1, 28, 28)).astype(np.float32)
        clean = dep.forward_functional(xs)
        with FaultPlan(Fault("buffer", "bitflip", times=2)) as batched:
            batch = dep.forward_functional(xs)
        with FaultPlan(Fault("buffer", "bitflip", times=2)) as alone:
            singles = [dep.forward_functional(x) for x in xs]
        assert batched.fired == alone.fired and len(batched.fired) == 2
        assert [b.tobytes() for b in batch] == [s.tobytes() for s in singles]
        flipped = [n for n in range(3)
                   if batch[n].tobytes() != clean[n].tobytes()]
        assert flipped == [0, 1]


class TestNoPlanPurity:
    @pytest.mark.parametrize("board", [STRATIX10_MX, STRATIX10_SX, ARRIA10])
    def test_ladder_timing_is_the_deployments_timing(self, board):
        """The concurrent rung reports the same closed-form numbers as
        the deployment it serves."""
        d = deploy_pipelined("lenet5", board)
        r = deploy_resilient("lenet5", board)
        assert r.rung == "pipelined-concurrent"
        assert r.timing == {
            "fps": d.run(True).fps,
            "time_per_image_us": d.run(True).time_per_image_us,
        }

    def test_no_fault_plan_means_no_events_and_stable_numbers(self):
        a = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        b = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        for trace in (a.trace, b.trace):
            assert trace.resilience_events() == []
        assert a.trace.stage("synthesize").fingerprint == \
            b.trace.stage("synthesize").fingerprint
        assert a.fps() == b.fps()

    def test_fault_free_resilient_deploy_matches_plain_deploy(self):
        plain = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert not r.degraded
        assert r.deployment.bitstream.fmax_mhz == plain.bitstream.fmax_mhz
        x = np.random.default_rng(0).standard_normal(
            plain.graph.input.out_shape
        ).astype(np.float32)
        assert np.array_equal(r.deployment.forward(x), plain.forward(x))

    def test_faulted_bitstream_fingerprint_matches_clean(self):
        """Recovery must converge on the same artifact: the bitstream
        produced after an injected transient routing failure fingerprints
        identically to the fault-free one."""
        clean = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        with FaultPlan(Fault("synthesize", "routing", times=1)):
            faulted = deploy_pipelined("lenet5", STRATIX10_SX, cache=False)
        assert faulted.trace.stage("synthesize").fingerprint == \
            clean.trace.stage("synthesize").fingerprint


class TestSeedIndependence:
    @pytest.mark.parametrize("seed", [0, 7, 1234, 99991])
    def test_recovery_is_seed_independent(self, seed):
        clean = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        with FaultPlan(
            Fault("synthesize", "routing", times=1),
            Fault("enqueue.write", "dma", times=1),
            seed=seed,
        ):
            r = deploy_resilient("lenet5", STRATIX10_SX, cache=False)
        assert r.rung == clean.rung
        assert np.array_equal(r.logits, clean.logits)
