"""One recipe path for pipelined kernels: recorded recipes, the lower
cache, and kernels replayed beside rebuilt ones.

A pipelined build schedules every kernel through the schedule memo and
lowers it through the lower cache, as a folded build does; its channels
compare by value, so a replayed producer pairs with a rebuilt consumer.
"""

import pytest

import repro.ir as ir
from repro.codegen import generate_opencl
from repro.device import ALL_BOARDS, STRATIX10_SX, board_by_name
from repro.flow.deploy import default_folded_config
from repro.flow.folded import schedule_folded
from repro.flow.incremental import clear_lower_cache, kernel_lower_key
from repro.flow.pipelined import (
    LEVELS,
    lower_pipelined,
    plan_pipelined,
    schedule_pipelined,
)
from repro.flow.stages import MODELS
from repro.ir import vinterp
from repro.pipeline.cache import CompileCache
from repro.relay import fuse_operators
from repro.schedule import ScheduleRecipe
from repro.serve import RequestTrace, ServeConfig, Server, provision_replicas
from repro.verify import verify_build


@pytest.fixture(scope="module")
def lenet_fused():
    return fuse_operators(MODELS["lenet5"]())


def test_channels_compare_by_value():
    a, b = ir.Channel("ch_x", depth=4), ir.Channel("ch_x", depth=4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != ir.Channel("ch_x", depth=5)
    assert a != ir.Channel("ch_x", "int32", depth=4)
    assert a != ir.Channel("ch_y", depth=4)


def _scheduled_kernels(sched):
    return [sk for sk in sched.kernels if sk.prebuilt is None]


def test_every_shipped_kernel_has_a_lower_key(lenet_fused):
    for board in ALL_BOARDS:
        for level in LEVELS:
            sched = schedule_pipelined(lenet_fused, level, board)
            for sk in _scheduled_kernels(sched):
                assert sk.recipe is not None, (level, sk.name)
                assert kernel_lower_key(sk) is not None, (level, sk.name)
        for network in ("mobilenet_v1", "resnet18"):
            fused = fuse_operators(MODELS[network]())
            config = default_folded_config(network, board)
            sched = schedule_folded(fused, config, board)
            for sk in _scheduled_kernels(sched):
                assert kernel_lower_key(sk) is not None, (network, sk.name)


def test_lower_key_tells_channel_depths_apart(lenet_fused):
    full = schedule_pipelined(lenet_fused, "channels", STRATIX10_SX)
    half = schedule_pipelined(lenet_fused, "channels", STRATIX10_SX, 0.5)
    for a, b in zip(full.kernels, half.kernels):
        assert a.lower_key != b.lower_key, a.name


def test_rebuilt_consumer_pairs_with_a_replayed_producer(lenet_fused):
    # the second build replays k_dense3 (and every kernel but one) and
    # rebuilds only k_softmax, its channel consumer, under an override
    board = STRATIX10_SX
    first = lower_pipelined(schedule_pipelined(lenet_fused, "tvm_autorun",
                                               board))
    fix = ScheduleRecipe().stage(0).cache_write("register")
    sched = schedule_pipelined(lenet_fused, "tvm_autorun", board, 1.0,
                               {"k_softmax": fix})
    assert sched.schedule_cache == {"hits": 8, "misses": 1}
    program = lower_pipelined(sched)
    assert program.lower_cache == {"hits": 8, "misses": 1, "uncached": 0}
    dense3, softmax = program.kernel("k_dense3"), program.kernel("k_softmax")
    assert dense3 is first.kernel("k_dense3")
    assert softmax is not first.kernel("k_softmax")
    (written,) = dense3.channels()[1]
    (read,) = softmax.channels()[0]
    assert written is not read and written == read
    program.validate_channels()
    report = verify_build(
        program, source=generate_opencl(program),
        plan=plan_pipelined(lenet_fused, sched), subject="mixed",
        board=board,
    )
    assert not report.errors
    assert not [d for d in report.diagnostics if d.rule.startswith("RC")]


def test_second_serving_setup_plans_no_band():
    # two serve-lenet setups, each through its own compile cache: the
    # second replays the kernels, and with them their band plans
    clear_lower_cache()
    made = []
    init = vinterp._BandPlan.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    config = ServeConfig(window_us=2000, max_batch=8, max_queue=256)
    trace = RequestTrace.poisson("lenet5", 30, 3000.0, (1, 28, 28), seed=0,
                                 distinct_inputs=15)
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vinterp._BandPlan, "__init__", counting)
        for _ in range(2):
            made.clear()
            cache = CompileCache()
            replicas = provision_replicas("lenet5", board_by_name("S10SX"),
                                          2, cache=cache)
            result = Server(replicas, config, cache=cache).run(trace)
            assert result.metrics.completed == len(trace.requests)
            counts.append(len(made))
    assert counts[0] > 0 and counts[1] == 0
