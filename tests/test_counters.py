"""The trace counters of a build are deltas of :mod:`repro.counters`.

The ``schedule`` and ``lower`` rows and the ``verify`` row's
``equiv_dynamic_runs`` of a folded build (cold, then served by the
memos) and of pipelined builds equal the registry deltas over each
stage.
"""

import pytest

from repro import counters
from repro.device import ARRIA10
from repro.flow.deploy import default_folded_config
from repro.flow.incremental import (
    LOWER_COUNTS,
    SCHEDULE_COUNTS,
    clear_lower_cache,
)
from repro.flow.stages import folded_flow, pipelined_flow
from repro.pipeline import Pipeline

#: trace stage -> (registry prefix, the counters its row carries)
FAMILIES = {"schedule": ("schedule_", SCHEDULE_COUNTS),
            "lower": ("lower_", LOWER_COUNTS),
            "verify": ("equiv_", ("dynamic_runs",))}


def _check(flow):
    """Run ``flow`` through ``verify`` and compare each row with the
    registry delta over its stage; return the trace."""
    names = [s.name for s in flow.stages]
    stages, deltas = flow.stages[: names.index("verify") + 1], {}
    for stage in stages:
        def run(ctx, fn=stage.fn, name=stage.name):
            with counters.delta() as deltas[name]:
                return fn(ctx)
        stage.fn = run
    trace = Pipeline(flow.name, stages).run().trace
    for stage, (prefix, family) in FAMILIES.items():
        row = trace.stage(stage).counters
        assert {n: row[prefix + n] for n in family} == {
            n: deltas[stage].get(prefix + n, 0) for n in family}, stage
    return trace


def test_folded_build_cold_then_memoized():
    clear_lower_cache()
    config = default_folded_config("mobilenet_v1", ARRIA10)
    cold, warm = (_check(folded_flow("mobilenet_v1", ARRIA10, config,
                                     cache=False)) for _ in range(2))
    assert cold.stage("lower").counters["lower_misses"] > 0
    assert warm.stage("lower").counters["lower_hits"] > 0
    assert warm.stage("schedule").counters["schedule_hits"] > 0


@pytest.mark.parametrize("level", ["base", "tvm_autorun"])
def test_pipelined_build(level):
    trace = _check(pipelined_flow("lenet5", ARRIA10, level, cache=False))
    assert trace.stage("lower").counters["lower_uncached"] > 0
