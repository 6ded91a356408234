"""Lowering and verification leave no reference cycle behind.

A cycle outlives its last reference until the cyclic collector finds
it, so every closure that calls itself (a nested recursive walk), every
class built per call and every object such a closure captures would be
collector work on each build.  A cold folded build of MobileNetV1 —
schedule, lower, codegen, verify (equivalence certificates and the
channel graph included) — run with the collector off must leave
``gc.collect()`` no function, class or lowerer of the program.
"""

import gc
import types

from repro.device import ARRIA10
from repro.flow.deploy import default_folded_config
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import folded_flow
from repro.schedule.lower import _ScheduleLowerer
from repro.verify import clear_equiv_cache


def _cyclic_garbage(fn) -> list:
    """What the collector frees after ``fn()`` runs with it disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _of_the_program(obj) -> bool:
    """A function or class ``repro`` defines, or a schedule lowerer."""
    if isinstance(obj, _ScheduleLowerer):
        return True
    return isinstance(obj, (types.FunctionType, type)) and (
        obj.__module__.startswith("repro."))


def test_a_cold_folded_build_leaves_no_cycle():
    clear_lower_cache()
    clear_equiv_cache()
    config = default_folded_config("mobilenet_v1", ARRIA10)
    flow = folded_flow("mobilenet_v1", ARRIA10, config, cache=False)
    garbage = _cyclic_garbage(flow.run)
    found = sorted({getattr(o, "__qualname__", type(o).__qualname__)
                    for o in garbage if _of_the_program(o)})
    assert found == []
