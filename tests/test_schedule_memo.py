"""The schedule memo and the arena-plan memo give the answers of a cold build.

Every scheduled kernel of a folded build comes from one memo
(:func:`repro.flow.incremental.scheduled_kernel`), and a folded arena is
colored once per (fused graph, invocation sequence)
(:func:`repro.verify.memory.plan_memory`).  These tests pin that a build
served by the memos equals a build after ``clear_lower_cache()``, that
every configuration input a kernel's constructor reads keeps kernels
apart, that graphs sharing layer names share no kernel, and that one
build's plan can be corrupted without touching the next one's.
"""

import pytest

from repro import counters
from repro.device import ARRIA10, STRATIX10_SX
from repro.flow import FoldedConfig, build_folded
from repro.flow.deploy import default_folded_config
from repro.flow.folded import plan_folded, schedule_folded
from repro.flow.incremental import (
    clear_lower_cache,
    lower_cache_stats,
    schedule_cache_stats,
)
from repro.flow.stages import MODELS, folded_flow
from repro.models.twins import TWINS
from repro.pipeline import Pipeline
from repro.relay import fuse_operators
from repro.schedule import recipe
from repro.topi import ConvTiling, symbolic_conv_recipe
from repro.verify.dominance import plan_conv_sweep
from repro.verify.equiv import clear_equiv_cache, equiv_cache_stats
from repro.verify.memory import check_memory

GROUP = ("conv", 1, 1)
KERNEL = "k_conv_1_1_True_relu6_False_False"
#: the dse-sweep grid: Table 6.6 at both w2vec widths
GRID = [ConvTiling(w2vec=w2, c2vec=c2, c1vec=c1)
        for w2 in (1, 7) for c2 in (4, 8, 16, 32) for c1 in (4, 8, 16)]


@pytest.fixture(scope="module")
def mobilenet():
    return fuse_operators(MODELS["mobilenet_v1"]())


def _base():
    return default_folded_config("mobilenet_v1", ARRIA10)


def _front(fused, config):
    """One build through its ``verify`` stage (no synthesis): source
    digest, lower keys, certificate fingerprints and schedule counters."""
    flow = folded_flow("mobilenet_v1", ARRIA10, config, cache=False)
    names = [s.name for s in flow.stages]
    result = Pipeline(flow.name, flow.stages[: names.index("verify") + 1]).run(
        seed={"graph": fused.graph, "fused": fused})
    sched = result.value("schedule")
    return {
        "source": result.trace.stage("codegen").fingerprint,
        "lower_keys": [sk.lower_key for sk in sched.kernels],
        "certificates": {name: cert.fingerprint for name, cert in
                         result.value("verify").certificates.items()},
        "memory": result.value("plan").memory.key,
    }, result.trace.stage("schedule").counters


def _kernels(fused, config, board=ARRIA10):
    return {sk.name: sk for sk in schedule_folded(fused, config, board).kernels}


class TestColdEquivalence:
    def test_each_grid_point_builds_as_if_cold(self, mobilenet):
        """After the sweep's profiles, every candidate's build (served
        by the memos) equals its build with every memo cleared first."""
        clear_lower_cache()
        clear_equiv_cache()
        plan_conv_sweep(mobilenet, GROUP, GRID, ARRIA10, config=_base())
        warm = []
        for tiling in GRID:
            config = _base().copy()
            config.conv_tilings[GROUP] = tiling
            warm.append(_front(mobilenet, config))
        assert all(counters["schedule_hits"] == 9 and
                   counters["schedule_misses"] == 0
                   for _, counters in warm[1:])
        for tiling, (built, _) in zip(GRID, warm):
            config = _base().copy()
            config.conv_tilings[GROUP] = tiling
            clear_lower_cache()
            clear_equiv_cache()
            cold, counters = _front(mobilenet, config)
            assert (counters["schedule_hits"],
                    counters["schedule_misses"]) == (0, 9)
            assert cold == built, tiling


class TestDistinctInputs:
    def _variants(self):
        pinless = _base().copy()
        pinless.pin_unit_stride = False
        delta = _base().copy()
        delta.recipe_deltas[KERNEL] = recipe().pin_unit_stride()
        override = _base().copy()
        override.recipe_overrides[KERNEL] = symbolic_conv_recipe(
            ConvTiling(w2vec=1, c2vec=4, c1vec=4), is_1x1=True)
        dense = _base().copy()
        dense.dense_unroll = 8
        naive = _base().copy()
        naive.naive = True
        return {
            # the conv and depthwise group kernels' tensors
            "pin_unit_stride": (pinless, "symbolic"),
            "recipe_deltas": (delta, {KERNEL}),
            "recipe_overrides": (override, {KERNEL}),
            "dense_unroll": (dense, {"k_fc"}),
            # a naive build has its own kernels, softmax included
            "naive": (naive, "all"),
        }

    @pytest.mark.parametrize("field", [
        "pin_unit_stride", "recipe_deltas", "recipe_overrides",
        "dense_unroll", "naive",
    ])
    def test_one_differing_input_gets_its_own_kernels(self, mobilenet,
                                                      field):
        """A config that differs in one input gets distinct kernels for
        every kernel that input reaches, and the same objects for the
        kernels of the same name it does not reach."""
        clear_lower_cache()
        base = _kernels(mobilenet, _base())
        variant, changed = self._variants()[field]
        other = _kernels(mobilenet, variant)
        common = set(base) & set(other)
        if changed == "all":
            changed = common
        elif changed == "symbolic":
            changed = {n for n in common if n.startswith(("k_conv_", "k_dw_"))}
        assert changed and changed <= common
        for name in changed:
            assert other[name] is not base[name], name
            if base[name].prebuilt is None:
                assert other[name].lower_key != base[name].lower_key, name
        for name in common - changed:
            assert other[name] is base[name], name


class TestSharing:
    def test_twin_shares_no_static_kernel_with_its_full_network(
            self, mobilenet):
        """MobileNetV1 and its twin name their static kernels alike
        (``k_conv1``, ``k_gap``, ``k_fc``, ``k_softmax``), but the memo
        keys on each layer's shapes, so none crosses graphs."""
        clear_lower_cache()
        static = {}
        for fused in (mobilenet, fuse_operators(TWINS["mobilenet_v1"]())):
            sched = schedule_folded(fused, _base(), ARRIA10)
            grouped = set(sched.groups.values())
            static[fused] = {sk.name: sk for sk in sched.kernels
                             if sk.name not in grouped}
        full, twin = static.values()
        assert set(full) == set(twin) == {
            "k_conv1", "k_gap", "k_fc", "k_softmax"}
        for name in full:
            assert twin[name] is not full[name], name

    def test_clear_lower_cache_empties_the_memo(self, mobilenet):
        clear_lower_cache()
        first = _kernels(mobilenet, _base())
        again = _kernels(mobilenet, _base())
        assert all(again[n] is k for n, k in first.items())
        assert schedule_cache_stats() == {"hits": len(first),
                                          "misses": len(first)}
        clear_lower_cache()
        assert schedule_cache_stats() == {"hits": 0, "misses": 0}
        rebuilt = _kernels(mobilenet, _base())
        assert all(rebuilt[n] is not k for n, k in first.items())
        assert [k.lower_key for k in rebuilt.values()] == \
            [k.lower_key for k in first.values()]
        assert schedule_cache_stats() == {"hits": 0, "misses": len(first)}

    def test_each_clear_resets_only_its_family(self, mobilenet):
        clear_lower_cache()
        clear_equiv_cache()
        _front(mobilenet, _base())
        built, equiv = counters.read(), counters.read("equiv_")
        families = ("lower_", "schedule_", "equiv_")
        assert all(built[f"{f}misses"] > 0 for f in families), built
        others = {k: n for k, n in built.items() if not k.startswith(families)}
        clear_lower_cache()
        assert lower_cache_stats() == {"hits": 0, "misses": 0, "uncached": 0}
        assert schedule_cache_stats() == {"hits": 0, "misses": 0}
        assert counters.read("equiv_") == equiv
        clear_equiv_cache()
        assert equiv_cache_stats() == {
            "hits": 0, "misses": 0, "uncached": 0, "dynamic_runs": 0}
        assert counters.read() == others


class TestArenaPlanMemo:
    def test_corrupted_plan_leaves_the_next_build_intact(self):
        """Builds of one graph share one colored arena, but each plan
        owns its tables: corrupting one build's offsets leaves the next
        build's plan and certificate as a cold build's."""
        fused = fuse_operators(MODELS["lenet5"]())
        clear_lower_cache()
        prog, plan = build_folded(fused, FoldedConfig(), STRATIX10_SX)
        offsets = dict(plan.memory.offsets)
        victim = sorted(offsets)[-1]
        for name in offsets:
            plan.memory.offsets[name] = offsets[victim]
        report, _, cert = check_memory(fused, plan, program=prog)
        assert not cert.certified

        prog2, plan2 = build_folded(fused, FoldedConfig(), STRATIX10_SX)
        assert plan2.memory.offsets == offsets
        report2, mem2, cert2 = check_memory(fused, plan2, program=prog2)
        assert report2.clean and cert2.certified
        clear_lower_cache()
        cold = plan_folded(fused, schedule_folded(
            fused, FoldedConfig(), STRATIX10_SX)).memory
        assert cold.to_dict() == mem2.to_dict()
        assert cert2.key == cold.key
