"""The per-kernel access table and the one-analysis-per-build contract."""

import pickle
from collections import Counter

import pytest

import repro.ir as ir
from repro.aoc import analysis as aoc_analysis
from repro.aoc.compiler import compile_program
from repro.device.boards import STRATIX10_SX, board_by_name
from repro.errors import AOCError, ReproError
from repro.flow import default_folded_config, stages
from repro.flow.incremental import clear_lower_cache
from repro.ir import analysis as ir_analysis
from repro.ir.analysis import AccessTable, access_table
from repro.verify import (
    VerifyReport,
    check_bounds,
    check_perf,
    check_races,
    clear_equiv_cache,
)


def _accumulating_kernel() -> ir.Kernel:
    """``if (i < 3) acc[0] = acc[0] + x[i]`` over a serial ``i`` loop."""
    x, acc = ir.Buffer("x", (8,)), ir.Buffer("acc", (1,))
    i = ir.Var("i")
    body = ir.For(i, 8, ir.IfThenElse(
        i < 3, ir.Store(acc, 0, acc[0] + x[i]),
    ))
    return ir.Kernel("k_acc", [x, acc], body)


def _symbolic_unroll_kernel() -> ir.Kernel:
    """A fully unrolled loop over a symbolic bound, with seeded defects:
    an out-of-bounds store (RB001) and a replica write race (RR001)."""
    n, i = ir.Var("n"), ir.Var("i")
    a, b = ir.Buffer("a", (n,)), ir.Buffer("b", (1,))
    body = ir.For(i, n, ir.seq(
        ir.Store(a, i + n, 1.0),
        ir.Store(b, 0, ir.Cast(ir.FLOAT32, i)),
    ), kind=ir.ForKind.UNROLLED)
    return ir.Kernel("k_sym", [a, b], body, scalar_args=[n])


class TestAccessTable:
    def test_sites_in_program_order_with_facts(self):
        k = _accumulating_kernel()
        table = access_table(k)
        assert [(s.buffer.name, s.is_store) for s in table.sites] == [
            ("acc", False), ("x", False), ("acc", True),
        ]
        (loop,) = table.loops
        assert all(s.loops == (loop,) for s in table.sites)
        assert all(s.guarded for s in table.sites)
        assert [s.accumulates for s in table.sites] == [False, False, True]
        assert table.sites[2].serial == ((loop.loop_var, loop.extent),)
        assert table.sites[2].unrolled == ()

    def test_walked_once_per_kernel_object_and_not_pickled(self):
        k = _accumulating_kernel()
        assert access_table(k) is access_table(k)
        assert aoc_analysis.analyze(k) is aoc_analysis.analyze(k)
        clone = pickle.loads(pickle.dumps(k))
        assert clone.derived == {}
        assert len(access_table(clone).sites) == 3

    def test_analysis_pickles_through_the_memo(self):
        # a memoized analysis holds its kernel weakly, so the kernel
        # travels with it (as in a pickled bitstream's HwKernel)
        k = _accumulating_kernel()
        an = aoc_analysis.analyze(k)
        k2, clone = pickle.loads(pickle.dumps((k, an)))
        assert clone is aoc_analysis.analyze(k2)
        assert clone.kernel is k2
        assert [n.ii for n in clone.loops.values()] == [
            n.ii for n in an.loops.values()
        ]


class TestAOCRejectedKernel:
    """A kernel the AOC model cannot analyze still gets RB/RR verdicts."""

    def test_bounds_and_races_still_report(self):
        k = _symbolic_unroll_kernel()
        n = k.scalar_args[0]
        rep = check_bounds(k, [{n: 4}])
        assert [d.rule for d in rep.diagnostics] == ["RB001"]
        assert rep.counters["accesses_checked"] == 2
        rep = check_races(k, [{n: 4}])
        assert [d.rule for d in rep.diagnostics] == ["RR001"]
        assert rep.counters["unrolled_stores_checked"] == 2

    def test_perf_advisor_skips_it(self):
        k = _symbolic_unroll_kernel()
        rep = check_perf(k, [{k.scalar_args[0]: 4}], VerifyReport("k_sym"),
                         STRATIX10_SX)
        assert "perf_kernels" not in rep.counters
        assert rep.diagnostics == []

    def test_compile_program_names_the_loop(self):
        program = ir.Program([_symbolic_unroll_kernel()])
        with pytest.raises(AOCError, match="fully-unrolled loop i has a "
                                           "non-constant bound"):
            compile_program(program, STRATIX10_SX)


#: kernels per cold build of each shipped network
KERNELS = {"lenet5": 9, "mobilenet_v1": 9, "resnet18": 12}


class TestOneAnalysisPerBuild:
    def test_exact_counts_on_cold_builds(self, monkeypatch):
        counts = {"analyses": 0, "tables": 0, "plans": 0}

        def counting(cls, what):
            init = cls.__init__

            def wrapped(self, *args, **kwargs):
                counts[what] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", wrapped)

        def counting_planner(name):
            planner = getattr(stages, name)

            def wrapped(*args):
                counts["plans"] += 1
                return planner(*args)

            monkeypatch.setattr(stages, name, wrapped)

        counting(aoc_analysis.KernelAnalysis, "analyses")
        counting(ir_analysis.AccessTable, "tables")
        counting_planner("plan_pipelined")
        counting_planner("plan_folded")
        for network, kernels in KERNELS.items():
            for board_name in ("A10", "S10MX", "S10SX"):
                clear_lower_cache()
                clear_equiv_cache()
                board = board_by_name(board_name)
                if network == "lenet5":
                    flow = stages.pipelined_flow(network, board, cache=False)
                else:
                    flow = stages.folded_flow(
                        network, board,
                        default_folded_config(network, board), cache=False,
                    )
                for key in counts:
                    counts[key] = 0
                try:
                    flow.run()
                except ReproError as err:  # resnet18@A10 does not fit
                    assert (network, board_name) == ("resnet18", "A10")
                    assert err.stage == "synthesize"
                assert counts == {
                    "analyses": kernels, "tables": kernels, "plans": 1,
                }, (network, board_name)


class _NoBody:
    """Stands in for a kernel body: any access to it raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"kernel body read after construction ({name})")


def _cost_model_values(an, bindings):
    """The AOC model's five evaluators of one binding set."""
    return (
        an.compute_cycles(bindings), an.flops(bindings),
        an.traffic_bytes(bindings), an.dsp_count(), an.is_pure_transform(),
    )


class TestOneWalkPerKernel:
    """A kernel body is walked once, by its access table, at construction.

    Validation, ``channels()``, ``local_buffers()``, the RC channel
    counts, verify and the AOC model all read that one table.  Entries
    are counted at the body root: ``StmtVisitor.visit_stmt`` for any
    visitor-based walker, ``AccessTable._stmt`` for the table.  The AOC
    model's evaluators — ``compute_cycles``, ``flops``,
    ``traffic_bytes``, ``dsp_count`` and ``is_pure_transform`` — never
    enter the body: with it swapped for a sentinel that raises on any
    access, the memoized analysis and one built afresh from the table
    return the same values under every binding set of the build's plan.
    """

    def test_cold_builds_enter_each_body_once(self, monkeypatch):
        from repro.flow.pipelined import LEVELS
        from repro.ir.functor import StmtVisitor

        #: id(body) -> [body, constructions, table walks, visitor walks];
        #: holding the body keeps its id from being reused
        bodies = {}

        def count_root_entries(cls, name, slot):
            original = getattr(cls, name)

            def wrapped(self, s, *args):
                entry = bodies.get(id(s))
                if entry is not None and entry[0] is s:
                    entry[slot] += 1
                return original(self, s, *args)

            monkeypatch.setattr(cls, name, wrapped)

        init = ir.Kernel.__init__

        def registering_init(self, name, args, body, *rest, **kwargs):
            entry = bodies.setdefault(id(body), [body, 0, 0, 0])
            entry[1] += 1
            init(self, name, args, body, *rest, **kwargs)

        monkeypatch.setattr(ir.Kernel, "__init__", registering_init)
        count_root_entries(AccessTable, "_stmt", 2)
        count_root_entries(StmtVisitor, "visit_stmt", 3)

        #: (program, plan) of each build, for the cost-model check
        built = []

        def capturing(name, slot):
            stage_fn = getattr(stages, name)

            def wrapped(*args):
                out = stage_fn(*args)
                if slot == 0:
                    built.append([out, None])
                else:
                    built[-1][1] = out
                return out

            monkeypatch.setattr(stages, name, wrapped)

        capturing("lower_pipelined", 0)
        capturing("lower_folded", 0)
        capturing("plan_pipelined", 1)
        capturing("plan_folded", 1)

        builds = [(network, board_name, "tvm_autorun")
                  for network in KERNELS
                  for board_name in ("A10", "S10MX", "S10SX")]
        builds += [("lenet5", "S10SX", level) for level in LEVELS]
        for network, board_name, level in builds:
            clear_lower_cache()
            clear_equiv_cache()
            board = board_by_name(board_name)
            if network == "lenet5":
                flow = stages.pipelined_flow(
                    network, board, level=level, cache=False,
                )
            else:
                flow = stages.folded_flow(
                    network, board,
                    default_folded_config(network, board), cache=False,
                )
            try:
                flow.run()
            except ReproError as err:  # resnet18@A10 does not fit
                assert (network, board_name) == ("resnet18", "A10")
                assert err.stage == "synthesize"
        assert len(bodies) >= 3 * sum(KERNELS.values())
        # (constructions, table walks, visitor walks) -> bodies
        shapes = Counter(tuple(entry[1:]) for entry in bodies.values())
        assert set(shapes) == {(1, 1, 0)}, shapes

        assert len(built) == len(builds)
        checked = 0
        for program, plan in built:
            sets = {}
            steps = getattr(plan, "invocations", None) or plan.stages
            for inv in steps:
                sets.setdefault(inv.kernel_name, []).append(
                    getattr(inv, "bindings", None))
            for kernel in program.kernels:
                an = aoc_analysis.analyze(kernel)
                want = [_cost_model_values(an, b) for b in sets[kernel.name]]
                body, kernel.body = kernel.body, _NoBody()
                try:
                    fresh = aoc_analysis.KernelAnalysis(kernel, an.c)
                    for got in (aoc_analysis.analyze(kernel), fresh):
                        assert [_cost_model_values(got, b)
                                for b in sets[kernel.name]] == want
                finally:
                    kernel.body = body
                checked += 1
        assert checked >= 3 * sum(KERNELS.values())


class TestKernelMemoLifetime:
    """A kernel's memos free with it, without the cyclic collector.

    ``Kernel.derived`` holds the access table, the AOC analysis and the
    vectorized interpreter's band plans; none of them refers back to the
    kernel strongly, so dropping a build frees its kernels by reference
    counting alone.
    """

    @pytest.mark.parametrize("mode", ["pipelined", "folded"])
    def test_dropped_build_frees_its_kernels_with_gc_disabled(self, mode):
        import gc
        import weakref

        import numpy as np

        from repro.flow import FoldedConfig, deploy_folded, deploy_pipelined
        from repro.ir.vinterp import _BandCache

        def deploy(network, board, cache):
            if mode == "pipelined":
                return deploy_pipelined(network, board, cache=cache)
            return deploy_folded(network, board, config=FoldedConfig(),
                                 cache=cache)

        clear_lower_cache()
        clear_equiv_cache()
        gc.collect()
        gc.disable()
        try:
            d = deploy("lenet5", STRATIX10_SX, cache=False)
            d.forward_functional(np.zeros((1, 28, 28), np.float32))
            kernels = d.bitstream.program.kernels
            for k in kernels:  # every memo kind is there to be freed
                assert AccessTable in k.derived
                assert any(isinstance(key, tuple)
                           and key[0] is aoc_analysis.KernelAnalysis
                           for key in k.derived)
            assert any(_BandCache in k.derived for k in kernels)
            refs = [weakref.ref(k) for k in kernels]
            del d, kernels, k
            clear_lower_cache()
            clear_equiv_cache()
            alive = [r().name for r in refs if r() is not None]
        finally:
            gc.enable()
        assert alive == []
