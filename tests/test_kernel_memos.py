"""Per-kernel memos past lowering give the answers of a cold run.

A lower-cache hit replays the same :class:`~repro.ir.Kernel` object into
the next build, so what the verifier and the code generator derive from
one kernel alone is kept on ``Kernel.derived``.  These tests pin that
the memoized verdicts, texts and cache keys equal what a fresh lowering
computes from scratch, whatever changes between the two calls: the board
(also one ``dataclasses.replace``d under the same name), the AOC
constants, and the order or content of the binding sets.
"""

import dataclasses
import re

import pytest

import repro.ir as ir
from repro import counters
from repro.aoc.constants import DEFAULT_CONSTANTS
from repro.codegen import generate_opencl
from repro.device import ARRIA10, STRATIX10_MX, STRATIX10_SX
from repro.flow.deploy import default_folded_config, deploy_pipelined
from repro.flow.folded import lower_folded, plan_folded, schedule_folded
from repro.flow.incremental import LOWER_COUNTS, clear_lower_cache
from repro.flow.stages import MODELS
from repro.ir import expr as _e
from repro.ir.analysis import AccessTable
from repro.ir.printer import expr_str
from repro.pipeline.fingerprint import fingerprint
from repro.relay import fuse_operators
from repro.runtime.plan import FoldedPlan
from repro.schedule.transforms import ScheduleRecipe, recipe
from repro.verify import cllint, verify_build
from repro.verify.equiv import certify_build, clear_equiv_cache
from repro.verify.verifier import binding_sets_of

BOARDS = (ARRIA10, STRATIX10_MX, STRATIX10_SX)


@pytest.fixture(scope="module")
def build():
    """MobileNetV1's folded A10 build: schedule, plan, lowered program."""
    fused = fuse_operators(MODELS["mobilenet_v1"]())
    config = default_folded_config("mobilenet_v1", ARRIA10)
    sched = schedule_folded(fused, config, ARRIA10)
    return sched, plan_folded(fused, sched), lower_folded(sched)


def _cold(sched, **kwargs):
    """The report of a fresh lowering: new kernel objects, empty memos."""
    clear_lower_cache()
    return verify_build(lower_folded(sched), **kwargs).to_dict()


class TestVerifyMemo:
    def test_verifying_twice_is_identical(self, build):
        sched, plan, program = build
        first = verify_build(program, plan=plan, board=ARRIA10).to_dict()
        assert verify_build(program, plan=plan, board=ARRIA10).to_dict() \
            == first
        assert _cold(sched, plan=plan, board=ARRIA10) == first

    def test_replaced_board_with_the_same_name(self, build):
        sched, plan, program = build
        base = verify_build(program, plan=plan, board=ARRIA10).to_dict()
        slow = dataclasses.replace(ARRIA10, peak_bw_gbs=0.5)
        assert slow.name == ARRIA10.name
        warm = verify_build(program, plan=plan, board=slow).to_dict()
        assert warm == _cold(sched, plan=plan, board=slow)
        # the memo would have answered with the A10's verdicts if it
        # keyed the board by name
        assert warm != base

    def test_changed_constants(self, build):
        sched, plan, program = build
        base = verify_build(program, plan=plan, board=ARRIA10).to_dict()
        tiny = dataclasses.replace(DEFAULT_CONSTANTS, lsu_cache_bytes=64)
        warm = verify_build(program, plan=plan, board=ARRIA10,
                            constants=tiny).to_dict()
        assert warm == _cold(sched, plan=plan, board=ARRIA10, constants=tiny)
        assert warm != base

    def test_reordered_and_different_binding_sets(self, build):
        # reversed, RP004/RP005 name another first binding set; halved,
        # fewer sets are checked
        sched, plan, program = build
        base = verify_build(program, plan=plan, board=ARRIA10).to_dict()
        invs = plan.invocations
        for variant in (list(reversed(invs)), invs[: len(invs) // 2]):
            other = FoldedPlan(invocations=variant)
            warm = verify_build(program, plan=other, board=ARRIA10).to_dict()
            assert warm == _cold(sched, plan=other, board=ARRIA10)
            assert warm != base

    def test_without_board_and_plan(self, build):
        sched, plan, program = build
        verify_build(program, plan=plan, board=ARRIA10)
        warm = verify_build(program).to_dict()
        assert warm == _cold(sched)
        assert not any(d["rule"].startswith("RP")
                       for d in warm["diagnostics"])


class TestCodegenMemo:
    def test_source_equals_a_fresh_lowering(self, build):
        sched, _, program = build
        text = generate_opencl(program)
        assert generate_opencl(program) == text
        clear_lower_cache()
        assert generate_opencl(lower_folded(sched)) == text


class TestKeys:
    def test_certificate_fingerprint_is_the_list_form(self, build):
        # strides pinned by a recipe step, so the key holds pin tuples
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        config = default_folded_config("mobilenet_v1", ARRIA10)
        config.pin_unit_stride = False
        config.recipe_deltas = {
            sk.name: recipe().pin_unit_stride()
            for sk in build[0].kernels if sk.recipe is not None
        }
        sched = schedule_folded(fused, config, ARRIA10)
        plan = plan_folded(fused, sched)
        bsets = binding_sets_of(plan)
        clear_equiv_cache()
        _, cold = certify_build(sched, plan=plan, dynamic_fallback=False)
        _, warm = certify_build(sched, plan=plan, dynamic_fallback=False)
        pinned = 0
        for sk in sched.kernels:
            if sk.lower_key is None:
                assert cold[sk.name].fingerprint == ""
                continue
            pins = [
                [name, s.name if isinstance(s, _e.Var) else expr_str(s)]
                for name, s in sk.schedule.pinned_strides
            ]
            pinned += bool(pins)
            sets = sorted(
                sorted([v.name, int(c)] for v, c in bs.items())
                for bs in bsets.get(sk.name, [])
            )
            old = fingerprint(["equiv-cert", sk.lower_key, sets, pins])
            assert cold[sk.name].fingerprint == old
            assert warm[sk.name].fingerprint == old
        assert pinned > 0

    def test_recipe_fingerprint_is_by_content(self, build):
        sched, _, _ = build
        for sk in sched.kernels:
            if sk.recipe is None:
                continue
            twin = ScheduleRecipe(tuple(sk.recipe.steps))
            old = fingerprint(["schedule-recipe", sk.recipe.to_dict()])
            assert sk.recipe.fingerprint() == twin.fingerprint() == old
        assert ScheduleRecipe().split("xx", 2).fingerprint() != \
            ScheduleRecipe().split("xx", 4).fingerprint()


# ---------------------------------------------------------------------------
# RL001: one identifier set per kernel body against one regex per argument


def _rl001_by_regex(source):
    """The per-argument regex search RL001 made before the token set."""
    found = []
    for name, params, body, _ in cllint._kernels(source.splitlines()):
        for param in params:
            pname = cllint._param_name(param)
            if pname is not None and not re.search(
                    cllint._WORD.format(re.escape(pname)), body):
                found.append((name, pname))
    return found


def _rl001(source):
    return [(d.kernel, d.location)
            for d in cllint.lint_source(source).by_rule("RL001")]


def _with_probes(source):
    """``source`` with every kernel also taking one argument per name a
    looser tokenizer would find in its body (``f`` of ``1.0e+00f``,
    ``x`` of ``1x``), so RL001 is decided for each of them."""
    for name, _, body, _ in cllint._kernels(source.splitlines()):
        probes = sorted(set(re.findall(r"[A-Za-z_]\w*", body)))
        extra = "".join(f"const int {p}, " for p in probes)
        source = source.replace(
            f"kernel void {name}(", f"kernel void {name}({extra}", 1)
    return source


def _shipped_sources():
    for board in BOARDS:
        for net in ("mobilenet_v1", "resnet18"):
            fused = fuse_operators(MODELS[net]())
            sched = schedule_folded(
                fused, default_folded_config(net, board), board)
            yield f"{net}:{board.name}", generate_opencl(lower_folded(sched))
        dep = deploy_pipelined("lenet5", board, cache=False)
        yield f"lenet5:{board.name}", dep.opencl_source()


class TestRL001Tokens:
    @pytest.fixture(scope="class")
    def sources(self):
        return dict(_shipped_sources())

    def test_agrees_with_the_regex_on_shipped_sources(self, sources):
        assert len(sources) == 9
        for spec, source in sources.items():
            assert _rl001(source) == _rl001_by_regex(source), spec
            probed = _with_probes(source)
            found = _rl001(probed)
            assert found == _rl001_by_regex(probed), spec
            # the probes include names only a looser tokenizer sees
            assert found, spec

    @pytest.mark.parametrize("body, unused", [
        ("y = x + f + aé;", []),
        ("y = x1;", ["x", "f", "aé"]),
        ("y = 1x;", ["x", "f", "aé"]),
        ("y = _x;", ["x", "f", "aé"]),
        ("y = x_;", ["x", "f", "aé"]),
        ("y = 1.000000e+00f * x;", ["f", "aé"]),
        ("y = xé + f;", ["aé"]),
        ("y = aéé + x + f;", []),
        ("y = aéb + x + f;", ["aé"]),
        ("y = baé + x + f;", ["aé"]),
    ])
    def test_edge_cases(self, body, unused):
        # ``aé`` is not ASCII, so the regex decides it
        source = (
            "kernel void k(global float * restrict y, const int x, "
            "const int f, const int aé) {\n"
            f"  {body}\n"
            "}\n"
        )
        assert _rl001(source) == [("k", n) for n in unused]
        assert _rl001(source) == _rl001_by_regex(source)


class TestPrebuiltSoftmax:
    def _softmax(self, fused, config):
        sched = schedule_folded(fused, config, ARRIA10)
        (kernel,) = [sk.prebuilt for sk in sched.kernels if sk.prebuilt]
        return kernel, ir.fresh_name_count()

    def test_built_once_while_the_lower_cache_lives(self):
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        config = default_folded_config("mobilenet_v1", ARRIA10)
        clear_lower_cache()
        built, names_after_miss = self._softmax(fused, config)
        with counters.delta("lower_", LOWER_COUNTS) as lowered:
            replayed, names_after_hit = self._softmax(fused, config)
        assert replayed is built
        # a hit leaves the name uniquifier where building it did
        assert names_after_hit == names_after_miss
        assert lowered == {"hits": 1, "misses": 0, "uncached": 0}
        clear_lower_cache()
        rebuilt, names_after_rebuild = self._softmax(fused, config)
        assert rebuilt is not built
        assert names_after_rebuild == names_after_miss
        assert generate_opencl(ir.Program([rebuilt])) == \
            generate_opencl(ir.Program([built]))

    def test_naive_and_licm_variants_are_kept_apart(self):
        fused = fuse_operators(MODELS["mobilenet_v1"]())
        licm, _ = self._softmax(fused, default_folded_config(
            "mobilenet_v1", ARRIA10))
        naive, _ = self._softmax(fused, default_folded_config(
            "mobilenet_v1", ARRIA10, naive=True))
        assert naive is not licm
        assert generate_opencl(ir.Program([naive])) != \
            generate_opencl(ir.Program([licm]))


class TestChannelsMemo:
    def test_channels_are_computed_once(self):
        dep = deploy_pipelined("lenet5", ARRIA10, cache=False)
        for kernel in dep.bitstream.program.kernels:
            reads, writes = kernel.channels()
            assert kernel.channels() == (reads, writes)
            assert kernel.channels()[0] is reads
            sites = kernel.derived[AccessTable].channel_sites
            assert reads == {s.channel for s in sites if not s.is_write}
            assert writes == {s.channel for s in sites if s.is_write}
        assert any(k.channels()[1] for k in dep.bitstream.program.kernels)
