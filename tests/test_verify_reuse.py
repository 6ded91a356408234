"""A build's ``verify`` stage gives a cold run's answer from its memos.

The verify stage of a DSE sweep's build re-derives only what is new to
it: each kernel's lint verdict is kept with the text it was linted from,
a plan's distinct binding sets are tabled once for the verifier and the
certifier, the certificate key is hashed without a canonical walk, and
the arena slots are checked by a sweep over their offsets.  These tests
pin each against what the code computed before, from scratch: the
reports of every shipped build, a hand-edited source, the pairwise slot
check, and the fingerprints.
"""

import dataclasses
import hashlib
import importlib
import json
import random

import pytest

from repro import counters
from repro.aoc.constants import DEFAULT_CONSTANTS
from repro.codegen.opencl import emitted_text
from repro.device import ARRIA10, board_by_name
from repro.errors import VerificationError
from repro.flow.deploy import default_folded_config
from repro.flow.folded import lower_folded, plan_folded, schedule_folded
from repro.flow.incremental import clear_lower_cache
from repro.flow.stages import MODELS, folded_flow, pipelined_flow
from repro.ir.analysis import access_table, free_vars
from repro.pipeline import Pipeline
from repro.pipeline.fingerprint import (
    canonical,
    config_fingerprint,
    fingerprint,
    plain_fingerprint,
    register_canonicalizer,
)
from repro.pipeline.pipeline import Artifact, Context
from repro.relay import fuse_operators
from repro.verify import cllint, equiv, verify_build
from repro.verify.diagnostics import Diagnostic, VerifyReport
from repro.verify.equiv import certify_build, clear_equiv_cache
from repro.verify.memory import (
    ELEM_BYTES,
    BufferLife,
    MemoryPlan,
    _check_slots,
    _derived,
)
from repro.verify.verifier import BindingTable, binding_sets_of, binding_table

#: the module: ``repro.pipeline`` re-exports a function under its name
fp = importlib.import_module("repro.pipeline.fingerprint")

BOARDS = ("S10MX", "S10SX", "A10")
LEVELS = ("base", "unroll", "channels", "autorun", "tvm_autorun")

#: the shipped network:board builds (lenet5 at its top level), then
#: lenet5's levels on every board
SPECS = [(net, board, None) for net in ("lenet5", "mobilenet_v1", "resnet18")
         for board in BOARDS] + [
    ("lenet5", board, level) for board in BOARDS for level in LEVELS]


def _flow(network, board, level):
    board = board_by_name(board)
    if network == "lenet5":
        return pipelined_flow(network, board, level or LEVELS[-1], cache=False)
    return folded_flow(network, board, default_folded_config(network, board),
                       cache=False)


def _build(flow):
    """Every artifact of ``flow`` up to its ``plan`` stage."""
    names = [s.name for s in flow.stages]
    result = Pipeline(flow.name, flow.stages[: names.index("plan") + 1]).run()
    return {s.output: result.value(s.output)
            for s in flow.stages[: names.index("plan") + 1]}


def _verify(flow, artifacts):
    """The ``verify`` stage's report over ``artifacts``."""
    stage = next(s for s in flow.stages if s.name == "verify")
    ctx = Context(flow.name)
    for name, value in artifacts.items():
        ctx.put(Artifact(name, value, ""))
    try:
        return stage.fn(ctx)
    except VerificationError as e:
        return e.report


def _payload(report):
    return {
        "diagnostics": list(report.diagnostics),
        "counters": list(report.counters.items()),
        "certificates": {k: c.to_dict()
                         for k, c in report.certificates.items()},
        "memory": report.memory and report.memory.to_dict(),
        "memory_certificate": (report.memory_certificate
                               and report.memory_certificate.to_dict()),
    }


def _forget(artifacts):
    """Empty every lifetime memo the verify stage could replay."""
    for kernel in artifacts["program"].kernels:
        kernel.derived.clear()
    artifacts["plan"].derived.clear()
    clear_equiv_cache()
    clear_lower_cache()


# ---------------------------------------------------------------------------
class TestShippedReports:
    @pytest.mark.parametrize("network,board,level", SPECS)
    def test_replayed_report_equals_cold(self, network, board, level):
        flow = _flow(network, board, level)
        clear_lower_cache()
        _verify(flow, _build(flow))
        # a second build replays the lower cache's kernels and the
        # first build's verdicts, certificates and arena
        artifacts = _build(flow)
        warm = _payload(_verify(flow, artifacts))
        again = _payload(_verify(flow, artifacts))
        _forget(artifacts)
        cold = _payload(_verify(flow, artifacts))
        assert warm == cold
        assert again == cold
        names = dict(cold["counters"])
        assert names["source_lines"] > 0 and names["kernels_linted"] > 0
        assert cold["certificates"] and cold["memory_certificate"]

    def test_suppressed_count_survives_replay(self):
        flow = _flow("mobilenet_v1", "A10", None)
        artifacts = _build(flow)
        kwargs = dict(source=artifacts["source"], plan=artifacts["plan"],
                      board=ARRIA10, suppress=("RP002", "RP004", "RL001"))
        warm = verify_build(artifacts["program"], **kwargs)
        warm = verify_build(artifacts["program"], **kwargs)
        _forget(artifacts)
        cold = verify_build(artifacts["program"], **kwargs)
        assert warm.counters == cold.counters
        assert list(warm.counters) == list(cold.counters)
        assert warm.diagnostics == cold.diagnostics


# ---------------------------------------------------------------------------
def _lenet_channels():
    flow = _flow("lenet5", "A10", "channels")
    artifacts = _build(flow)
    return artifacts["program"], artifacts["source"]


def _edit(program, source):
    """``source`` with one memoized kernel's text edited so RL001,
    RL002, RL003 and RL004 fire in it."""
    kernel = next(k for k in program.kernels
                  if "read_channel_intel(" in emitted_text(k)
                  and " * restrict " in emitted_text(k))
    text = emitted_text(kernel)
    sig, rest = text.split("\n", 1)
    sig = sig.replace(" * restrict ", " * ", 1).replace(
        "(", "(const int dead_probe, ", 1)
    start = rest.index("read_channel_intel(") + len("read_channel_intel(")
    end = rest.index(")", start)
    rest = rest[:start] + "undeclared_probe" + rest[end:]
    guard = "  if (1) {\n    barrier(CLK_GLOBAL_MEM_FENCE);\n  }\n"
    return source.replace(text, f"{sig}\n{guard}{rest}", 1)


def _lint(source, kernels=()):
    report = cllint.lint_source(source, kernels=kernels)
    return report.diagnostics, list(report.counters.items())


class TestLintReplay:
    def test_edited_kernel_text_is_linted(self):
        program, source = _lenet_channels()
        assert _lint(source, program.kernels) == _lint(source)
        edited = _edit(program, source)
        found, counts = _lint(edited, program.kernels)
        assert (found, counts) == _lint(edited)
        rules = {d.rule for d in found}
        assert {"RL001", "RL002", "RL003", "RL004"} <= rules
        report = verify_build(program, source=edited)
        assert [d for d in report.diagnostics if d.rule.startswith("RL")] \
            == found

    def test_moved_and_foreign_kernels(self):
        program, source = _lenet_channels()
        _lint(source, program.kernels)
        texts = [emitted_text(k) for k in program.kernels]
        head = source[: source.index(texts[0])]
        # the program's kernels in reverse order
        moved = head + "\n\n".join(reversed(texts)) + "\n"
        assert _lint(moved, program.kernels) == _lint(moved)
        # a foreign kernel whose braces never close swallows the rest
        foreign = "kernel void foreign(global float * x) {\n  x[0] = 1;\n"
        opened = source.replace(texts[1], foreign + texts[1], 1)
        found, counts = _lint(opened, program.kernels)
        assert (found, counts) == _lint(opened)
        assert dict(counts)["kernels_linted"] == 2
        # a closed foreign kernel between two memoized ones
        closed = source.replace(texts[1], foreign + "}\n" + texts[1], 1)
        assert _lint(closed, program.kernels) == _lint(closed)

    def test_each_text_is_linted_once(self):
        clear_lower_cache()  # fresh kernels, with no lint verdict yet
        program, source = _lenet_channels()
        with counters.delta("", ("kernels_linted_fresh",)) as first:
            _lint(source, program.kernels)
        with counters.delta("", ("kernels_linted_fresh",)) as second:
            _lint(source, program.kernels)
        assert first["kernels_linted_fresh"] == len(program.kernels)
        assert second["kernels_linted_fresh"] == 0


# ---------------------------------------------------------------------------
def _pairwise_check_slots(memory, lives, report):
    """The slot check as a pairwise loop over every two slots."""
    checks = 0
    by_name = {l.name: l for l in lives}
    for l in lives:
        checks += 1
        if l.name not in memory.offsets:
            report.extend([Diagnostic(
                "RM004", "error",
                f"live value {l.name!r} ({l.layer}) has no arena slot",
                location=l.layer,
            )])
            continue
        off = memory.offsets[l.name]
        size = memory.sizes.get(l.name)
        if size != l.size_bytes:
            report.extend([Diagnostic(
                "RM004", "error",
                f"slot for {l.name!r} records {size} bytes but the value "
                f"is {l.size_bytes} bytes (access would escape the slot)",
                location=l.layer,
            )])
        if off % ELEM_BYTES != 0 or off < 0 or off + l.size_bytes > memory.arena_bytes:
            report.extend([Diagnostic(
                "RM004", "error",
                f"slot [{off}, {off + l.size_bytes}) for {l.name!r} is "
                f"misaligned or outside the {memory.arena_bytes}-byte arena",
                location=l.layer,
            )])
        if memory.intervals.get(l.name) != (l.first, l.last):
            report.extend([Diagnostic(
                "RM004", "error",
                f"recorded live interval {memory.intervals.get(l.name)} for "
                f"{l.name!r} drifts from the recomputed ({l.first}, {l.last})",
                location=l.layer,
            )])
    for name in memory.offsets:
        if name not in by_name:
            checks += 1
            report.extend([Diagnostic(
                "RM004", "error",
                f"arena slot {name!r} corresponds to no live value "
                "(stale plan)",
            )])
    ls = sorted((l for l in lives if l.name in memory.offsets),
                key=lambda l: l.name)
    for i, a in enumerate(ls):
        for b in ls[i + 1:]:
            checks += 1
            a0, a1 = memory.offsets[a.name], memory.offsets[a.name] + a.size_bytes
            b0, b1 = memory.offsets[b.name], memory.offsets[b.name] + b.size_bytes
            if a0 < b1 and b0 < a1 and a.overlaps(b):
                report.extend([Diagnostic(
                    "RM001", "error",
                    f"values {a.name!r} (live [{a.first}, {a.last}]) and "
                    f"{b.name!r} (live [{b.first}, {b.last}]) share arena "
                    f"bytes [{max(a0, b0)}, {min(a1, b1)}) while both live "
                    "— the reuse would clobber a needed activation",
                    location=f"{a.layer}/{b.layer}",
                )])
    return checks


def _both(memory, lives):
    sweep, pairwise = VerifyReport("s"), VerifyReport("p")
    checks = _check_slots(memory, lives, sweep)
    assert checks == _pairwise_check_slots(memory, lives, pairwise)
    assert sweep.diagnostics == pairwise.diagnostics
    return sweep.diagnostics, checks


@pytest.fixture(scope="module")
def arena():
    """MobileNetV1's folded liveness and its first-fit arena."""
    fused = fuse_operators(MODELS["mobilenet_v1"]())
    sched = schedule_folded(
        fused, default_folded_config("mobilenet_v1", ARRIA10), ARRIA10)
    lives, _, memory = _derived(fused, plan_folded(fused, sched))
    return lives, memory


def _copy(memory, **changes):
    return dataclasses.replace(
        memory, offsets=dict(memory.offsets), sizes=dict(memory.sizes),
        intervals=dict(memory.intervals), **changes)


class TestSlotSweep:
    def test_shipped_arena_is_clean(self, arena):
        lives, memory = arena
        found, checks = _both(memory, lives)
        assert not found
        n = len(lives)
        assert checks == n + n * (n - 1) // 2

    def test_overlapping_live_slots(self, arena):
        lives, memory = arena
        clobbered = _copy(memory)
        # every value at offset 0: each pair that is live together clashes
        for name in clobbered.offsets:
            clobbered.offsets[name] = 0
        found, _ = _both(clobbered, lives)
        assert len(found) > 1 and {d.rule for d in found} == {"RM001"}

    def test_misaligned_outside_stale_and_drifting_slots(self, arena):
        lives, memory = arena
        bad = _copy(memory)
        names = sorted(bad.offsets)
        bad.offsets[names[0]] += 2
        bad.offsets[names[1]] = bad.arena_bytes
        bad.offsets[names[2]] = -8
        bad.offsets["stale_value"] = 0
        bad.sizes[names[3]] += ELEM_BYTES
        first, last = bad.intervals[names[4]]
        bad.intervals[names[4]] = (first, last + 1)
        del bad.offsets[names[5]]
        found, _ = _both(bad, lives)
        assert {d.rule for d in found} == {"RM001", "RM004"}

    def test_random_arenas(self):
        rng = random.Random(7)
        for _ in range(300):
            lives = []
            for i in range(rng.randint(0, 12)):
                first = rng.randint(0, 8)
                lives.append(BufferLife(f"v{rng.randint(0, 15)}_{i}", f"l{i}",
                                        rng.choice((-4, 0, 4, 8, 12, 16, 32)),
                                        first, first + rng.randint(0, 4)))
            memory = MemoryPlan(
                subject="", arena_bytes=rng.choice((0, 32, 64)),
                naive_bytes=0,
                offsets={l.name: rng.choice((-4, 0, 2, 4, 8, 16, 24, 40))
                         for l in lives if rng.random() < 0.9},
                sizes={l.name: l.size_bytes for l in lives},
                intervals={l.name: (l.first, l.last) for l in lives},
                layers={l.name: l.layer for l in lives},
            )
            if rng.random() < 0.3:
                memory.offsets["stale"] = 0
            _both(memory, lives)


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mobilenet():
    fused = fuse_operators(MODELS["mobilenet_v1"]())
    sched = schedule_folded(
        fused, default_folded_config("mobilenet_v1", ARRIA10), ARRIA10)
    return fused, sched, lower_folded(sched)


class TestBindingTable:
    def test_one_table_per_plan(self, mobilenet):
        fused, sched, program = mobilenet
        plan = plan_folded(fused, sched)
        with counters.delta("", ("binding_tables",)) as made:
            verify_build(program, plan=plan, board=ARRIA10)
            certify_build(sched, plan=plan, dynamic_fallback=False)
            binding_sets_of(plan)
        assert made["binding_tables"] == 1
        table = plan.derived[BindingTable]
        assert binding_table(plan) is table
        assert binding_sets_of(plan) is table.sets

    def test_table_matches_the_invocations(self, mobilenet):
        fused, sched, _ = mobilenet
        plan = plan_folded(fused, sched)
        table = binding_table(plan)
        for name, sets in table.sets.items():
            keys = {tuple(sorted((v.name, c) for v, c in inv.bindings.items()))
                    for inv in plan.invocations
                    if inv.kernel_name == name and inv.bindings}
            assert len(sets) == len(keys)
            assert table.verdict_keys[name] == tuple(
                frozenset(b.items()) for b in sets)
            assert table.cert_keys[name] == tuple(sorted(
                tuple(sorted((v.name, int(c)) for v, c in b.items()))
                for b in sets))

    def test_certificate_fingerprint_bytes(self, mobilenet):
        fused, sched, _ = mobilenet
        plan = plan_folded(fused, sched)
        table = binding_table(plan)
        clear_equiv_cache()
        _, certs = certify_build(sched, plan=plan, dynamic_fallback=False)
        hashed = 0
        for sk in sched.kernels:
            key = equiv._cert_key(sk, table.cert_keys.get(sk.name, ()))
            if key is None:
                continue
            hashed += 1
            assert certs[sk.name].fingerprint == _old_fingerprint(
                ("equiv-cert", *key))
        assert hashed > 0


# ---------------------------------------------------------------------------
def _old_canonical(obj):
    """The canonical form as a scan over the registered rules per node."""
    from dataclasses import fields, is_dataclass

    from repro.relay.graph import Graph, OpNode
    from repro.relay.passes import FusedGraph, FusedNode

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return obj.hex()
    for cls, fn in reversed(fp._CANONICALIZERS):
        if isinstance(obj, cls):
            return _old_canonical(fn(obj))
    if isinstance(obj, (tuple, list)):
        return [_old_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_old_canonical(x) for x in obj), key=fp._sort_key)
    if isinstance(obj, dict):
        entries = [[_old_canonical(k), _old_canonical(v)]
                   for k, v in obj.items()]
        return sorted(entries, key=lambda e: fp._sort_key(e[0]))
    if isinstance(obj, OpNode):
        return ["op", obj.name, obj.op, _old_canonical(obj.attrs),
                [i.name for i in obj.inputs], list(obj.out_shape)]
    if isinstance(obj, Graph):
        return ["graph", obj.name, [_old_canonical(n) for n in obj.nodes]]
    if isinstance(obj, FusedNode):
        return ["fused-node", obj.anchor.name, obj.epilogue_kinds(),
                [n.name for n in obj.extra_inputs]]
    if isinstance(obj, FusedGraph):
        return ["fused-graph", _old_canonical(obj.graph),
                [_old_canonical(fn) for fn in obj.nodes]]
    if is_dataclass(obj) and not isinstance(obj, type):
        return ["dataclass", type(obj).__name__,
                {f.name: _old_canonical(getattr(obj, f.name))
                 for f in fields(obj)}]
    return ["repr", type(obj).__name__, repr(obj)]


def _old_fingerprint(obj):
    blob = json.dumps(_old_canonical(obj), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestFingerprints:
    def test_canonical_matches_the_rule_scan(self, mobilenet):
        fused, sched, _ = mobilenet
        config = default_folded_config("mobilenet_v1", ARRIA10)
        for obj in (fused, fused.graph, sched, config, ARRIA10,
                    DEFAULT_CONSTANTS, (b"\x01", {3, 1}, {"b": [1.5, None]}),
                    [ARRIA10, (config, ARRIA10)], int, BufferLife):
            assert canonical(obj) == _old_canonical(obj)
            assert fingerprint(obj) == _old_fingerprint(obj)

    def test_registration_drops_the_rule_table(self, monkeypatch):
        monkeypatch.setattr(fp, "_CANONICALIZERS", list(fp._CANONICALIZERS))
        monkeypatch.setattr(fp, "_RULES", {})

        class Probe:
            def __repr__(self):
                return "Probe()"

        class SubProbe(Probe):
            pass

        assert canonical(Probe()) == ["repr", "Probe", "Probe()"]
        register_canonicalizer(Probe, lambda p: ["probe"])
        assert canonical(Probe()) == ["probe"]
        assert canonical(SubProbe()) == ["probe"]
        # the latest registration that matches wins
        register_canonicalizer(SubProbe, lambda p: ["sub"])
        register_canonicalizer(Probe, lambda p: ["probe", 2])
        for obj in (Probe(), SubProbe(), [SubProbe(), {Probe(): 1}]):
            assert canonical(obj) == _old_canonical(obj)
        assert canonical(SubProbe()) == ["probe", 2]

    def test_plain_values_hash_like_their_canonical_form(self):
        for obj in (("equiv-cert", "ab", ((("n", 4), ("s", 1)),), ()),
                    [1, -2.5, None, True, "x", ("y", [3])], ()):
            assert plain_fingerprint(obj) == fingerprint(obj) \
                == _old_fingerprint(obj)

    def test_config_fingerprint_is_by_identity(self):
        wide = dataclasses.replace(ARRIA10, aluts=float(ARRIA10.aluts))
        assert wide == ARRIA10
        for config in ((ARRIA10, DEFAULT_CONSTANTS), (wide, DEFAULT_CONSTANTS),
                       (ARRIA10,), (), (default_folded_config(
                           "mobilenet_v1", ARRIA10), ARRIA10)):
            assert config_fingerprint(config) == fingerprint(config)
            assert config_fingerprint(config) == fingerprint(config)
        assert config_fingerprint((wide, DEFAULT_CONSTANTS)) != \
            config_fingerprint((ARRIA10, DEFAULT_CONSTANTS))


# ---------------------------------------------------------------------------
class TestSymbolicStrides:
    def test_form_reads_what_the_index_reads(self, mobilenet):
        _, _, program = mobilenet
        flow = _flow("lenet5", "A10", "autorun")
        kernels = list(program.kernels) + list(_build(flow)["program"].kernels)
        reads = []
        for kernel in kernels:
            args = set(kernel.scalar_args)
            for site in access_table(kernel).sites:
                reads.append(site.form.reads(args))
                assert reads[-1] == bool(free_vars(site.index) & args), (
                    kernel.name, site.index)
        assert any(reads) and not all(reads)
