"""Orchestration: run every analyzer family over one build's artifacts.

:func:`verify_build` is the single entry point used by the pipeline's
``verify`` stage, whose report ``repro.report --check`` renders.  It
fans out to

* :func:`repro.verify.bounds.check_bounds` per kernel (once per binding
  set for folded kernels),
* :func:`repro.verify.races.check_races` per kernel,
* :func:`repro.verify.perf.check_perf` per kernel when a board is given
  (the RP performance advisor, over the kernel's memoized
  :class:`~repro.aoc.analysis.KernelAnalysis`),
* :func:`repro.verify.channels.check_channels` over the program (plus
  the :class:`~repro.runtime.plan.PipelinePlan`, when the deployment is
  pipelined), and
* :func:`repro.verify.cllint.lint_source` over the emitted OpenCL text,

then applies rule suppressions and returns one merged
:class:`~repro.verify.diagnostics.VerifyReport`.  The per-kernel checks
all read the kernel's one access table
(:func:`repro.ir.analysis.access_table`), and their verdict depends on
nothing else: each kernel is checked into its own report, kept in the
kernel's lifetime memo (``Kernel.derived``) under the ordered binding
sets (the RP rules report the first set that triggers them), the board
and the AOC constants, all by value.  The binding sets come from the
plan's :class:`BindingTable`, built once per plan and shared with the
equivalence certifier.  A kernel that the lower cache replays into
another build is therefore checked once per distinct key, and the
source lint replays its verdict too, linting only the file-scope lines
and the kernels new to the build; the channel checks read the whole
program and run on every call.  :func:`assert_clean`
turns a dirty report into a :class:`~repro.errors.VerificationError`
whose message carries the formatted findings — this is what makes the
``verify`` stage fail a deploy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.counters import count
from repro.device.boards import Board
from repro.errors import VerificationError
from repro.ir.kernel import Program
from repro.runtime.plan import Bindings, FoldedPlan, PipelinePlan
from repro.verify.bounds import check_bounds
from repro.verify.channels import check_channels
from repro.verify.cllint import lint_source
from repro.verify.diagnostics import RULES, VerifyReport
from repro.verify.perf import check_perf
from repro.verify.races import check_races

Plan = Union[PipelinePlan, FoldedPlan]


class BindingTable:
    """The distinct shape/stride binding sets of a folded plan's kernels.

    A folded kernel is shared by many layers; each invocation carries the
    concrete values of its symbolic shape and stride arguments.  The
    checkers verify a kernel once per *distinct* binding set (by name and
    value), not once per invocation.  Per kernel name the table holds the
    sets in invocation order (:attr:`sets`), the key of
    :func:`verify_build`'s per-kernel verdict (:attr:`verdict_keys`) and
    the sorted ``(name, value)`` tuples the equivalence certificate is
    keyed by (:attr:`cert_keys`).  :func:`binding_table` builds it once
    per plan, counted as ``binding_tables``.
    """

    def __init__(self, plan: FoldedPlan) -> None:
        count("binding_tables")
        self.sets: Dict[str, List[Bindings]] = {}
        seen: Dict[str, set] = {}
        for inv in plan.invocations:
            if not inv.bindings:
                continue
            key = tuple(sorted((v.name, int(c)) for v, c in inv.bindings.items()))
            if key in seen.setdefault(inv.kernel_name, set()):
                continue
            seen[inv.kernel_name].add(key)
            self.sets.setdefault(inv.kernel_name, []).append(inv.bindings)
        self.verdict_keys: Dict[str, tuple] = {
            name: tuple(frozenset(b.items()) for b in sets)
            for name, sets in self.sets.items()
        }
        # the deduplication keys are the certificate's tuples already
        self.cert_keys: Dict[str, tuple] = {
            name: tuple(sorted(keys)) for name, keys in seen.items()
        }


def bindings_key(binding_sets: Iterable[Bindings]) -> tuple:
    """Binding sets as one sorted tuple of sorted ``(name, value)``
    tuples: what an equivalence certificate is keyed by, whatever the
    order of the sets."""
    return tuple(sorted(
        tuple(sorted((v.name, int(c)) for v, c in bs.items()))
        for bs in binding_sets
    ))


def binding_table(plan: FoldedPlan) -> BindingTable:
    """The plan's :class:`BindingTable`, built on first use and kept in
    ``plan.derived`` (a plan is not edited once built)."""
    table = plan.derived.get(BindingTable)
    if table is None:
        table = plan.derived[BindingTable] = BindingTable(plan)
    return table


def binding_sets_of(plan: FoldedPlan) -> Dict[str, List[Bindings]]:
    """Distinct per-kernel shape/stride binding sets of a folded plan,
    in invocation order (:attr:`BindingTable.sets`; shared, not to be
    edited)."""
    return binding_table(plan).sets


def verify_build(
    program: Program,
    source: Optional[str] = None,
    plan: Optional[Plan] = None,
    subject: str = "",
    suppress: Iterable[str] = (),
    board: Optional[Board] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> VerifyReport:
    """Statically verify one build: bounds, races, channels, source lint.

    ``plan`` tailors the run: a :class:`FoldedPlan` supplies the binding
    sets the bounds checker needs for symbolic kernels, a
    :class:`PipelinePlan` is cross-checked against the program's channel
    topology.  ``suppress`` drops findings by rule ID (unknown IDs are
    rejected) and counts them under the ``suppressed`` counter.  With a
    ``board`` the performance advisor (RP rules) also runs, classifying
    each kernel against that board's bandwidth roof and emitting
    advice-severity findings; without one, only the correctness families
    run.
    """
    suppress = frozenset(suppress)
    unknown = suppress - frozenset(RULES)
    if unknown:
        raise ValueError(f"unknown rule ID(s) in suppress: {sorted(unknown)}")

    report = VerifyReport(subject=subject or program.name)
    table = binding_table(plan) if isinstance(plan, FoldedPlan) else None
    for kernel in program.kernels:
        sets = table.sets.get(kernel.name, []) if table else []
        key = (VerifyReport,
               table.verdict_keys.get(kernel.name, ()) if table else (),
               board, constants)
        verdict = kernel.derived.get(key)
        if verdict is None:
            verdict = kernel.derived[key] = VerifyReport(subject=kernel.name)
            check_bounds(kernel, sets, verdict)
            check_races(kernel, sets, verdict)
            if board is not None:
                check_perf(kernel, sets, verdict, board, constants)
        report.merge(verdict)
    check_channels(
        program, plan if isinstance(plan, PipelinePlan) else None, report
    )
    if source is not None:
        lint_source(source, report, program.kernels)

    if suppress:
        kept = [d for d in report.diagnostics if d.rule not in suppress]
        report.bump("suppressed", len(report.diagnostics) - len(kept))
        report.diagnostics = kept
    return report


def assert_clean(report: VerifyReport) -> VerifyReport:
    """Raise :class:`VerificationError` if the report has any errors."""
    if not report.clean:
        findings = "\n".join(d.format() for d in report.errors)
        raise VerificationError(
            f"static verification of {report.subject} found "
            f"{len(report.errors)} error(s):\n{findings}",
            report=report,
        )
    return report
