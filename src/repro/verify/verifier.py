"""Orchestration: run every analyzer family over one build's artifacts.

:func:`verify_build` is the single entry point used by the pipeline's
``verify`` stage, whose report ``repro.report --check`` renders.  It
fans out to

* :func:`repro.verify.bounds.check_bounds` per kernel (once per binding
  set for folded kernels),
* :func:`repro.verify.races.check_races` per kernel,
* :func:`repro.verify.channels.check_channels` over the program (plus
  the :class:`~repro.runtime.plan.PipelinePlan`, when the deployment is
  pipelined), and
* :func:`repro.verify.cllint.lint_source` over the emitted OpenCL text,

then applies rule suppressions and returns one merged
:class:`~repro.verify.diagnostics.VerifyReport`.  :func:`assert_clean`
turns a dirty report into a :class:`~repro.errors.VerificationError`
whose message carries the formatted findings — this is what makes the
``verify`` stage fail a deploy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
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


def binding_sets_of(plan: FoldedPlan) -> Dict[str, List[Bindings]]:
    """Distinct per-kernel shape/stride binding sets of a folded plan.

    A folded kernel is shared by many layers; each invocation carries the
    concrete values of its symbolic shape and stride arguments.  The
    bounds checker verifies the kernel once per *distinct* binding set,
    not once per invocation.
    """
    out: Dict[str, List[Bindings]] = {}
    seen: Dict[str, set] = {}
    for inv in plan.invocations:
        if not inv.bindings:
            continue
        key = tuple(sorted((v.name, c) for v, c in inv.bindings.items()))
        if key in seen.setdefault(inv.kernel_name, set()):
            continue
        seen[inv.kernel_name].add(key)
        out.setdefault(inv.kernel_name, []).append(inv.bindings)
    return out


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
    bindings = binding_sets_of(plan) if isinstance(plan, FoldedPlan) else {}
    for kernel in program.kernels:
        # adopt same-named vars: a kernel replayed from the lower cache
        # carries its own alpha-equivalent vars, distinct from the plan's
        sets = [kernel.bind_by_name(b) for b in bindings.get(kernel.name, ())]
        check_bounds(kernel, sets, report)
        check_races(kernel, sets, report)
        if board is not None:
            check_perf(kernel, sets, report, board, constants)
    check_channels(
        program, plan if isinstance(plan, PipelinePlan) else None, report
    )
    if source is not None:
        lint_source(source, report)

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
