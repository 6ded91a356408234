"""Unroll write-race detection and def-before-use analysis.

AOC replicates the body of an ``#pragma unroll`` loop into parallel
hardware (thesis §5): all unrolled iterations execute concurrently.  Two
iterations may therefore race when a ``Store`` under an unrolled loop
targets the *same* address in different iterations.  Both passes read
the kernel's access table (:func:`repro.ir.analysis.access_table`); the
detector reads the stride of each store site an unrolled loop encloses
along that loop's variable from the site's affine form
(:attr:`repro.ir.analysis.AccessSite.form`), under each binding set:

* a non-zero constant stride means distinct iterations write distinct
  addresses — disjoint, proven race-free;
* stride 0 with a value that reads the stored location back
  (``acc[i] = acc[i] + ...``) is a reduction update — AOC serializes it
  through the dependence chain (it builds an adder tree), not a race;
* stride 0 with an iteration-dependent value is a real race — two
  replicas drive different values onto one address (**RR001**, error);
* a non-affine store index leaves disjointness unprovable (**RR003**).

The def-before-use pass (**RR002**) flags reads of kernel-allocated
(local/register) buffers that can execute before any store to the
buffer: in OpenCL such reads return undefined data.  Granularity is the
whole buffer, read in the table's program order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import AccessSite, AccessTable, access_table, free_vars
from repro.ir.kernel import Kernel
from repro.verify.diagnostics import Diagnostic, VerifyReport

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RR001", "RR002", "RR003")

Bindings = Dict[_e.Var, int]


def check_races(
    kernel: Kernel,
    binding_sets: Optional[List[Bindings]] = None,
    report: Optional[VerifyReport] = None,
) -> VerifyReport:
    """Run the unroll-race and def-before-use analyses over one kernel.

    ``binding_sets`` carries the concrete shape/stride values of a folded
    kernel's invocations, so symbolic store strides (``ff * s_o0``) fold
    to constants and disjointness becomes provable per parameterization.
    """
    if report is None:
        report = VerifyReport(subject=kernel.name)
    table = access_table(kernel)
    # unrolled loops in pre-order, each with the stores it encloses in
    # program order: a loop's first store comes before any later loop's
    stores: Dict[_s.For, List[AccessSite]] = {}
    for site in table.sites:
        if site.is_store:
            for loop in site.loops:
                if loop.kind is _s.ForKind.UNROLLED:
                    stores.setdefault(loop, []).append(site)
    seen: Set[tuple] = set()
    for bindings in binding_sets or [{}]:
        for loop, group in stores.items():
            _check_one_unrolled(kernel, loop, group, bindings, report, seen)
    _check_def_before_use(kernel, table, report)
    report.bump("kernels_race_checked")
    return report


# ---------------------------------------------------------------------------
def _check_one_unrolled(
    kernel: Kernel,
    loop: _s.For,
    stores: List[AccessSite],
    bindings: Bindings,
    report: VerifyReport,
    seen: Set[tuple],
) -> None:
    var = loop.loop_var
    # a factor-1 "unroll" replicates nothing, so nothing can race
    if loop.unroll_factor == 1 or loop.static_extent == 1:
        return

    def diag(rule: str, severity: str, message: str) -> None:
        key = (rule, var.name, message)
        if key not in seen:
            seen.add(key)
            report.diagnostics.append(Diagnostic(
                rule, severity, message, kernel=kernel.name, location=var.name,
            ))

    for store in stores:
        report.bump("unrolled_stores_checked")
        (stride,) = store.form.strides((var,), bindings)
        if stride is None:
            diag(
                "RR003", "warn",
                f"store to {store.buffer.name} under unrolled loop "
                f"{var.name}: index is not affine in {var.name} — "
                f"disjointness unprovable",
            )
            continue
        if stride != 0:
            report.bump("unrolled_stores_disjoint")
            continue  # distinct iterations hit distinct addresses
        if store.accumulates:
            report.bump("unrolled_reduction_updates")
            continue  # read-modify-write: a dependence chain, not a race
        if var in free_vars(store.value):
            diag(
                "RR001", "error",
                f"store to {store.buffer.name} under unrolled loop "
                f"{var.name}: all iterations write the same address with "
                f"iteration-dependent values — replicated hardware races",
            )
        # else: every replica writes the same value — redundant but benign


# ---------------------------------------------------------------------------
def _check_def_before_use(
    kernel: Kernel, table: AccessTable, report: VerifyReport
) -> None:
    """Flag loads of kernel-allocated buffers before any store to them."""
    stored: Set[str] = set()
    flagged: Set[str] = set()
    for site in table.sites:
        buf = site.buffer
        if site.is_store:
            stored.add(buf.name)
        elif (buf.scope != "global" and buf.name not in stored
              and buf.name not in flagged):
            flagged.add(buf.name)
            report.diagnostics.append(Diagnostic(
                "RR002", "warn",
                f"load of {buf.scope} buffer {buf.name} can execute "
                f"before any store to it (undefined data)",
                kernel=kernel.name, location=buf.name,
            ))
