"""Static bounds checking of every buffer access in a lowered kernel.

Reads each site of the kernel's access table
(:func:`repro.ir.analysis.access_table`) under an interval environment
built from its enclosing loops (loop variables at their trip ranges,
symbolic shape/stride arguments at their bound values) and evaluates
its ``Load``/``Store`` index to a range:

* range inside ``[0, capacity-1]`` — proven in range;
* range entirely outside — **RB001** (violation), reported as an error
  when the access provably executes (all enclosing loops have at least
  one iteration and no conditional guards it), RB002 otherwise;
* anything else (overlap, symbolic extent, non-affine index) —
  **RB002** (unprovable), a warning, never an error.

Folded kernels are verified once per binding set: the caller passes the
concrete shape/stride values of each layer invocation, so a kernel
shared by many layers gets one verdict per distinct parameterization —
one table, evaluated once per binding set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import AccessSite, access_table
from repro.ir.kernel import Kernel
from repro.verify.diagnostics import Diagnostic, VerifyReport
from repro.verify.interval import Env, Interval, interval_of

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RB001", "RB002")

Bindings = Dict[_e.Var, int]


def _loop_scope(
    loops: Tuple[_s.For, ...], bindings: Bindings
) -> Tuple[Env, bool]:
    """Interval env inside ``loops`` and whether their body surely runs.

    The body is definite while every enclosing loop provably has at
    least one iteration; a loop whose trip count is unknown or possibly
    zero leaves its variable unbounded.
    """
    env: Env = {v: Interval.point(c) for v, c in bindings.items()}
    definite = True
    for loop in loops:
        ext = interval_of(loop.extent, env)
        if ext is not None and ext.hi >= 1:
            env[loop.loop_var] = Interval.extent(ext.hi)
            definite = definite and ext.lo >= 1
        else:
            env.pop(loop.loop_var, None)
            definite = False
    return env, definite


def _finding(
    site: AccessSite, cap: Optional[int], rng: Optional[Interval],
    definite: bool, label: str,
) -> Optional[Tuple[str, str, str]]:
    """``(rule, severity, message)`` for one access; None when proven."""
    buf = site.buffer
    what = "store" if site.is_store else "load"
    if cap is None:
        return "RB002", "warn", (
            f"{what} of {buf.name}: buffer capacity is symbolic under "
            f"{label or 'the empty binding set'} — bounds unprovable"
        )
    if rng is None:
        return "RB002", "warn", (
            f"{what} of {buf.name}: index range is not statically "
            f"evaluable — bounds unprovable"
        )
    if 0 <= rng.lo and rng.hi < cap:
        return None
    if rng.hi < 0 or rng.lo >= cap:
        # every possible index is outside the buffer
        message = (
            f"{what} of {buf.name}: index range {rng} is entirely "
            f"outside [0, {cap - 1}]"
        )
        if definite:
            return "RB001", "error", message
        return "RB002", "warn", message + " (access may not execute)"
    return "RB002", "warn", (
        f"{what} of {buf.name}: index range {rng} overlaps the end of "
        f"[0, {cap - 1}] — bounds unprovable"
    )


def check_bounds(
    kernel: Kernel,
    binding_sets: Optional[List[Bindings]] = None,
    report: Optional[VerifyReport] = None,
) -> VerifyReport:
    """Bounds-check one kernel under each binding set.

    ``binding_sets`` is a list of Var->int maps (one per distinct
    parameterization of a folded kernel); static kernels pass none and
    are checked once with an empty binding set.
    """
    if report is None:
        report = VerifyReport(subject=kernel.name)
    sites = access_table(kernel).sites
    for bindings in binding_sets or [{}]:
        by_name = sorted((v.name, c) for v, c in bindings.items())
        label = ",".join(f"{n}={c}" for n, c in by_name)
        scopes: Dict[Tuple[_s.For, ...], Tuple[Env, bool]] = {}
        seen: set = set()
        for site in sites:
            if site.loops not in scopes:
                scopes[site.loops] = _loop_scope(site.loops, bindings)
            env, definite = scopes[site.loops]
            report.bump("accesses_checked")
            found = _finding(
                site, site.buffer.num_elements(bindings),
                interval_of(site.index, env), definite and not site.guarded,
                label,
            )
            if found is None:
                report.bump("accesses_proven")
                continue
            rule, severity, message = found
            name = site.buffer.name
            # report each distinct finding once per binding set
            if (rule, name, message) in seen:
                continue
            seen.add((rule, name, message))
            if rule == "RB002":
                report.bump("accesses_unprovable")
            report.diagnostics.append(Diagnostic(
                rule, severity, message, kernel=kernel.name,
                location=f"{name}@{label}" if label else name,
            ))
    report.bump("kernels_bounds_checked")
    return report
