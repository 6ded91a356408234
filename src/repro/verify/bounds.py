"""Static bounds checking of every buffer access in a lowered kernel.

Walks a kernel body keeping an interval environment (loop variables at
their trip ranges, symbolic shape/stride arguments at their bound
values) and evaluates each ``Load``/``Store`` index to a range:

* range inside ``[0, capacity-1]`` — proven in range;
* range entirely outside — **RB001** (violation), reported as an error
  when the access provably executes (all enclosing loops have at least
  one iteration and no conditional guards it), RB002 otherwise;
* anything else (overlap, symbolic extent, non-affine index) —
  **RB002** (unprovable), a warning, never an error.

Folded kernels are verified once per binding set: the caller passes the
concrete shape/stride values of each layer invocation, so a kernel
shared by many layers gets one verdict per distinct parameterization.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.buffer import Buffer
from repro.ir.kernel import Kernel
from repro.verify.diagnostics import Diagnostic, VerifyReport
from repro.verify.interval import Env, Interval, interval_of

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RB001", "RB002")

Bindings = Dict[_e.Var, int]


def buffer_capacity(buf: Buffer, bindings: Optional[Bindings] = None) -> Optional[int]:
    """Element count of a buffer under shape bindings; None if symbolic."""
    bindings = bindings or {}
    n = 1
    for d in buf.shape:
        if isinstance(d, int):
            n *= d
        else:
            v = bindings.get(d)
            if v is None:
                return None
            n *= v
    return n


class _BoundsChecker:
    def __init__(self, kernel: Kernel, bindings: Bindings,
                 report: VerifyReport, label: str) -> None:
        self.kernel = kernel
        self.report = report
        self.label = label
        self.bindings = bindings
        self.env: Env = {v: Interval.point(c) for v, c in bindings.items()}
        #: False once inside a conditional or a possibly-zero-trip loop
        self.definite = True
        #: (kernel, buffer, rule) already reported, to keep reports terse
        self.seen: set = set()

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._stmt(self.kernel.body)

    # ------------------------------------------------------------------
    def _stmt(self, s: _s.Stmt) -> None:
        if isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self._stmt(c)
        elif isinstance(s, _s.For):
            self._expr(s.extent)
            ext = interval_of(s.extent, self.env)
            saved_env = self.env.get(s.loop_var)
            saved_def = self.definite
            if ext is not None and ext.hi >= 1:
                self.env[s.loop_var] = Interval.extent(ext.hi)
                if ext.lo < 1:
                    self.definite = False
            else:
                # unknown or zero trip count: loop var stays unbounded
                self.env.pop(s.loop_var, None)
                self.definite = False
            self._stmt(s.body)
            if saved_env is not None:
                self.env[s.loop_var] = saved_env
            else:
                self.env.pop(s.loop_var, None)
            self.definite = saved_def
        elif isinstance(s, _s.Store):
            self._expr(s.index)
            self._expr(s.value)
            self._access(s.buffer, s.index, "store")
        elif isinstance(s, _s.Evaluate):
            self._expr(s.value)
        elif isinstance(s, _s.ChannelWrite):
            self._expr(s.value)
        elif isinstance(s, _s.IfThenElse):
            self._expr(s.cond)
            saved = self.definite
            self.definite = False
            self._stmt(s.then_body)
            if s.else_body is not None:
                self._stmt(s.else_body)
            self.definite = saved
        elif isinstance(s, (_s.Allocate, _s.AttrStmt)):
            self._stmt(s.body)

    # ------------------------------------------------------------------
    def _expr(self, e: _e.Expr) -> None:
        if isinstance(e, _e.Load):
            self._access(e.buffer, e.index, "load")
        for child in e.children():
            self._expr(child)

    # ------------------------------------------------------------------
    def _access(self, buf: Buffer, index: _e.Expr, what: str) -> None:
        self.report.bump("accesses_checked")
        cap = buffer_capacity(buf, self.bindings)
        rng = interval_of(index, self.env)
        if cap is None:
            self._diag("RB002", "warn", buf, (
                f"{what} of {buf.name}: buffer capacity is symbolic under "
                f"{self.label or 'the empty binding set'} — bounds unprovable"
            ))
            return
        if rng is None:
            self._diag("RB002", "warn", buf, (
                f"{what} of {buf.name}: index range is not statically "
                f"evaluable — bounds unprovable"
            ))
            return
        if 0 <= rng.lo and rng.hi < cap:
            self.report.bump("accesses_proven")
            return
        if rng.hi < 0 or rng.lo >= cap:
            # every possible index is outside the buffer
            sev = "error" if self.definite else "warn"
            rule = "RB001" if self.definite else "RB002"
            self._diag(rule, sev, buf, (
                f"{what} of {buf.name}: index range {rng} is entirely "
                f"outside [0, {cap - 1}]"
                + ("" if self.definite else " (access may not execute)")
            ))
            return
        self._diag("RB002", "warn", buf, (
            f"{what} of {buf.name}: index range {rng} overlaps the end of "
            f"[0, {cap - 1}] — bounds unprovable"
        ))

    def _diag(self, rule: str, severity: str, buf: Buffer, message: str) -> None:
        key = (rule, buf.name, message)
        if key in self.seen:
            return
        self.seen.add(key)
        if rule == "RB002":
            self.report.bump("accesses_unprovable")
        location = buf.name if not self.label else f"{buf.name}@{self.label}"
        self.report.diagnostics.append(
            Diagnostic(rule, severity, message, kernel=self.kernel.name,
                       location=location)
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
    sets = binding_sets if binding_sets else [{}]
    for bindings in sets:
        by_name = sorted({v.name: c for v, c in bindings.items()}.items())
        label = ",".join(f"{n}={c}" for n, c in by_name)
        _BoundsChecker(kernel, bindings, report, label).run()
    report.bump("kernels_bounds_checked")
    return report
