"""Diagnostics vocabulary of the static verifier.

Every analyzer emits :class:`Diagnostic` records tagged with a stable
rule ID (``RB001``…), a severity, and a location (kernel / loop /
buffer or channel).  A :class:`VerifyReport` aggregates the diagnostics
of one verification run together with coverage counters (how many
accesses were proven, how many channels matched) so "clean" is
distinguishable from "didn't look".

Severities:

``error``
    A proven defect (out-of-bounds access, write race, protocol
    mismatch, deadlock cycle).  The ``verify`` pipeline stage fails on
    any error, and the CI static-check job fails the build.
``warn``
    A property the verifier could not prove (symbolic extent outside
    the binding set, non-affine index) or a likely inefficiency.
``advice``
    A performance finding from the RP analyzers: the build is correct
    but a specific schedule rewrite would make it faster (register-cache
    an accumulator, pin a stride, tile a reuse loop).  Advice never
    fails a build.
``info``
    A note (e.g. an under-provisioned channel FIFO that can only cost
    performance, never correctness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

SEVERITIES = ("error", "warn", "advice", "info")

#: rule ID -> one-line description.  ``tools/lint.py`` cross-checks this
#: registry against the catalog in ``docs/verification.md``; keep the
#: two in sync.
RULES: Dict[str, str] = {
    "RB001": "out-of-bounds buffer access (index interval provably outside the buffer)",
    "RB002": "unprovable buffer access (index interval overlaps or exceeds the analyzable range)",
    "RR001": "unroll write race (two replicated iterations store different values to one address)",
    "RR002": "read of a never-initialized buffer region (def-before-use)",
    "RR003": "unprovable unroll disjointness (non-affine store index under an unrolled loop)",
    "RC001": "channel read/write count mismatch between producer and consumer",
    "RC002": "unprovable channel traffic (symbolic or conditional read/write count)",
    "RC003": "wait cycle in the static channel graph (deadlock)",
    "RC004": "channel FIFO depth exceeds the traffic it can ever hold (wasted BRAM)",
    "RC005": "channel FIFO shallower than the producer's per-image traffic (may back-pressure)",
    "RC006": "execution plan inconsistent with the program's channel topology",
    "RL001": "kernel argument declared but never referenced in the kernel body",
    "RL002": "global pointer argument missing the restrict qualifier",
    "RL003": "barrier inside divergent control flow",
    "RL004": "channel used but never declared at file scope",
    "RP001": "loop-carried dependence on a non-register accumulator sets the II (register-cache it)",
    "RP002": "replicated non-coalescible LSU streams stall the loop in the memory arbiter",
    "RP003": "symbolic stride defeats compile-time alignment (bandwidth efficiency drops)",
    "RP004": "repeated reads whose reuse working set exceeds the LSU cache (tile or cache the block)",
    "RP005": "kernel is memory-bound at the board's bandwidth roof for a binding set",
    "RP006": "coalesced access width exceeds what external memory can feed per cycle",
    "RE001": "scheduled kernel provably computes different results than the naive lowering (dropped writeback/axis or failed dynamic cross-check)",
    "RE002": "reduce axis reordered outside the writeback axis, breaking the accumulator's loop-carried recurrence",
    "RE003": "reduce visit order differs from the naive left fold (floating-point reassociation, not bit-exact)",
    "RE004": "symbolic split factor does not divide the axis extent under a binding set (tail iterations dropped)",
    "RE005": "pinned unit stride binds to a non-unit value in a binding set (wrong addressing)",
    "RE006": "equivalence not statically provable (outside the prover fragment); one dynamic cross-check gates acceptance",
    "RM001": "memory reuse pair with overlapping live ranges (a still-live activation would be clobbered)",
    "RM002": "buffer size unresolvable under the binding sets (symbolic shape; footprint cannot be bounded)",
    "RM003": "network DDR footprint (arena + weights) exceeds the board's global-memory capacity",
    "RM004": "memory plan drifts from the program/plan (stale slot, wrong size, or access escapes its slot)",
    "RM005": "non-interfering activation buffers left unshared (safe arena reuse would save bytes)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analyzer."""

    rule: str
    severity: str
    message: str
    #: kernel the finding is in ("" for program/plan/source-level findings)
    kernel: str = ""
    #: finer location: loop var, buffer, channel or source line
    location: str = ""
    #: machine-readable fix the auto-scheduler can apply: a dict naming
    #: a schedule transform (``{"transform": "cache_write", ...}``) or a
    #: tiling adjustment (``{"transform": "shrink", "dim": ...}``);
    #: ``None`` when the finding has no mechanical rewrite
    fix: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        assert self.rule in RULES, f"unknown rule {self.rule!r}"
        assert self.severity in SEVERITIES, f"unknown severity {self.severity!r}"

    def format(self) -> str:
        where = self.kernel or "<program>"
        if self.location:
            where += f":{self.location}"
        return f"[{self.rule}] {self.severity:<5} {where}: {self.message}"


@dataclass
class VerifyReport:
    """All diagnostics plus coverage counters of one verification run."""

    subject: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: coverage: accesses proven, kernels/channels checked, lint lines...
    counters: Dict[str, int] = field(default_factory=dict)
    #: kernel -> :class:`~repro.verify.equiv.EquivCertificate`, kept by
    #: the ``verify`` stage when the RE certifier ran
    certificates: Dict[str, object] = field(default_factory=dict)
    #: the :class:`~repro.verify.memory.MemoryPlan` and its
    #: :class:`~repro.verify.memory.MemoryCertificate`, kept by the
    #: ``verify`` stage when the RM certifier ran
    memory: Optional[object] = None
    memory_certificate: Optional[object] = None

    # ------------------------------------------------------------------
    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def merge(self, other: "VerifyReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        for k, v in other.counters.items():
            self.bump(k, v)

    # ------------------------------------------------------------------
    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity("warn")

    @property
    def advice(self) -> List[Diagnostic]:
        return self.by_severity("advice")

    @property
    def clean(self) -> bool:
        """No error-severity findings (warn/info do not make a run dirty)."""
        return not self.errors

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    # ------------------------------------------------------------------
    def summary_counters(self) -> Dict[str, int]:
        out = dict(self.counters)
        for sev in SEVERITIES:
            out[sev] = len(self.by_severity(sev))
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "clean": self.clean,
            "counters": self.summary_counters(),
            "diagnostics": [
                {
                    "rule": d.rule,
                    "severity": d.severity,
                    "kernel": d.kernel,
                    "location": d.location,
                    "message": d.message,
                    "fix": d.fix,
                }
                for d in self.diagnostics
            ],
        }

    def format_table(
        self,
        max_width: Optional[int] = None,
        fixes: Optional[Dict[str, str]] = None,
    ) -> str:
        """Counters then findings, most severe first.

        ``fixes`` maps a rule ID to a one-line remedy printed under each
        finding of that rule.
        """
        fixes = fixes or {}
        lines = [f"verify: {self.subject}"]
        c = self.summary_counters()
        lines.append(
            "  " + ", ".join(f"{k}={v}" for k, v in sorted(c.items()) if v)
        )
        if not self.diagnostics:
            lines.append("  clean — no findings")
        for d in sorted(
            self.diagnostics,
            key=lambda d: (SEVERITIES.index(d.severity), d.rule, d.kernel),
        ):
            line = "  " + d.format()
            if max_width is not None and len(line) > max_width:
                line = line[: max_width - 1] + "…"
            lines.append(line)
            if d.rule in fixes:
                lines.append(f"      fix: {fixes[d.rule]}")
        return "\n".join(lines)
