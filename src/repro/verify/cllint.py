"""Lint over emitted OpenCL-C source (the ``codegen`` stage's artifact).

The other analyzers work on IR; this one checks the text AOC would
actually consume, so hand-edited or externally produced ``.cl`` files
get the same gate.  Checks:

* **RL001** — a kernel parameter never referenced in the kernel body
  (dead argument; costs an LSU/port for nothing);
* **RL002** — a ``global`` pointer parameter without ``restrict``
  (AOC must assume aliasing and serializes overlapping accesses,
  thesis §4.4);
* **RL003** — ``barrier(...)`` lexically inside an ``if`` block
  (divergent control: work-items that skip the barrier hang the rest);
* **RL004** — ``read_channel_intel``/``write_channel_intel`` on a
  channel with no file-scope ``channel`` declaration.

The linter is a single pass over the text with brace tracking — no C
parser — which is exactly enough for compiler-emitted source.  A pass
that is outside every kernel at a line boundary can be split there, so
the text of a kernel the code generator emitted is linted once per
kernel object and text (kept in ``Kernel.derived``): a build of a DSE
sweep lints its file-scope lines and the kernels that are new to it,
and replays the verdicts of the kernels the lower cache replayed.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Set, Tuple

from repro.codegen.opencl import emitted_text
from repro.counters import count
from repro.ir.kernel import Kernel
from repro.verify.diagnostics import Diagnostic, VerifyReport

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RL001", "RL002", "RL003", "RL004")

_CHANNEL_DECL = re.compile(r"^channel\s+\w+\s+(\w+)")
_KERNEL_SIG = re.compile(r"kernel\s+void\s+(\w+)\s*\(([^)]*)\)")
_CHANNEL_USE = re.compile(r"(?:read|write)_channel_intel\s*\(\s*(\w+)")
_WORD = r"(?<![A-Za-z0-9_]){}(?![A-Za-z0-9_])"
_IDENT = re.compile(r"[A-Za-z0-9_]+")


def _param_name(param: str) -> Optional[str]:
    """Last identifier of a C parameter declarator."""
    words = re.findall(r"[A-Za-z_]\w*", param)
    return words[-1] if words else None


def lint_source(
    source: str,
    report: Optional[VerifyReport] = None,
    kernels: Sequence[Kernel] = (),
) -> VerifyReport:
    """Lint one emitted ``.cl`` translation unit.

    ``kernels`` are the program the source was emitted from.  The text
    the code generator emitted for each of them
    (:func:`~repro.codegen.opencl.emitted_text`), where it appears whole
    on its own lines, in program order, is linted once per kernel and
    text: its verdict is kept in the kernel's lifetime memo
    (``Kernel.derived``), keyed by that text.  Every other line — the
    file-scope declarations, and any kernel no memo matches (a
    hand-edited or foreign function) — is linted here, and the findings
    come out as one pass over the whole text would give them.
    """
    if report is None:
        report = VerifyReport(subject="<source>")
    lines = source.splitlines()
    report.bump("source_lines", len(lines))
    regions = _regions(lines, kernels)
    declared = set().union(*(region.declared for _, region in regions))
    for start, region in regions:
        region.report(start, declared, report)
    return report


class _Region:
    """The lint of a run of source lines, wherever they sit: the
    channels they declare at the start of a line and, per kernel, its
    RL001/RL002 findings, the barrier lines RL003 flags (counted from
    the run's first line) and the channels its body uses.  ``open``
    says the last kernel's braces do not close within the run."""

    __slots__ = ("lines", "declared", "kernels", "open")

    def __init__(self, lines: List[str]) -> None:
        self.lines = lines
        self.declared = {
            m.group(1) for line in lines
            for m in [_CHANNEL_DECL.match(line.strip())] if m
        }
        self.kernels: List[Tuple[str, List[Diagnostic], List[int], List[str]]] = []
        found = _kernels(lines)
        self.open = bool(found) and not _closes(lines[found[-1][3] - 1:])
        for name, params, body, body_line in found:
            count("kernels_linted_fresh")
            self.kernels.append((
                name, _param_findings(name, params, body),
                [body_line + off for off in _barrier_lines(body)]
                if "barrier" in body else [],
                [m.group(1) for m in _CHANNEL_USE.finditer(body)],
            ))

    def report(self, start: int, declared: Set[str], report: VerifyReport) -> None:
        """Add the run's findings to ``report``, its first line being
        line ``start`` (from 0) of a source that declares ``declared``."""
        for name, findings, barriers, uses in self.kernels:
            report.bump("kernels_linted")
            report.diagnostics.extend(findings)
            for line in barriers:
                report.diagnostics.append(Diagnostic(
                    "RL003", "error",
                    "barrier inside divergent control flow — work-items "
                    "that skip it deadlock the work-group",
                    kernel=name, location=f"line {start + line + 1}",
                ))
            for channel in uses:
                if channel not in declared:
                    report.diagnostics.append(Diagnostic(
                        "RL004", "error",
                        f"channel {channel!r} is used but never declared "
                        f"at file scope",
                        kernel=name, location=channel,
                    ))


def _regions(
    lines: List[str], kernels: Sequence[Kernel]
) -> List[Tuple[int, _Region]]:
    """``lines`` as consecutive ``(first line, region)`` runs: each
    kernel's memoized region where its emitted text is found after the
    previous run, the lines between linted afresh.

    The text is scanned line by line, a kernel running from its
    signature line until its braces close, so a split point where the
    scan is outside every kernel changes no finding; when a run other
    than the last ends inside one, the whole text is one run.
    """
    out: List[Tuple[int, _Region]] = []
    pos = 0
    for kernel in kernels:
        text = emitted_text(kernel)
        if not text:
            continue
        key = (_Region, text)
        region = kernel.derived.get(key)
        run = region.lines if region else text.splitlines()
        at = _find(lines, run, pos)
        if at is None:
            continue
        if region is None:
            region = kernel.derived[key] = _Region(run)
        if any(lines[pos:at]):  # blank lines declare and open nothing
            out.append((pos, _Region(lines[pos:at])))
        out.append((at, region))
        pos = at + len(region.lines)
    if pos < len(lines) or not out:
        out.append((pos, _Region(lines[pos:])))
    if any(region.open for _, region in out[:-1]):
        return [(0, _Region(lines))]
    return out


def _find(lines: List[str], run: List[str], pos: int) -> Optional[int]:
    """First index ``>= pos`` where ``run`` occurs in ``lines``."""
    n = len(run)
    try:
        while True:
            at = lines.index(run[0], pos)
            if lines[at:at + n] == run:
                return at
            pos = at + 1
    except ValueError:
        return None


def _param_findings(name: str, params: List[str], body: str) -> List[Diagnostic]:
    """RL001/RL002 over one kernel's parameters, in their order."""
    found: List[Diagnostic] = []
    # every maximal [A-Za-z0-9_] run of the body: an ASCII name is
    # referenced exactly when it is one of them
    words = set(_IDENT.findall(body))
    for param in params:
        pname = _param_name(param)
        if pname is None:
            continue
        if not (pname in words if pname.isascii() else
                re.search(_WORD.format(re.escape(pname)), body)):
            found.append(Diagnostic(
                "RL001", "warn",
                f"argument {pname!r} is never referenced in the body",
                kernel=name, location=pname,
            ))
        if "global" in param.split() and "restrict" not in param.split():
            found.append(Diagnostic(
                "RL002", "warn",
                f"global pointer argument {pname!r} lacks restrict — "
                f"AOC must assume aliasing",
                kernel=name, location=pname,
            ))
    return found


# ---------------------------------------------------------------------------
def _kernels(lines: List[str]) -> List[Tuple[str, List[str], str, int]]:
    """Yield (name, params, body text, first body line) per kernel."""
    out = []
    i = 0
    while i < len(lines):
        m = _KERNEL_SIG.search(lines[i])
        if m is None:
            i += 1
            continue
        name = m.group(1)
        params = [p.strip() for p in m.group(2).split(",") if p.strip()]
        depth = lines[i].count("{") - lines[i].count("}")
        body_lines: List[str] = []
        start = i + 1
        i += 1
        while i < len(lines) and depth > 0:
            depth += lines[i].count("{") - lines[i].count("}")
            if depth > 0:
                body_lines.append(lines[i])
            i += 1
        out.append((name, params, "\n".join(body_lines), start))
    return out


def _closes(lines: List[str]) -> bool:
    """Whether the braces of the kernel whose signature is ``lines[0]``
    close within ``lines``."""
    depth = 0
    for line in lines:
        depth += line.count("{") - line.count("}")
        if depth <= 0:
            return True
    return False


def _barrier_lines(body: str) -> List[int]:
    """Body lines (from 0) of barriers lexically inside an
    ``if``/``else`` block."""
    found: List[int] = []
    stack: List[str] = []
    for off, line in enumerate(body.splitlines()):
        stripped = line.strip()
        opens = line.count("{")
        closes = line.count("}")
        if "barrier" in stripped and "(" in stripped and "if" in stack:
            found.append(off)
        for _ in range(closes):
            if stack:
                stack.pop()
        kind = "if" if re.search(r"(?<!\w)(if|else)(?!\w)", stripped) else "block"
        for _ in range(opens):
            stack.append(kind)
            kind = "block"
    return found
