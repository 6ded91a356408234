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
parser — which is exactly enough for compiler-emitted source.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

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


def lint_source(source: str, report: Optional[VerifyReport] = None) -> VerifyReport:
    """Lint one emitted ``.cl`` translation unit."""
    if report is None:
        report = VerifyReport(subject="<source>")
    lines = source.splitlines()
    declared_channels = {
        m.group(1) for line in lines for m in [_CHANNEL_DECL.match(line.strip())] if m
    }
    report.bump("source_lines", len(lines))

    for name, params, body, body_line in _kernels(lines):
        report.bump("kernels_linted")
        # every maximal [A-Za-z0-9_] run of the body: an ASCII name is
        # referenced exactly when it is one of them
        words = set(_IDENT.findall(body))
        for param in params:
            pname = _param_name(param)
            if pname is None:
                continue
            if not (pname in words if pname.isascii() else
                    re.search(_WORD.format(re.escape(pname)), body)):
                report.diagnostics.append(Diagnostic(
                    "RL001", "warn",
                    f"argument {pname!r} is never referenced in the body",
                    kernel=name, location=pname,
                ))
            if "global" in param.split() and "restrict" not in param.split():
                report.diagnostics.append(Diagnostic(
                    "RL002", "warn",
                    f"global pointer argument {pname!r} lacks restrict — "
                    f"AOC must assume aliasing",
                    kernel=name, location=pname,
                ))
        if "barrier" in body:
            _check_barriers(name, body, body_line, report)
        for m in _CHANNEL_USE.finditer(body):
            if m.group(1) not in declared_channels:
                report.diagnostics.append(Diagnostic(
                    "RL004", "error",
                    f"channel {m.group(1)!r} is used but never declared at "
                    f"file scope",
                    kernel=name, location=m.group(1),
                ))
    return report


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


def _check_barriers(name: str, body: str, body_line: int, report: VerifyReport) -> None:
    """Flag barriers lexically inside an ``if``/``else`` block."""
    stack: List[str] = []
    for off, line in enumerate(body.splitlines()):
        stripped = line.strip()
        opens = line.count("{")
        closes = line.count("}")
        if "barrier" in stripped and "(" in stripped and "if" in stack:
            report.diagnostics.append(Diagnostic(
                "RL003", "error",
                "barrier inside divergent control flow — work-items that "
                "skip it deadlock the work-group",
                kernel=name, location=f"line {body_line + off + 1}",
            ))
        for _ in range(closes):
            if stack:
                stack.pop()
        kind = "if" if re.search(r"(?<!\w)(if|else)(?!\w)", stripped) else "block"
        for _ in range(opens):
            stack.append(kind)
            kind = "block"
