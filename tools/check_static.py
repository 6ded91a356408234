#!/usr/bin/env python
"""Static-check gate: every shipped build's findings and autofix verdict.

The CI ``static-check`` job runs this once over the nine shipped
network x board builds and lenet5's four lower Table 6.4 levels on each
board (``lenet5:BOARD:LEVEL``).  For each build it

* runs ``python -m repro.report --check --json`` and compares every
  finding, of every severity, as ``[rule, severity, kernel, location]``
  to ``tools/static_baseline.json`` — a new, vanished or moved finding
  fails the gate, so a schedule or cost-model change that shifts what
  the analyzers say is visible in the diff of the committed baseline.
  Only advice can be baselined: a ``--check`` exit other than 0, or any
  warn/error/info finding, fails the gate even under ``--update``;
* compares the sha256 of that whole JSON output to the baseline's
  ``digest``, so a number that moves inside a message or a counter
  (RP005's cycle counts, RP004's working set) fails the gate too;
* asserts, once per ``network:board``, the auto-scheduler's contract
  (``repro.flow.autofix``): an advice-clean fixpoint, or a
  provably-stuck report whose every blocking finding carries a reason — never a cycle, an iteration-limit
  bail or a verify error — and serialized recipes that rebuild a
  bit-identical source (``roundtrip_ok``), in both runtime modes.

Usage::

    python tools/check_static.py                        # all 21 builds
    python tools/check_static.py resnet18:A10 lenet5:S10MX  # these, in order
    python tools/check_static.py --update               # rewrite baseline

Exit status: 0 when every checked build matches, 1 on any drift,
contract violation or build failure, 2 on a bad spec.  Stays
dependency-free.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BASELINE = ROOT / "tools" / "static_baseline.json"

BOARDS = ("S10MX", "S10SX", "A10")

#: the shipped matrix (lenet5 at its default top optimization level),
#: then lenet5's lower optimization levels on every board
SPECS = [
    f"{network}:{board}"
    for network in ("lenet5", "mobilenet_v1", "resnet18")
    for board in BOARDS
] + [
    f"lenet5:{board}:{level}"
    for board in BOARDS
    for level in ("base", "unroll", "channels", "autorun")
]

Findings = List[List[str]]


def findings(spec: str) -> Tuple[Findings, str]:
    """``[rule, severity, kernel, location]`` of one build, sorted, and
    the sha256 of its whole ``--check --json`` output."""
    from repro.report import check_deployment

    buf = io.StringIO()
    status = check_deployment(spec, out=buf, as_json=True)
    if status != 0:
        raise RuntimeError(f"--check {spec} exited {status}: "
                           f"{buf.getvalue()}")
    text = buf.getvalue()
    payload = json.loads(text)
    found = sorted(
        [d["rule"], d["severity"], d["kernel"], d["location"]]
        for d in payload["diagnostics"]
    )
    return found, hashlib.sha256(text.encode()).hexdigest()


def not_advice(found: Findings) -> List[str]:
    """One line per warn/error/info finding: the baseline holds advice only."""
    return [f"{f[1]} finding cannot be baselined: {f}"
            for f in found if f[1] != "advice"]


def drift(got: Findings, want: Findings) -> List[str]:
    """One line per finding present on only one side."""
    got_set, want_set = set(map(tuple, got)), set(map(tuple, want))
    return (
        [f"new finding not in baseline: {list(f)}"
         for f in sorted(got_set - want_set)]
        + [f"baseline finding no longer emitted: {list(f)}"
           for f in sorted(want_set - got_set)]
    )


def autofix_problems(spec: str) -> List[str]:
    """Autofix contract violations for one build (empty = converged)."""
    from repro.device import board_by_name
    from repro.flow.autofix import autofix_network

    network, board = spec.split(":")
    result = autofix_network(network, board_by_name(board))
    problems: List[str] = []
    if result.status == "stuck" and result.stuck_reason == "blocked":
        if not result.blocked:
            problems.append("stuck/blocked without any blocking finding")
        problems += [
            f"blocking finding [{b.rule}] {b.kernel} has no reason"
            for b in result.blocked if not b.reason
        ]
    elif result.status != "clean":
        problems.append(
            f"autofix did not converge: status={result.status} "
            f"stuck_reason={result.stuck_reason}"
        )
    if result.roundtrip_ok is not True:
        problems.append(
            f"serialized recipes did not rebuild a bit-identical source "
            f"(roundtrip_ok={result.roundtrip_ok})"
        )
    return problems


def main(argv: List[str]) -> int:
    update = "--update" in argv
    specs = [a for a in argv if not a.startswith("--")] or SPECS
    for spec in specs:
        if spec not in SPECS:
            print(f"unknown spec {spec!r}; choose from: {', '.join(SPECS)}")
            return 2

    #: spec -> {"findings": [...], "digest": sha256 of the JSON output}
    baseline: Dict[str, Dict] = (
        json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    )
    status = 0
    for spec in specs:
        try:
            got, digest = findings(spec)
            # autofix runs at the network's default level, so a
            # LEVEL spec adds no second run of the same contract
            problems = autofix_problems(spec) if spec.count(":") == 1 else []
        except Exception as e:  # build failure is a gate failure, not a crash
            print(f"{spec}: FAIL ({e})")
            status = 1
            continue
        problems += not_advice(got)
        if update:
            if not problems:
                baseline[spec] = {"findings": got, "digest": digest}
        elif spec not in baseline:
            problems.append("no committed baseline (run with --update)")
        else:
            want = baseline[spec]["findings"]
            problems += not_advice(want) + drift(got, want)
            if not problems and digest != baseline[spec]["digest"]:
                problems.append(
                    f"--check --json output changed (sha256 {digest[:12]} "
                    f"vs baseline {baseline[spec]['digest'][:12]}): a "
                    f"message or counter moved"
                )
        for p in problems:
            print(f"{spec}: {p}")
        if problems:
            status = 1
        else:
            print(f"{spec}: OK ({len(got)} finding(s))")
    if update:
        BASELINE.write_text(
            json.dumps({k: baseline[k] for k in sorted(baseline)}, indent=2)
            + "\n"
        )
        print(f"wrote {BASELINE}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
