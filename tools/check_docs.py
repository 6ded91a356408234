#!/usr/bin/env python
"""Documentation lint: links resolve, code fences parse, examples run.

Checks ``README.md`` and every ``docs/*.md`` for:

* **intra-repo links** — every ``[text](target)`` whose target is not
  ``http(s)://``, ``mailto:`` or a bare ``#anchor`` must point at an
  existing file (resolved relative to the document; anchors are
  stripped before the existence check);
* **python fences** — every ```` ```python ```` fence must ``ast.parse``
  and every module-level import in it must actually resolve (modules
  are imported, ``from x import y`` names are checked with ``getattr``),
  so examples can't drift away from the API they document;
* **executable examples** — a fence immediately preceded by an
  ``<!-- check_docs: run -->`` comment is executed in a fresh namespace
  and must complete without raising;
* **architecture coverage** — ``docs/architecture.md`` must mention
  every package under ``src/repro`` (every directory holding an
  ``__init__.py``), so the map can't silently omit a subsystem;
* **performance coverage** — ``docs/performance.md`` must mention every
  metric key the committed trajectory baseline
  (``benchmarks/results/perf_trajectory.json``) gates in CI, and must
  give each exact-count gate of the trajectory test a gate table row,
  recorded in the baseline or not, so the documented gate table can't
  drift from what the ``perf`` job enforces;
* **counter coverage** — every counter name ``src`` counts into the
  registry (a string in a ``count(...)`` call, ``count`` imported from
  ``repro.counters``) must have a row in the counter table of
  ``docs/performance.md`` (its *Event counters* section), and every row
  there must name such a counter;
* **equivalence rule coverage** — every ``RE`` rule registered in
  ``repro.verify.diagnostics.RULES`` must have a catalog table row in
  ``docs/verification.md`` (the certifier's verdicts gate candidate
  acceptance, so a bare mention is not enough);
* **memory rule coverage** — likewise every ``RM`` rule must have a
  catalog table row in ``docs/verification.md`` (RM verdicts fail
  builds pre-synthesis and certify the shared-arena reuse plan the
  executor allocates from, so each rule needs documented semantics).

Exit status 1 when any finding is reported.  Run as
``PYTHONPATH=src python tools/check_docs.py`` from the repository root;
this is what the CI docs job executes.
"""

from __future__ import annotations

import ast
import importlib
import re
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_MARKER = "<!-- check_docs: run -->"
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def doc_files() -> list:
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def extract_fences(text: str):
    """Yield (lineno, language, code, run) for every fenced code block."""
    lines = text.splitlines()
    i = 0
    prev_meaningful = ""
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("```") and stripped != "```":
            lang = stripped.lstrip("`").strip()
            start = i + 1
            i += 1
            body = []
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            yield start, lang, "\n".join(body) + "\n", prev_meaningful == RUN_MARKER
        elif stripped:
            prev_meaningful = stripped
        i += 1


def check_links(path: Path, text: str) -> list:
    findings = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(SKIP_PREFIXES):
                continue
            rel = target.split("#")[0]
            if not rel:
                continue
            if not (path.parent / rel).exists() and not (ROOT / rel).exists():
                findings.append(
                    f"{path.relative_to(ROOT)}:{lineno}: broken link "
                    f"{target!r} (no such file)"
                )
    return findings


def check_imports(path: Path, lineno: int, tree: ast.Module) -> list:
    findings = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            targets = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [(node.module, a.name) for a in node.names]
        else:
            continue
        for module, attr in targets:
            try:
                mod = importlib.import_module(module)
                if attr and attr != "*" and not hasattr(mod, attr):
                    raise ImportError(f"no attribute {attr!r}")
            except Exception as exc:
                findings.append(
                    f"{path.relative_to(ROOT)}:{lineno + node.lineno}: fence "
                    f"import failed: from {module} import {attr or '...'}: {exc}"
                )
    return findings


def check_fences(path: Path, text: str) -> list:
    findings = []
    for lineno, lang, code, run in extract_fences(text):
        if lang != "python":
            continue
        label = f"{path.relative_to(ROOT)}:{lineno}"
        try:
            tree = ast.parse(code)
        except SyntaxError as exc:
            findings.append(f"{label}: fence does not parse: {exc.msg} "
                            f"(fence line {exc.lineno})")
            continue
        findings.extend(check_imports(path, lineno, tree))
        if run:
            try:
                exec(compile(code, str(label), "exec"), {"__name__": "__main__"})
            except Exception:
                tb = traceback.format_exc(limit=3).rstrip().splitlines()[-1]
                findings.append(f"{label}: marked example failed: {tb}")
    return findings


def check_architecture_coverage() -> list:
    arch = ROOT / "docs" / "architecture.md"
    if not arch.exists():
        return ["docs/architecture.md: missing"]
    text = arch.read_text()
    findings = []
    for pkg in sorted((ROOT / "src" / "repro").iterdir()):
        if not pkg.is_dir() or not (pkg / "__init__.py").exists():
            continue
        if f"repro.{pkg.name}" not in text:
            findings.append(
                f"docs/architecture.md: package 'repro.{pkg.name}' is not "
                "mentioned — every src/repro package needs a contract paragraph"
            )
    return findings


#: exact-count gates of ``benchmarks/test_perf_trajectory.py``: no band,
#: no calibration, so each holds without a baseline entry
EXACT_GATES = ("serve_forwards", "vinterp_fallbacks", "vinterp_replanned",
               "fold_temporaries", "fold_compactions", "fold_inner_loops",
               "plan_keys", "fifo_pops",
               "sweep.serial_counts.scheduled",
               "sweep.serial_counts.plans_computed",
               "sweep.serial_counts.affine_forms",
               "sweep.serial_counts.kernels_linted_fresh",
               "sweep.serial_counts.binding_tables")


def check_performance_coverage() -> list:
    """Every baseline-gated benchmark metric must be documented, and
    every exact-count gate must have a gate table row."""
    baseline = ROOT / "benchmarks" / "results" / "perf_trajectory.json"
    doc = ROOT / "docs" / "performance.md"
    if not baseline.exists():
        return ["benchmarks/results/perf_trajectory.json: missing — "
                "regenerate with REPRO_PERF_UPDATE=1 (see docs/performance.md)"]
    if not doc.exists():
        return ["docs/performance.md: missing"]
    import json

    data = json.loads(baseline.read_text())
    text = doc.read_text()
    findings = []
    gated = sorted(data.get("compile_s", {})) + sorted(
        data.get("throughput_ips", {}))
    if "sweep" in data:
        gated.append("sweep")
    if "certify" in data:
        gated.append("certify")
    if "memory" in data:
        gated.append("memory")
    if "vinterp_fallbacks" in data:
        gated.append("vinterp_fallbacks")
    for key in gated:
        if key not in text:
            findings.append(
                f"docs/performance.md: gated metric {key!r} from the "
                "committed perf baseline is not documented"
            )
    rows = {line.split("|")[1].strip() for line in text.splitlines()
            if line.startswith("|") and line.count("|") > 2}
    for key in EXACT_GATES:
        if f"`{key}`" not in rows:
            findings.append(
                f"docs/performance.md: exact gate {key!r} of the perf "
                "trajectory has no gate table row"
            )
    return findings


COUNTERS_HEADING = "## Event counters"


def counted_names() -> dict:
    """Every counter name a ``src/repro`` module passes to
    ``repro.counters.count``, mapped to the first module counting it."""
    names = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if not any(isinstance(node, ast.ImportFrom)
                   and node.module == "repro.counters"
                   and any(a.name == "count" for a in node.names)
                   for node in tree.body):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "count" and node.args):
                for const in ast.walk(node.args[0]):
                    if isinstance(const, ast.Constant) and isinstance(
                            const.value, str):
                        names.setdefault(const.value,
                                         str(path.relative_to(ROOT)))
    return names


def check_counter_coverage() -> list:
    """Every registry counter counted in src has a counter table row in
    docs/performance.md, and every row names one."""
    doc = ROOT / "docs" / "performance.md"
    if not doc.exists():
        return ["docs/performance.md: missing"]
    text = doc.read_text()
    if COUNTERS_HEADING not in text:
        return [f"docs/performance.md: no {COUNTERS_HEADING!r} section"]
    section = text.split(COUNTERS_HEADING, 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip().strip("`")
            for line in section.splitlines()
            if line.startswith("| `")}
    names = counted_names()
    findings = [
        f"docs/performance.md: counter {name!r} (counted in {where}) has "
        "no counter table row"
        for name, where in sorted(names.items()) if name not in rows
    ]
    findings += [
        f"docs/performance.md: counter table row {name!r} names no "
        "counter src counts"
        for name in sorted(rows - set(names))
    ]
    return findings


#: rule families whose every rule needs a catalog table row -> family name
TABLE_FAMILIES = {"RE": "equivalence", "RM": "memory"}


def check_rule_table_coverage() -> list:
    """Every RE and RM rule has a catalog table row in docs/verification.md.

    The generic rule-catalog lint (``tools/lint.py``) accepts any
    mention.  RE rules gate candidate acceptance in the DSE/autofix hot
    paths; RM errors fail builds and the certified ``MemoryPlan`` drives
    the executor's arena, the DSE footprint axis and serving's
    replicas-per-board packing — so each rule must carry a proper
    ``| RE00x |`` / ``| RM00x |`` row with severity and meaning.
    """
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    from repro.verify.diagnostics import RULES

    doc = ROOT / "docs" / "verification.md"
    if not doc.exists():
        return ["docs/verification.md: missing"]
    text = doc.read_text()
    findings = []
    for rule in sorted(r for r in RULES if r[:2] in TABLE_FAMILIES):
        if not re.search(rf"^\|\s*{rule}\s*\|", text, re.MULTILINE):
            findings.append(
                f"docs/verification.md: {TABLE_FAMILIES[rule[:2]]} rule "
                f"{rule} has no catalog table row "
                f"(| {rule[:2]}... | severity | meaning |)"
            )
    return findings


def main() -> int:
    findings = []
    for path in doc_files():
        text = path.read_text()
        findings.extend(check_links(path, text))
        findings.extend(check_fences(path, text))
    findings.extend(check_architecture_coverage())
    findings.extend(check_performance_coverage())
    findings.extend(check_counter_coverage())
    findings.extend(check_rule_table_coverage())
    for f in findings:
        print(f)
    print(f"{len(findings)} finding(s) across {len(doc_files())} documents")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
