#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent (A) and a change (B).

    python3 bench/compare.py A.json B.json

Each file holds the standard output of one or more untraced
``bench/run.py`` runs, appended one after another. For each workload and
end-to-end metric the tool compares the medians of A and B, using the
bound and direction that ``BENCHMARK.json`` gives the metric:

* ``unresolved``: the run-to-run spread (distance between the quartiles,
  as a share of the median) of A or B is wider than the bound, and not
  every run of B reads better than every run of A (then ``better``);
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's spread and B wins
  at least nine tenths of the run pairs (the runs taken in file order);
* ``same``: anything else.

Every digest (canary logits, serve fingerprint, modeled fps, source
hashes) must be identical across all runs of a workload in both files.
The exit code is 1 on a ``worse`` metric, a digest mismatch or a failed
operation, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def records(path: str) -> list:
    """The untraced run records (the line before each result) in a file."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "workload" in rec and not rec.get("trace"):
                out.append(rec)
    return out


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, bound: float, lower_is_better: bool) -> tuple:
    """``(verdict, relative change toward worse)`` of B against A."""
    sign = 1 if lower_is_better else -1
    worse_by = sign * (statistics.median(b) - statistics.median(a)) \
        / statistics.median(a)

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    if max(spread(a), spread(b)) > bound:
        if all(beats(x, y) for x in b for y in a):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if -worse_by > spread(a) and pairs and wins >= 0.9 * len(pairs):
        return "better", worse_by
    return "same", worse_by


def compare(a_recs: list, b_recs: list, spec: dict) -> tuple:
    """Rows of the comparison table and the list of failures."""
    rows, failures = [], []
    for w in (w["name"] for w in spec["workloads"]):
        a = [r for r in a_recs if r["workload"] == w]
        b = [r for r in b_recs if r["workload"] == w]
        if not a or not b:
            failures.append(f"{w}: no runs in {'A' if not a else 'B'}")
            continue
        digests = {json.dumps(r["digests"], sort_keys=True) for r in a + b}
        if len(digests) > 1:
            failures.append(f"{w}: digests differ across runs "
                            f"({len(digests)} distinct)")
        bad = sum(r["ops_failed"] for r in a + b)
        if bad:
            failures.append(f"{w}: {bad} operation(s) failed their check")
        for m in spec["end_to_end"]:
            va = [r["end_to_end"][m["name"]]["value"] for r in a]
            vb = [r["end_to_end"][m["name"]]["value"] for r in b]
            result, worse_by = verdict(va, vb, m["bound"],
                                       m["better"] == "lower")
            rows.append((w, m["name"], m["unit"], statistics.median(va),
                         statistics.median(vb), worse_by, spread(va),
                         spread(vb), m["bound"], result))
            if result == "worse":
                failures.append(f"{w} {m['name']}: worse by "
                                f"{100 * worse_by:.1f}% (bound "
                                f"{100 * m['bound']:.0f}%)")
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="runs of the parent")
    parser.add_argument("b", help="runs of the change")
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    rows, failures = compare(records(args.a), records(args.b), spec)
    print(f"{'workload':<13} {'metric':<13} {'unit':<5} {'A median':>11} "
          f"{'B median':>11} {'worse by':>9} {'A spread':>9} {'B spread':>9} "
          f"{'bound':>6}  verdict")
    for w, name, unit, ma, mb, worse_by, sa, sb, bound, result in rows:
        print(f"{w:<13} {name:<13} {unit:<5} {ma:>11.4f} {mb:>11.4f} "
              f"{100 * worse_by:>8.2f}% {100 * sa:>8.2f}% {100 * sb:>8.2f}% "
              f"{100 * bound:>5.0f}%  {result}")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
