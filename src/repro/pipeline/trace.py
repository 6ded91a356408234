"""Per-stage execution traces: timings, artifact sizes, counters.

A :class:`Trace` is produced by every :class:`~repro.pipeline.Pipeline`
run.  It is exportable as JSON (for tooling) and as an aligned ASCII
table (``python -m repro.report --trace lenet5`` renders one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StageRecord:
    """Execution record of one pipeline stage."""

    stage: str
    #: 'ok' | 'cached' | 'seeded' | 'error'
    status: str
    #: start/end offsets from pipeline start, seconds (monotonic clock)
    t_start: float
    t_end: float
    #: artifact name this stage produced
    artifact: str = ""
    #: fingerprint of the produced artifact (sha256 hex): derived from
    #: the stage, its config and the upstream fingerprints, or, for the
    #: imported graph, seeded artifacts and the source, its content
    fingerprint: str = ""
    #: natural size of the artifact (nodes, kernels, bytes ...)
    size: int = 0
    #: stage-specific counters (kernels emitted, DSPs, max II ...)
    counters: Dict[str, float] = field(default_factory=dict)
    #: 'hit' | 'miss' for cache-backed stages, None otherwise
    cache: Optional[str] = None
    error: Optional[str] = None
    #: structured resilience events (faults, retries, watchdog verdicts)
    #: fired while this stage executed, as plain dicts
    events: List[Dict[str, object]] = field(default_factory=list)
    #: human-readable annotations contributed by the artifact (e.g. the
    #: verify stage's performance-advisor findings)
    notes: List[str] = field(default_factory=list)

    @property
    def wall_ms(self) -> float:
        return (self.t_end - self.t_start) * 1e3


@dataclass
class Trace:
    """Ordered per-stage records of one pipeline run."""

    pipeline: str
    records: List[StageRecord] = field(default_factory=list)

    def stage(self, name: str) -> StageRecord:
        for r in self.records:
            if r.stage == name:
                return r
        raise KeyError(f"no stage {name!r} in trace of {self.pipeline}")

    def stage_names(self) -> List[str]:
        return [r.stage for r in self.records]

    @property
    def total_ms(self) -> float:
        return sum(r.wall_ms for r in self.records)

    # -- export ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "total_ms": self.total_ms,
            "stages": [
                {
                    "stage": r.stage,
                    "status": r.status,
                    "t_start": r.t_start,
                    "t_end": r.t_end,
                    "wall_ms": r.wall_ms,
                    "artifact": r.artifact,
                    "fingerprint": r.fingerprint,
                    "size": r.size,
                    "counters": dict(r.counters),
                    "cache": r.cache,
                    "error": r.error,
                    "events": [dict(e) for e in r.events],
                    "notes": list(r.notes),
                }
                for r in self.records
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        """Aligned ASCII table of the per-stage records."""
        header = (
            f"{'stage':<11} {'status':<7} {'ms':>8} {'artifact':<10} "
            f"{'fingerprint':<13} {'size':>7}  counters"
        )
        lines = [f"pipeline {self.pipeline} — {self.total_ms:.1f} ms total",
                 header, "-" * len(header)]
        for r in self.records:
            counters = " ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(r.counters.items())
            )
            cache = f" [{r.cache}]" if r.cache else ""
            lines.append(
                f"{r.stage:<11} {r.status + cache:<7} {r.wall_ms:>8.2f} "
                f"{r.artifact:<10} {r.fingerprint[:12]:<13} {r.size:>7}  "
                f"{counters}"
            )
            if r.error:
                lines.append(f"{'':11} !! {r.error}")
            for e in r.events:
                lines.append(f"{'':11} ~~ [{e.get('kind')}] {e.get('detail')}")
            for note in r.notes:
                lines.append(f"{'':11} >> {note}")
        return "\n".join(lines)

    def resilience_events(self) -> List[Dict[str, object]]:
        """All resilience events across all stages, in stage order."""
        return [e for r in self.records for e in r.events]


def _fmt(v: float) -> str:
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.2f}"
    return str(int(v))
