"""Seeded, deterministic fault injection for the deployment flow.

A :class:`FaultPlan` is a context manager holding an ordered list of
:class:`Fault` specs.  While active, the real failure boundaries of the
flow *probe* the plan — ``compile_program`` probes ``synthesize``, the
host-runtime timing model probes ``enqueue.write`` / ``enqueue.read`` /
``enqueue.kernel`` / ``channel`` / ``device``, the functional executor
probes ``buffer``, and the serving loop probes ``dispatch`` /
``run_batch`` / ``replica`` (batch-submission failures, mid-service
crashes and hangs, replica deaths — see :mod:`repro.serve.lifecycle`) —
and raise or model the corresponding failure when a fault fires.  Every
recovery path (retry/backoff, placement-seed sweep, watchdog,
degradation ladder, replica drain/refill) is therefore testable without
touching any happy-path code.

Determinism: a fault fires on the first ``times`` matching probes, in
program order, and all randomness (jitter, bit-flip positions) derives
from the plan's ``seed`` — by default the ``REPRO_FAULT_SEED``
environment variable, so CI can matrix over seeds and prove recovery is
seed-independent.

With no plan active every probe is a no-op returning ``None``; the
happy path is untouched.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.resilience.events import record

__all__ = [
    "Fault",
    "FaultPlan",
    "KNOWN_SITES",
    "active_plan",
    "probe",
    "FAULT_SEED_ENV",
]

#: environment variable supplying the default fault-plan seed
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

#: every probe site wired into the flow, mapped to the failure kinds the
#: site understands (the taxonomy table in docs/resilience.md)
KNOWN_SITES = {
    "synthesize": ("routing", "fit", "crash"),
    "enqueue.write": ("dma", "hang"),
    "enqueue.read": ("dma", "hang"),
    "enqueue.kernel": ("dma", "hang"),
    "channel": ("stall", "hang"),
    "device": ("device_lost",),
    "buffer": ("bitflip",),
    # serving sites (repro.serve.lifecycle): batch submission, batch
    # execution, and whole-replica health
    "dispatch": ("reject",),
    "run_batch": ("crash", "hang"),
    "replica": ("die",),
}


@dataclass
class Fault:
    """One injected failure mode at one site.

    ``site``
        Injection point: any key of :data:`KNOWN_SITES` — the flow
        sites ``synthesize``, ``enqueue.write``, ``enqueue.read``,
        ``enqueue.kernel``, ``channel``, ``device``, ``buffer`` and the
        serving sites ``dispatch``, ``run_batch``, ``replica``.
    ``kind``
        Failure flavour the site understands: ``routing`` / ``crash``
        / ``fit`` (synthesize), ``dma`` / ``hang`` (enqueue), ``stall``
        / ``hang`` (channel), ``device_lost`` (device), ``bitflip``
        (buffer), ``reject`` (dispatch), ``crash`` / ``hang``
        (run_batch), ``die`` (replica).
    ``times``
        Fire on the first N matching probes, then go quiet (models
        transient failures; use a large value for persistent ones).
    ``match``
        Optional substring filter on the probe label (a kernel/stage
        name), so a fault can target one stage.
    ``param``
        Site-specific magnitude: stall duration in us, bit index for
        bit-flips, hang duration in us.
    ``transient``
        Whether the raised error should be marked retryable.  Injected
        errors are never cached as deterministic outcomes either way.
    """

    site: str
    kind: str
    times: int = 1
    match: str = ""
    param: float = 0.0
    transient: bool = True
    #: number of probes this fault has already fired on
    fired: int = field(default=0, init=False)


class FaultPlan:
    """An active set of faults, installed as a context manager.

    Plans nest: the innermost active plan receives all probes.
    """

    def __init__(self, *faults: Fault, seed: Optional[int] = None) -> None:
        self.faults: List[Fault] = list(faults)
        if seed is None:
            seed = int(os.environ.get(FAULT_SEED_ENV, "0") or "0")
        self.seed = seed
        #: (site, label, kind) of every fault firing, in order
        self.fired: List[tuple] = []

    # -- activation ------------------------------------------------------
    def __enter__(self) -> "FaultPlan":
        _STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _STACK.remove(self)

    # -- probing ---------------------------------------------------------
    def probe(self, site: str, label: str = "") -> Optional[Fault]:
        """Fire (and return) the first matching live fault, else None."""
        for fault in self.faults:
            if fault.site != site or fault.fired >= fault.times:
                continue
            if fault.match and fault.match not in label:
                continue
            fault.fired += 1
            self.fired.append((site, label, fault.kind))
            record(
                "fault", site,
                f"injected {fault.kind} fault" + (f" at {label!r}" if label else ""),
                fault_kind=fault.kind, occurrence=fault.fired, times=fault.times,
            )
            return fault
        return None

    def rng(self, *salt: object) -> random.Random:
        """A deterministic RNG derived from the plan seed and ``salt``."""
        return random.Random(f"fault:{self.seed}:" + ":".join(map(str, salt)))

    def remaining(self) -> int:
        """Total fires left across all faults."""
        return sum(max(0, f.times - f.fired) for f in self.faults)

    def __repr__(self) -> str:
        specs = ", ".join(f"{f.site}/{f.kind}x{f.times}" for f in self.faults)
        return f"FaultPlan(seed={self.seed}: {specs})"


_STACK: List[FaultPlan] = []


def active_plan() -> Optional[FaultPlan]:
    """The innermost active plan, or None."""
    return _STACK[-1] if _STACK else None


def probe(site: str, label: str = "") -> Optional[Fault]:
    """Probe the active plan; no-op (None) when no plan is active."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.probe(site, label)
