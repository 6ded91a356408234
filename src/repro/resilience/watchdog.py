"""Runtime watchdog: virtual-time bounds and stalled-channel verdicts.

Deep channel pipelines deadlock when a stage stalls: its input FIFO
fills, back-pressure propagates, and the stage never finishes.  The
:class:`Watchdog` gives the simulated runtime the host program's
defences: any event completing past a **virtual-time budget** is
declared hung, and a **stalled channel wait** (a hang fault, or a
producer that will never drain) is reported with the blocked stage, the
channel it waits on and the FIFO occupancy at stall time.

Both raise :class:`~repro.errors.DeadlockError` (a
:class:`~repro.errors.RuntimeSimError`) carrying the diagnosis.  Wait
cycles in the channel topology are ruled out before synthesis by the
static verifier's RC003 check (:mod:`repro.verify.channels`).
"""

from __future__ import annotations

from repro.errors import DeadlockError
from repro.resilience.events import record

__all__ = ["Watchdog"]


class Watchdog:
    """Bounds the virtual time of one simulated run."""

    def __init__(self, budget_us: float = 1e8) -> None:
        self.budget_us = budget_us
        #: events observed (for post-mortem inspection)
        self.observed = 0

    def observe(self, label: str, end_us: float) -> None:
        """Check one scheduled event against the budget."""
        self.observed += 1
        if end_us > self.budget_us:
            record(
                "watchdog", "device",
                f"event {label!r} exceeds virtual-time budget "
                f"({end_us:.0f}us > {self.budget_us:.0f}us)",
                t_us=end_us,
            )
            raise DeadlockError(
                f"watchdog: event {label!r} ends at {end_us:.0f}us, past the "
                f"virtual-time budget of {self.budget_us:.0f}us — the stage "
                f"is considered hung"
            )

    def channel_stalled(
        self,
        stage: str,
        channel: str,
        occupancy: int,
        depth: int,
        t_us: float = 0.0,
    ) -> None:
        """Declare a permanently stalled channel wait (a hang fault or a
        producer that will never drain)."""
        record(
            "watchdog", "channel",
            f"stage {stage!r} blocked on channel {channel!r} "
            f"(occupancy {occupancy}/{depth}) with no progress",
            t_us=t_us, stage=stage, channel=channel,
            occupancy=occupancy, depth=depth,
        )
        raise DeadlockError(
            f"watchdog: stage {stage!r} is blocked on channel {channel!r} "
            f"(occupancy {occupancy}/{depth} at stall time, t={t_us:.0f}us) "
            f"and the producer cannot make progress"
        )
