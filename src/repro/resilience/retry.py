"""Generic retry with exponential backoff and deterministic jitter.

Backoff waits run on a **virtual clock** — tests and the degradation
ladder never sleep on the wall.  Jitter derives from an explicit seed,
so a retry schedule is reproducible given (policy, seed) and the CI
fault-seed matrix covers different schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Type

from repro.errors import ReproError
from repro.resilience.events import record

__all__ = ["RetryPolicy", "VirtualClock", "backoff_schedule", "retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry knobs.

    ``attempts`` is the total number of tries (1 = no retry); the delay
    before retry *k* (1-based) is
    ``min(max_us, base_us * multiplier**(k-1))`` perturbed by up to
    ``±jitter`` (a fraction).
    """

    attempts: int = 3
    base_us: float = 100.0
    multiplier: float = 2.0
    max_us: float = 10_000.0
    jitter: float = 0.1


class VirtualClock:
    """Accumulates simulated waiting time instead of sleeping."""

    def __init__(self) -> None:
        self.now_us = 0.0

    def sleep_us(self, us: float) -> None:
        self.now_us += us


def backoff_schedule(
    policy: RetryPolicy, seed: int = 0, attempts: Optional[int] = None
) -> List[float]:
    """The deterministic delay (us) before each retry.

    Returns ``attempts - 1`` delays (no delay precedes the first try).
    Same (policy, seed) -> same schedule.
    """
    n = (attempts if attempts is not None else policy.attempts) - 1
    rng = random.Random(f"backoff:{seed}")
    delays = []
    for i in range(max(0, n)):
        d = min(policy.max_us, policy.base_us * policy.multiplier**i)
        d *= 1.0 + policy.jitter * (2.0 * rng.random() - 1.0)
        delays.append(d)
    return delays


def retry(
    fn: Callable[[], object],
    policy: RetryPolicy = RetryPolicy(),
    retry_on: Tuple[Type[BaseException], ...] = (ReproError,),
    clock: Optional[VirtualClock] = None,
    seed: int = 0,
    site: str = "retry",
    label: str = "",
) -> object:
    """Call ``fn`` under ``policy``, backing off on the virtual clock.

    Only exceptions matching ``retry_on`` *and* either marked
    ``transient`` or listed via an explicitly transient class are
    retried... precisely: any ``retry_on`` match is retried; callers
    narrow ``retry_on`` to the transiency they accept.  Raises the last
    error after ``policy.attempts`` tries.
    """
    clock = clock if clock is not None else VirtualClock()
    delays = backoff_schedule(policy, seed)
    what = label or getattr(fn, "__name__", "operation")
    last: Optional[BaseException] = None
    for attempt in range(1, policy.attempts + 1):
        try:
            value = fn()
        except retry_on as err:
            last = err
            if attempt >= policy.attempts:
                record(
                    "giveup", site,
                    f"{what}: {type(err).__name__} persisted after "
                    f"{attempt} attempt(s)",
                    attempt=attempt, t_us=clock.now_us,
                )
                raise
            delay = delays[attempt - 1]
            clock.sleep_us(delay)
            record(
                "retry", site,
                f"{what}: {type(err).__name__}: {err} — backing off "
                f"{delay:.0f}us before attempt {attempt + 1}",
                attempt=attempt, t_us=clock.now_us, delay_us=delay,
            )
        else:
            if attempt > 1:
                record(
                    "recovered", site,
                    f"{what} succeeded on attempt {attempt}",
                    attempt=attempt, t_us=clock.now_us,
                )
            return value
    raise last  # pragma: no cover - loop always returns or raises
