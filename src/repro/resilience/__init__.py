"""Fault injection and recovery policies for the deployment flow.

Production FPGA toolchains fail in characteristic ways — hours-long AOC
runs die transiently, Quartus routing is placement-seed-sensitive, deep
channel pipelines deadlock when a stage stalls, DMA transfers drop.
This package makes every one of those failures (a) injectable, so the
recovery paths are testable, and (b) recoverable:

* :class:`FaultPlan` / :class:`Fault` — seeded, deterministic fault
  injection at the flow's real failure boundaries, including the
  serving-time sites (``dispatch`` / ``run_batch`` / ``replica``)
  driving the replica health lifecycle in :mod:`repro.serve.lifecycle`;
* :func:`retry` / :class:`RetryPolicy` — exponential backoff with
  deterministic jitter on a virtual clock (no wall sleeping);
* :func:`synthesize_resilient` — transient-retry + placement-seed sweep
  for the pipeline's ``synthesize`` stage;
* :class:`Watchdog` — virtual-time bounds and stalled-channel (hang)
  verdicts for the simulated runtime;
* :class:`ResilienceEvent` / :func:`log` — structured, observable
  records of every fault, retry, verdict and fallback.

The degradation ladder that falls back across execution modes lives in
:mod:`repro.flow.deploy` (it needs the deployment builders).

See ``docs/resilience.md`` for the fault taxonomy and policy knobs.
"""

from repro.resilience.config import (
    LifecycleConfig,
    ResilienceConfig,
    configured,
    current_config,
    set_config,
)
from repro.resilience.events import ResilienceEvent, ResilienceLog, log, record
from repro.resilience.faults import (
    FAULT_SEED_ENV,
    KNOWN_SITES,
    Fault,
    FaultPlan,
    active_plan,
    probe,
)
from repro.resilience.retry import (
    RetryPolicy,
    VirtualClock,
    backoff_schedule,
    retry,
)
from repro.resilience.synth import synthesize_resilient
from repro.resilience.watchdog import Watchdog

__all__ = [
    "FAULT_SEED_ENV", "KNOWN_SITES", "Fault", "FaultPlan",
    "LifecycleConfig", "ResilienceConfig",
    "ResilienceEvent", "ResilienceLog", "RetryPolicy", "VirtualClock",
    "Watchdog", "active_plan", "backoff_schedule", "configured",
    "current_config", "log", "probe", "record", "retry", "set_config",
    "synthesize_resilient",
]
