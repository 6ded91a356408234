"""Static verification of lowered kernels, emitted OpenCL, and plans.

A bitstream takes hours to synthesize, so defects that only surface at
runtime — an out-of-bounds store, a write race between unrolled
replicas, a channel protocol mismatch that deadlocks the pipeline — are
the most expensive class of bug in the FPGA flow.  This package proves
their absence *before* synthesis, as the ``verify`` stage between
``codegen`` and ``synthesize`` in every deployment pipeline.

Seven analyzer families, each with stable rule IDs:

* **bounds** (``RB``) — interval analysis of every ``Load``/``Store``
  index under symbolic shape bindings; folded kernels are verified once
  per distinct binding set.  A *proven* violation (RB001, error) is
  distinct from an *unprovable* access (RB002, warn).
* **races** (``RR``) — stride-based disjointness of stores under
  unrolled loops (reductions are recognized, not flagged) plus a
  def-before-use pass over kernel-local buffers.
* **channels** (``RC``) — read/write count matching, FIFO depth
  sanity, wait-cycle (deadlock) detection, and plan/program consistency:
  a channel deadlock is ruled out before synthesis instead of being
  caught by the runtime :class:`~repro.resilience.watchdog.Watchdog`
  after the hang.
* **lint** (``RL``) — checks over the emitted OpenCL text (unused
  arguments, missing ``restrict``, barriers in divergent control,
  undeclared channels).
* **performance** (``RP``) — the static advisor: II-bottleneck
  attribution with the register-cache rewrite, replicated/non-aligned
  LSU detection, reuse-distance vs the LSU cache, and compute- vs
  memory-bound classification against a board's bandwidth roof.  RP
  findings carry the ``advice`` severity and never fail a build; the
  companion :mod:`~repro.verify.dominance` module turns the same model
  into partial-order proofs that let the DSE skip dominated tilings
  before synthesis.
* **memory** (``RM``) — whole-network liveness over the execution
  plan's invocation sequence, interference-based coloring of activation
  buffers into one shared DDR arena, and a machine-checkable soundness
  certificate (:class:`~repro.verify.memory.MemoryCertificate`): reuse
  pairs must have disjoint live ranges (RM001), sizes must be bounded
  under bindings (RM002), the footprint must fit the board's DDR
  (RM003), and the plan must not drift from the program (RM004); RM005
  advice names reusable-but-unshared bytes.  The certified
  :class:`~repro.verify.memory.MemoryPlan` is adopted by deployments
  (the executor allocates the arena), the DSE partial order
  (``StaticProfile.ddr_bytes``) and the serving layer's
  replicas-per-board packing.
* **equivalence** (``RE``) — translation validation of schedule
  rewrites: per-transform legality proofs for every recipe step plus a
  whole-kernel symbolic store-set/value comparison between the naive
  and scheduled lowerings.  A proof yields a serializable
  :class:`~repro.verify.equiv.EquivCertificate`, cached by content
  fingerprint, so the DSE/autofix/autotune accept paths trust
  certificates instead of interpreter cross-checks; an unprovable
  kernel (RE006) falls back to exactly one dynamic check.

Entry points: :func:`verify_build` merges all analyzers into one
:class:`VerifyReport` (pass a ``board`` to include the RP advisor);
:func:`assert_clean` raises :class:`~repro.errors.VerificationError` on
any error-severity finding; :func:`certify_build` certifies every
kernel of a scheduled build.  The full rule catalog lives in
``docs/verification.md``.
"""

from repro.verify.advisor import (
    SUGGESTIONS,
    format_advice,
    format_prune_preview,
    prune_preview,
)
from repro.verify.bounds import check_bounds
from repro.verify.channels import channel_counts, check_channels
from repro.verify.cllint import lint_source
from repro.verify.diagnostics import RULES, SEVERITIES, Diagnostic, VerifyReport
from repro.verify.equiv import (
    EquivCertificate,
    certify_bodies,
    certify_build,
    certify_kernel,
    clear_equiv_cache,
    dynamic_equiv_check,
    equiv_cache_stats,
)
from repro.verify.dominance import (
    PruneDecision,
    StaticProfile,
    dominates,
    infeasible_reason,
    plan_conv_sweep,
    profile_conv_tiling,
)
from repro.verify.interval import Interval, interval_of
from repro.verify.memory import (
    BufferLife,
    Footprint,
    MemoryCertificate,
    MemoryPlan,
    check_memory,
    format_memory_plan,
    network_footprint,
    plan_memory,
    weights_bytes,
)
from repro.verify.perf import check_perf, roof_elems
from repro.verify.races import check_races
from repro.verify.verifier import assert_clean, binding_sets_of, verify_build

__all__ = [
    "Diagnostic",
    "BufferLife",
    "EquivCertificate",
    "Footprint",
    "Interval",
    "MemoryCertificate",
    "MemoryPlan",
    "PruneDecision",
    "RULES",
    "SEVERITIES",
    "SUGGESTIONS",
    "StaticProfile",
    "VerifyReport",
    "assert_clean",
    "binding_sets_of",
    "certify_bodies",
    "certify_build",
    "certify_kernel",
    "channel_counts",
    "check_bounds",
    "check_channels",
    "check_memory",
    "check_perf",
    "check_races",
    "clear_equiv_cache",
    "dominates",
    "dynamic_equiv_check",
    "equiv_cache_stats",
    "format_advice",
    "format_memory_plan",
    "format_prune_preview",
    "infeasible_reason",
    "interval_of",
    "lint_source",
    "network_footprint",
    "plan_conv_sweep",
    "profile_conv_tiling",
    "plan_memory",
    "prune_preview",
    "roof_elems",
    "verify_build",
    "weights_bytes",
]
