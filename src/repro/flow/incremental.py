"""Sub-stage incremental recompilation: the per-kernel lower cache.

The ``lower`` stage rebuilds every scheduled kernel on each pipeline
run, even though a DSE/autotune iteration touches exactly one group's
tiling — every *other* kernel re-lowers to a byte-identical
:class:`~repro.ir.Kernel`.  This module memoizes lowering per kernel,
keyed on a content fingerprint of the scheduled kernel: its resolved
transform recipe plus the tensor-expression graph the schedule was
built from (shapes, axis extents, compute bodies, fused epilogues,
buffer scopes).  Touching one layer's schedule then re-lowers only that
kernel's IR; the rest replay from the cache.  The per-run hit/miss
counts surface as ``lower_hits``/``lower_misses`` counters on the
``lower`` stage of the compile trace.

The same LRU memoizes the step before lowering (:func:`scheduled_kernel`):
every scheduled kernel of a folded build — group kernels, static
kernels and prebuilt softmax — is constructed once per key.  The key is
built from values, never hashed: the layer and kernel names, the call
that constructs the kernel's tensors (constructor and arguments: the
layer's shapes and epilogue flags, and ``pin_unit_stride`` where the
tensors read it), the resolved recipe (which carries ``naive``, the
tiling, deltas and overrides) and the IR name uniquifier's value at the
start.  So two graphs that share layer names but not shapes (a network
and its twin) share no kernel.  A hit returns the very object and moves
the uniquifier to where construction left it, so a DSE build constructs
only the kernel its tiling changes, each kernel's
:attr:`~repro.flow.artifacts.ScheduledKernel.lower_key` is computed
once, and a kept candidate's build holds the kernel its dominance
profile made (:mod:`repro.verify.dominance` takes its candidate group
kernels through both memos, under the build's names and recipe).  The
per-run hit/miss counts surface as ``schedule_hits``/``schedule_misses``
counters on the ``schedule`` stage.  Prebuilt kernels (softmax, whose
builder emits IR directly) are looked up only there: the lookup also
counts as a ``lower_hits``/``lower_misses`` event in the registry
(:mod:`repro.counters`), not in the ``lower`` stage's counters.  A
folded arena plan is memoized in the same LRU too (:func:`memoized`,
used by :func:`repro.verify.memory.plan_memory`), so
:func:`clear_lower_cache` empties all three and a cold compile stays
cold.  The pipelined levels
mutate schedules directly and construct their kernels outside the memo
(their prebuilt softmax excepted).

Soundness rests on two facts.  First, a kernel's lowered form is a
deterministic function of (tensor graph, recipe, lower options):
builders reset the IR name uniquifier per schedule build
(:func:`repro.ir.reset_fresh_names`), so identical inputs produce
identical names.  Second, the fingerprint only stands in for schedule
*transform* state when that state is fully recorded as a
:class:`~repro.schedule.ScheduleRecipe` — kernels without a recipe
(the pipelined levels mutate schedules directly) are lowered
unconditionally and counted as ``lower_uncached``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, TypeVar

import repro.ir as ir
from repro import counters
from repro.counters import count
from repro.ir import expr as _e
from repro.ir.printer import expr_str
from repro.ir.tensor import IterVar, Tensor
from repro.pipeline.cache import MISS, MemoryBackend
from repro.pipeline.fingerprint import fingerprint

__all__ = [
    "kernel_lower_key",
    "lower_kernel",
    "lower_kernels",
    "scheduled_kernel",
    "prebuilt_kernel",
    "memoized",
    "cached_kernels",
    "lower_cache_stats",
    "schedule_cache_stats",
    "clear_lower_cache",
    "LOWER_COUNTS",
    "SCHEDULE_COUNTS",
]

#: lowering options that do not invalidate the fingerprint scheme
#: (anything else — channels, compute_at attachments — bypasses caching)
_CACHEABLE_OPTIONS = {"autorun"}

#: process-wide memo (LRU, bounded): lower key -> lowered kernel,
#: schedule-memo key -> (scheduled kernel, uniquifier end), and
#: :func:`memoized` keys -> values
_CACHE = MemoryBackend(512)

#: the registry's ``lower_`` and ``schedule_`` counters, unprefixed
LOWER_COUNTS = ("hits", "misses", "uncached")
SCHEDULE_COUNTS = ("hits", "misses")

T = TypeVar("T")


def _axis_canonical(ax: IterVar) -> List[object]:
    return [ax.name, expr_str(ax.extent_expr()), ax.kind]


def _tensor_canonical(t: Tensor) -> List[object]:
    shape = [d.name if isinstance(d, _e.Var) else int(d) for d in t.shape]
    # strides enter the lowered index expressions, and the
    # pin_unit_stride transform rewrites them in place — two schedules
    # differing only in a pin must not collide on one cache entry
    strides = (
        None
        if t.buffer.strides is None
        else [
            d.name if isinstance(d, _e.Var) else int(d)
            for d in t.buffer.strides
        ]
    )
    base: List[object] = [
        "tensor", t.name, shape, strides, t.dtype, t.buffer.scope,
    ]
    op = t.op
    if op is None:
        return base + ["placeholder"]
    body = op.body
    if isinstance(body, _e.Reduce):
        rendered = (
            f"{body.kind}({expr_str(body.value)}, "
            f"axis=[{', '.join(ax.name for ax in body.axes)}])"
        )
    else:
        rendered = expr_str(body)
    # epilogues are closures; probing them with the output index vars
    # materializes their expression so content (not identity) is hashed
    if op.epilogue is not None:
        probe = op.epilogue(
            _e.Var("__epilogue_acc"), *[ax.var for ax in op.axes]
        )
        epilogue = expr_str(probe)
    else:
        epilogue = None
    return base + [
        [_axis_canonical(ax) for ax in op.axes],
        [_axis_canonical(ax) for ax in op.reduce_axes],
        rendered,
        epilogue,
        [_tensor_canonical(i) for i in op.inputs],
    ]


def kernel_lower_key(sk) -> Optional[str]:
    """Content fingerprint of one scheduled kernel, or ``None``.

    ``None`` means the kernel is not lowered through the cache: prebuilt
    IR (see :func:`prebuilt_kernel`), a schedule whose transforms are not
    recorded as a recipe, or lowering options (channel wiring, stage
    attachment) outside the fingerprint's vocabulary.
    """
    if sk.prebuilt is not None or sk.recipe is None or sk.schedule is None:
        return None
    if not set(sk.lower_options) <= _CACHEABLE_OPTIONS:
        return None
    sch = sk.schedule
    try:
        tensors = [_tensor_canonical(t) for t in sch.tensors]
    except Exception:
        # a compute body or epilogue the canonicalizer cannot render is
        # never worth a wrong hit — lower it directly
        return None
    return fingerprint(
        [
            "lower-kernel",
            sk.name,
            sk.recipe.fingerprint(),
            sorted((k, bool(v)) for k, v in sk.lower_options.items()),
            tensors,
            sch.output.name,
        ]
    )


def lower_kernel(sk) -> ir.Kernel:
    """Lower one scheduled kernel through the per-kernel cache.

    A prebuilt kernel is returned as is: it was looked up (and counted)
    when it was scheduled, by :func:`scheduled_kernel`.
    """
    if sk.prebuilt is not None:
        return sk.prebuilt
    key = sk.lower_key
    if key is None:
        count("lower_uncached")
        return sk.lower()
    cached = _CACHE.get(key)
    if cached is not MISS:
        count("lower_hits")
        return cached
    count("lower_misses")
    kernel = sk.lower()
    _CACHE.put(key, kernel)
    return kernel


def lower_kernels(scheduled) -> List[ir.Kernel]:
    """Lower a list of scheduled kernels through the per-kernel cache."""
    return [lower_kernel(sk) for sk in scheduled]


def scheduled_kernel(key: tuple, construct: Callable[[], T]) -> T:
    """``construct()`` once per (``key``, IR name uniquifier value).

    ``key`` holds every input the constructor reads besides the
    uniquifier (see the module docstring).  A hit returns the stored
    object itself and moves the uniquifier to where construction left
    it, so no later kernel of the build is renamed.  Counted in
    :func:`schedule_cache_stats`; a prebuilt kernel's lookup also counts
    as a lower-cache hit or miss.
    """
    full = ("schedule", *key, ir.fresh_name_count())
    cached = _CACHE.get(full)
    hit = cached is not MISS
    if hit:
        value, names_end = cached
        ir.reset_fresh_names(names_end)
    else:
        value = construct()
        _CACHE.put(full, (value, ir.fresh_name_count()))
    count("schedule_hits" if hit else "schedule_misses")
    if getattr(value, "prebuilt", None) is not None:
        count("lower_hits" if hit else "lower_misses")
    return value


def prebuilt_kernel(build: Callable[..., ir.Kernel], n: int, layer: str,
                    kname: str):
    """The scheduled form of ``build(n, layer, kname)``, for kernels
    whose builder emits IR directly (softmax), through
    :func:`scheduled_kernel`: the arguments and the uniquifier (which
    sets its loop-variable names) determine the kernel."""
    from repro.flow.artifacts import ScheduledKernel

    return scheduled_kernel(
        ("prebuilt", build, n, layer, kname),
        lambda: ScheduledKernel(
            name=kname, layer=layer, prebuilt=build(n, layer, kname)
        ),
    )


def memoized(key: Hashable, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``key`` while the lower cache lives
    (uncounted; ``key`` must not collide with a lower key or a
    schedule-memo key, so callers tag it)."""
    value = _CACHE.get(key)
    if value is MISS:
        value = compute()
        _CACHE.put(key, value)
    return value


def cached_kernels() -> Dict[int, ir.Kernel]:
    """Every kernel the lower cache holds (lowered, or prebuilt in a
    schedule-memo entry), by ``id``; the dict keeps them alive."""
    kernels: Dict[int, ir.Kernel] = {}
    for value in _CACHE.values():
        if isinstance(value, tuple):  # a schedule-memo entry
            value = getattr(value[0], "prebuilt", None)
        if isinstance(value, ir.Kernel):
            kernels[id(value)] = value
    return kernels


def lower_cache_stats() -> Dict[str, int]:
    """Cumulative process-wide ``{hits, misses, uncached}`` counts."""
    return counters.read("lower_", LOWER_COUNTS)


def schedule_cache_stats() -> Dict[str, int]:
    """Cumulative process-wide ``{hits, misses}`` of :func:`scheduled_kernel`."""
    return counters.read("schedule_", SCHEDULE_COUNTS)


def clear_lower_cache() -> None:
    """Drop all memoized kernels, schedules and arena plans, and reset
    the ``lower_`` and ``schedule_`` counters (test isolation)."""
    _CACHE.clear()
    counters.reset("lower_")
    counters.reset("schedule_")
