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

Soundness rests on two facts.  First, a kernel's lowered form is a
deterministic function of (tensor graph, recipe, lower options):
builders reset the IR name uniquifier per schedule build
(:func:`repro.ir.reset_fresh_names`), so identical inputs produce
identical names.  Second, the fingerprint only stands in for schedule
*transform* state when that state is fully recorded as a
:class:`~repro.schedule.ScheduleRecipe` — kernels without a recipe
(the pipelined levels mutate schedules directly) and prebuilt kernels
are lowered unconditionally and counted as ``lower_uncached``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import repro.ir as ir
from repro.ir import expr as _e
from repro.ir.printer import expr_str
from repro.ir.tensor import IterVar, Tensor
from repro.pipeline.cache import MISS, MemoryBackend
from repro.pipeline.fingerprint import fingerprint

__all__ = [
    "kernel_lower_key",
    "lower_kernels",
    "lower_cache_stats",
    "clear_lower_cache",
]

#: lowering options that do not invalidate the fingerprint scheme
#: (anything else — channels, compute_at attachments — bypasses caching)
_CACHEABLE_OPTIONS = {"autorun"}

#: process-wide memo: fingerprint -> lowered kernel (LRU, bounded)
_CACHE = MemoryBackend(512)

_STATS: Dict[str, int] = {"hits": 0, "misses": 0, "uncached": 0}


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

    ``None`` means the kernel must be lowered directly: prebuilt IR, a
    schedule whose transforms are not recorded as a recipe, or lowering
    options (channel wiring, stage attachment) outside the fingerprint's
    vocabulary.
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


def _lower_one(sk) -> ir.Kernel:
    key = kernel_lower_key(sk)
    if key is None:
        _STATS["uncached"] += 1
        return sk.lower()
    cached = _CACHE.get(key)
    if cached is not MISS:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    kernel = sk.lower()
    _CACHE.put(key, kernel)
    return kernel


def lower_kernels(scheduled) -> List[ir.Kernel]:
    """Lower a list of scheduled kernels through the per-kernel cache."""
    return [_lower_one(sk) for sk in scheduled]


def lower_cache_stats() -> Dict[str, int]:
    """Cumulative process-wide ``{hits, misses, uncached}`` counts."""
    return dict(_STATS)


def clear_lower_cache() -> None:
    """Drop all memoized kernels and reset the counters (test isolation)."""
    _CACHE.clear()
    for k in _STATS:
        _STATS[k] = 0
