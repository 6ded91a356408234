"""Recipe builders: each topi schedule flavor as a declarative recipe.

Every ``schedule_*`` function in this package is a thin wrapper that
builds a :class:`~repro.schedule.transforms.ScheduleRecipe` here and
applies it to a fresh schedule.  The recipe is the source of truth: the
folded builder attaches it to each :class:`ScheduledKernel`, the compile
cache keys on its fingerprint, and ``flow.autofix`` appends deltas to
it.  Builders take the same tiling knobs as the imperative schedules
they replaced and must reproduce them step for step — the tier-1 suite
and the committed advice baseline pin that equivalence.
"""

from __future__ import annotations

from typing import List

import repro.ir as ir
from repro.schedule.transforms import ScheduleRecipe, recipe
from repro.topi.common import ConvTiling


def conv2d_naive_recipe(auto_unroll_ff: bool = False) -> ScheduleRecipe:
    """Listing 5.1: writeback at the output-channel axis, no caching."""
    r = recipe().writeback_at("ff")
    if auto_unroll_ff:
        r = r.unroll("ry").unroll("rx")
    return r


def conv2d_opt_recipe(tiling: ConvTiling) -> ScheduleRecipe:
    """Listings 5.2/5.3: register cache, W2/C1 tiling, FxF unroll."""
    r = recipe().cache_write("register")
    if tiling.w2vec > 1:
        r = r.split("xx", tiling.w2vec).unroll("xxi")
        wb = "xxo"
    else:
        wb = "xx"
    if tiling.c1vec > 1:
        r = r.split("rc", tiling.c1vec).unroll("rci")
    if tiling.unroll_ff:
        r = r.unroll("ry").unroll("rx")
    r = r.writeback_at(wb)
    if tiling.w2vec > 1:
        # move the unrolled xxi inside the reduction: leaf order becomes
        # ff, yy, xxo, rco, rci, xxi, ry, rx (Listing 5.3)
        if tiling.c1vec > 1:
            order = ["ff", "yy", "xxo", "rco", "rci", "xxi", "ry", "rx"]
        else:
            order = ["ff", "yy", "xxo", "rc", "xxi", "ry", "rx"]
        r = r.reorder(*order)
    return r.cache_read(input=0).cache_read(input=1)


def conv1x1_opt_recipe(tiling: ConvTiling) -> ScheduleRecipe:
    """Listing 5.4: C2/W2/C1 tiling with a c2vec x w2vec register tile."""
    r = recipe().cache_write("register")
    if tiling.c2vec > 1:
        r = r.split("ff", tiling.c2vec).unroll("ffi")
    if tiling.w2vec > 1:
        r = r.split("xx", tiling.w2vec).unroll("xxi")
    if tiling.c1vec > 1:
        r = r.split("rc", tiling.c1vec).unroll("rci")
    data_outer = [
        "ffo" if tiling.c2vec > 1 else "ff",
        "yy",
        "xxo" if tiling.w2vec > 1 else "xx",
    ]
    first_reduce = "rco" if tiling.c1vec > 1 else "rc"
    inner: List[str] = []
    if tiling.w2vec > 1:
        inner.append("xxi")
    if tiling.c2vec > 1:
        inner.append("ffi")
    if tiling.c1vec > 1:
        inner.append("rci")
    order = data_outer + [first_reduce] + inner + ["ry", "rx"]
    r = r.reorder(*order).writeback_at(data_outer[-1])
    return r.cache_read(input=0).cache_read(input=1)


def symbolic_conv_recipe(
    tiling: ConvTiling, is_1x1: bool, depthwise: bool = False
) -> ScheduleRecipe:
    """Parameterized conv (§5.3): static inner tiles unroll, outers stay
    symbolic.  Mirrors :func:`repro.topi.schedule_symbolic_conv`."""
    ch = "cc" if depthwise else "ff"
    r = recipe().cache_write("register")
    split_ff = is_1x1 and not depthwise and tiling.c2vec > 1
    if split_ff:
        r = r.split(ch, tiling.c2vec).unroll(ch + "i")
    if tiling.w2vec > 1:
        r = r.split("xx", tiling.w2vec).unroll("xxi")
    split_rc = not depthwise and tiling.c1vec > 1
    if split_rc:
        r = r.split("rc", tiling.c1vec).unroll("rci")
    if tiling.unroll_ff:
        r = r.unroll("ry").unroll("rx")
    data_order = [
        ch + "o" if split_ff else ch,
        "yy",
        "xxo" if tiling.w2vec > 1 else "xx",
    ]
    reduce_outer = [] if depthwise else ["rco" if split_rc else "rc"]
    inner: List[str] = []
    if tiling.w2vec > 1:
        inner.append("xxi")
    if split_ff:
        inner.append(ch + "i")
    if split_rc:
        inner.append("rci")
    order = data_order + reduce_outer + inner + ["ry", "rx"]
    r = r.reorder(*order).writeback_at(data_order[-1])
    return r.cache_read(input=0).cache_read(input=1)


def depthwise_naive_recipe(auto_unroll_ff: bool = False) -> ScheduleRecipe:
    """Default depthwise schedule: writeback at the channel axis."""
    r = recipe().writeback_at("cc")
    if auto_unroll_ff:
        r = r.unroll("ry").unroll("rx")
    return r


def depthwise_opt_recipe(tiling: ConvTiling) -> ScheduleRecipe:
    """Optimized depthwise: W2 tiling, FxF unroll, register cache."""
    r = recipe().cache_write("register")
    if tiling.w2vec > 1:
        r = r.split("xx", tiling.w2vec).unroll("xxi")
        wb = "xxo"
    else:
        wb = "xx"
    if tiling.unroll_ff:
        r = r.unroll("ry").unroll("rx")
    r = r.writeback_at(wb)
    return r.cache_read(input=0).cache_read(input=1)


def dense_naive_recipe() -> ScheduleRecipe:
    """Listing 5.5: scalar dot product, global scratchpad."""
    return recipe()


def dense_opt_recipe(unroll_factor: int) -> ScheduleRecipe:
    """Listing 5.6: strip-mine + unroll the reduction, register cache."""
    r = recipe().cache_write("register")
    if unroll_factor > 1:
        r = r.split("k", unroll_factor).unroll("ki")
    return r.cache_read(input=0)


def pool_naive_recipe() -> ScheduleRecipe:
    """Default pooling schedule: per-element reduction, no caching."""
    return recipe()


def pool_opt_recipe(out: ir.Tensor) -> ScheduleRecipe:
    """Unroll the (static, small) pooling window, register-cache."""
    r = recipe().cache_write("register")
    for ax in out.op.reduce_axes:
        if ax.static_extent is not None and ax.static_extent <= 16:
            r = r.unroll(ax.name)
    return r


def transform_recipe() -> ScheduleRecipe:
    """Pad/flatten kernels are never unrolled (thesis Table 4.1)."""
    return recipe()

