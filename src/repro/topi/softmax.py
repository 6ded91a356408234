"""Softmax: four chained stages and the LICM optimization (thesis §5.1.3).

TVM computes softmax as max-element, exponentials, exponential sum and
normalization.  The **naive** schedule (Listing 5.7) attaches the first
three stages *inside* the normalization loop, recomputing them for every
output element; the **optimized** schedule (Listing 5.8) hoists them out
— classic loop-invariant code motion, worth a factor of ~N in work.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import repro.ir as ir
from repro.ir.kernel import Kernel
from repro.ir.tensor import IterVar
from repro.schedule import Schedule, Stage, create_schedule
from repro.schedule.lower import lower as _lower


def softmax_tensors(n: int, name: str) -> Tuple[Dict[str, ir.Tensor], Tuple[ir.Tensor, ...]]:
    """Build the four softmax stages over an ``n``-class input.

    Returns ``(inputs, (maxelem, exps, expsum, norm))``; the last tensor
    is the kernel output.
    """
    I = ir.placeholder((n,), f"{name}_in")
    k = ir.reduce_axis(n, "k")
    maxelem = ir.compute(
        (1,),
        lambda z: ir.max_reduce(I[k], [k]),
        f"{name}_maxelem",
        inputs=[I],
        axis_names=["z"],
    )
    exps = ir.compute(
        (n,),
        lambda i: ir.exp(I[i] - maxelem[0]),
        f"{name}_exp",
        inputs=[I, maxelem],
        axis_names=["i"],
    )
    k1 = ir.reduce_axis(n, "k1")
    expsum = ir.compute(
        (1,),
        lambda z: ir.sum(exps[k1], [k1]),
        f"{name}_expsum",
        inputs=[exps],
        axis_names=["z"],
    )
    norm = ir.compute(
        (n,),
        lambda i: exps[i] / expsum[0],
        f"{name}_norm",
        inputs=[exps, expsum],
        axis_names=["i"],
    )
    return {"I": I}, (maxelem, exps, expsum, norm)


def softmax_schedule(
    n: int, name: str, naive: bool
) -> Tuple[Schedule, Optional[Dict[Stage, Tuple[Stage, IterVar]]]]:
    """The softmax schedule and its ``compute_at`` map for lowering.

    ``naive`` attaches max/exp/sum inside the normalization loop
    (Listing 5.7); otherwise the map is None and they stay hoisted.
    """
    _, tensors = softmax_tensors(n, name)
    sch = create_schedule(*tensors)
    if not naive:
        return sch, None
    *invariant, norm = tensors
    norm_stage = sch[norm]
    (i1,) = norm_stage.data_axes
    return sch, {sch[t]: (norm_stage, i1) for t in invariant}


def softmax_kernel_naive(n: int, name: str, kernel_name: str) -> Kernel:
    """Listing 5.7: max/exp/sum recomputed inside the normalization loop."""
    sch, attach = softmax_schedule(n, name, naive=True)
    return _lower(sch, kernel_name, compute_at=attach)


def softmax_kernel_licm(n: int, name: str, kernel_name: str) -> Kernel:
    """Listing 5.8: loop-invariant stages hoisted out (computed once)."""
    sch, _ = softmax_schedule(n, name, naive=False)
    return _lower(sch, kernel_name)
