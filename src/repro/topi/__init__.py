"""TVM-Operator-Inventory equivalent: compute definitions + schedules.

Compute definitions and schedule recipes for conv / depthwise / dense /
pool / pad / softmax, the ``ConvTiling`` knobs, and the symbolic
(parameterized-shape) kernel variants of §5.3.  Contract: given an op
spec and a tiling, return a schedulable kernel whose numerics match
``repro.nn``.
"""

from repro.topi.common import ConvSpec, ConvTiling, DenseSpec, PoolSpec, make_activation
from repro.topi.conv2d import (
    conv2d_tensors,
    schedule_conv1x1_opt,
    schedule_conv2d_naive,
    schedule_conv2d_opt,
)
from repro.topi.depthwise import (
    depthwise_tensors,
    schedule_depthwise_naive,
    schedule_depthwise_opt,
)
from repro.topi.dense import dense_tensors, schedule_dense_naive, schedule_dense_opt
from repro.topi.pooling import (
    gap_tensors,
    pool_tensors,
    schedule_pool_naive,
    schedule_pool_opt,
)
from repro.topi.softmax import (
    softmax_kernel_licm,
    softmax_kernel_naive,
    softmax_schedule,
    softmax_tensors,
)
from repro.topi.pad import flatten_tensors, pad_tensors, schedule_transform
from repro.topi.recipes import (
    conv1x1_opt_recipe,
    conv2d_naive_recipe,
    conv2d_opt_recipe,
    dense_naive_recipe,
    dense_opt_recipe,
    depthwise_naive_recipe,
    depthwise_opt_recipe,
    pool_naive_recipe,
    pool_opt_recipe,
    symbolic_conv_recipe,
    transform_recipe,
)
from repro.topi.symbolic import (
    SymbolicConv,
    SymbolicPad,
    conv2d_symbolic,
    depthwise_symbolic,
    pad_symbolic,
    schedule_symbolic_conv,
)

__all__ = [
    "ConvSpec", "ConvTiling", "DenseSpec", "PoolSpec", "SymbolicConv",
    "SymbolicPad", "conv1x1_opt_recipe", "conv2d_naive_recipe",
    "conv2d_opt_recipe", "conv2d_symbolic", "conv2d_tensors",
    "dense_naive_recipe", "dense_opt_recipe", "dense_tensors",
    "depthwise_naive_recipe", "depthwise_opt_recipe", "depthwise_symbolic",
    "depthwise_tensors", "flatten_tensors", "gap_tensors",
    "make_activation", "pad_symbolic", "pad_tensors", "pool_naive_recipe",
    "pool_opt_recipe", "pool_tensors",
    "schedule_conv1x1_opt", "schedule_conv2d_naive", "schedule_conv2d_opt",
    "schedule_dense_naive", "schedule_dense_opt",
    "schedule_depthwise_naive", "schedule_depthwise_opt",
    "schedule_pool_naive", "schedule_pool_opt", "schedule_symbolic_conv",
    "schedule_transform", "softmax_kernel_licm", "softmax_kernel_naive",
    "softmax_schedule", "softmax_tensors", "symbolic_conv_recipe",
    "transform_recipe",
]
