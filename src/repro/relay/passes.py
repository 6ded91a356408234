"""Graph-level passes: operator fusion and kernel grouping.

Reproduces the Relay transformations the thesis relies on (Section 3.1):
injective (elementwise) operations — bias add, batch norm, ReLU/ReLU6 and
residual additions — are fused into the output of the preceding complex
operator, so that a distinct kernel is generated for each convolution,
dense, padding and softmax layer, with activations applied in the kernel
epilogue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.relay.graph import ANCHOR_OPS, Graph, INJECTIVE_OPS, OpNode


class FusedNode:
    """One kernel-granularity operation after fusion.

    ``anchor`` is the complex op; ``epilogue`` the injective ops fused
    into its output, in application order.  ``extra_inputs`` are the
    additional tensors the epilogue reads (residual shortcut inputs).
    """

    def __init__(self, anchor: OpNode) -> None:
        self.anchor = anchor
        self.epilogue: List[OpNode] = []
        self.extra_inputs: List[OpNode] = []

    @property
    def name(self) -> str:
        return self.anchor.name

    @property
    def op(self) -> str:
        return self.anchor.op

    @property
    def out_shape(self):
        if self.epilogue:
            return self.epilogue[-1].out_shape
        return self.anchor.out_shape

    @property
    def output_node(self) -> OpNode:
        """The graph node whose value this kernel produces."""
        return self.epilogue[-1] if self.epilogue else self.anchor

    def epilogue_kinds(self) -> List[str]:
        return [n.op for n in self.epilogue]

    @property
    def activation(self) -> Optional[str]:
        """Fused activation kind ('relu'/'relu6') if any."""
        for n in self.epilogue:
            if n.op in ("relu", "relu6"):
                return n.op
        return None

    @property
    def has_residual(self) -> bool:
        return any(n.op == "add" for n in self.epilogue)

    @property
    def has_batchnorm(self) -> bool:
        return any(n.op == "batchnorm" for n in self.epilogue)

    @property
    def batchnorm_node(self) -> Optional[OpNode]:
        for n in self.epilogue:
            if n.op == "batchnorm":
                return n
        return None

    def check_canonical_epilogue(self) -> None:
        """The kernel builders emit bias -> batchnorm -> add -> activation;
        reject epilogue chains in any other order."""
        order = {"bias_add": 0, "batchnorm": 1, "add": 2, "relu": 3, "relu6": 3}
        ranks = [order[n.op] for n in self.epilogue]
        if ranks != sorted(ranks):
            raise ReproError(
                f"{self.name}: epilogue {self.epilogue_kinds()} is not in "
                "canonical bias/batchnorm/add/activation order"
            )

    def flops(self) -> int:
        return self.anchor.flops() + sum(n.flops() for n in self.epilogue)

    def __repr__(self) -> str:
        epi = "+".join(self.epilogue_kinds())
        suffix = f" (+{epi})" if epi else ""
        return f"FusedNode({self.name}: {self.op}{suffix})"


class FusedGraph:
    """The kernel-level view of a network after operator fusion."""

    def __init__(self, graph: Graph, nodes: Sequence[FusedNode]) -> None:
        self.graph = graph
        self.nodes: List[FusedNode] = list(nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def total_flops(self) -> int:
        return sum(fn.flops() for fn in self.nodes)

    def __repr__(self) -> str:
        return f"FusedGraph({self.graph.name}, {len(self.nodes)} kernels)"


def fuse_operators(graph: Graph) -> FusedGraph:
    """Fuse injective ops into their producing complex op.

    An injective node is fused into the fused-group producing its first
    input when that group's output has no other consumer; residual ``add``
    nodes fuse into the producer of whichever operand is an immediately
    preceding convolution, with the other operand becoming an extra kernel
    input.  Injective chains starting at the graph input (rare) raise, as
    the thesis's flow always anchors kernels at complex ops.
    """
    fused: List[FusedNode] = []
    group_of: Dict[str, FusedNode] = {}  # graph node name -> group holding it

    consumer_count: Dict[str, int] = {n.name: 0 for n in graph.nodes}
    for n in graph.nodes:
        for i in n.inputs:
            consumer_count[i.name] += 1

    for node in graph.nodes:
        if node.op == "input":
            continue
        if node.op in ANCHOR_OPS:
            fn = FusedNode(node)
            fused.append(fn)
            group_of[node.name] = fn
            continue
        if node.op not in INJECTIVE_OPS:  # pragma: no cover - vocabulary guard
            raise ReproError(f"unclassified op {node.op}")

        # candidates: producers of each operand whose group output is the
        # operand itself with no other consumer; fuse into the
        # topologically-latest such producer (its value is the freshest —
        # earlier candidates stay as extra kernel inputs, e.g. the residual
        # shortcut of a ResNet block)
        order = {n.name: i for i, n in enumerate(graph.nodes)}
        candidates: List[Tuple[int, FusedNode, OpNode]] = []
        for operand in node.inputs:
            grp = group_of.get(operand.name)
            if (
                grp is not None
                and grp.output_node is operand
                and consumer_count[operand.name] == 1
            ):
                candidates.append((order[grp.anchor.name], grp, operand))
        target: Optional[FusedNode] = None
        chosen: Optional[OpNode] = None
        if candidates:
            _, target, chosen = max(candidates, key=lambda t: t[0])
        extra = [operand for operand in node.inputs if operand is not chosen]
        if target is None:
            raise ReproError(
                f"cannot fuse {node.name} ({node.op}): no single-consumer "
                "complex producer"
            )
        target.epilogue.append(node)
        target.extra_inputs.extend(extra)
        group_of[node.name] = target

    return FusedGraph(graph, fused)
