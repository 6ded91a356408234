"""Stable content fingerprints for pipeline artifacts and cache keys.

``fingerprint`` reduces any domain object to a canonical JSON-able
structure and hashes it; two objects with the same semantic content get
the same digest across processes (no ``id()``-derived state enters the
canonical form).  Domain types outside this module's vocabulary can
register a canonicalizer (see :func:`register_canonicalizer`) — the flow
layer does this for its schedule artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Callable, List, Tuple

from repro.relay.graph import Graph, OpNode
from repro.relay.passes import FusedGraph, FusedNode

#: (type, canonicalizer) pairs; later registrations win
_CANONICALIZERS: List[Tuple[type, Callable[[object], object]]] = []


def register_canonicalizer(cls: type, fn: Callable[[object], object]) -> None:
    """Register a canonical-form function for a domain type."""
    _CANONICALIZERS.append((cls, fn))


def canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-able structure stable across processes."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return obj.hex()
    for cls, fn in reversed(_CANONICALIZERS):
        if isinstance(obj, cls):
            return canonical(fn(obj))
    if isinstance(obj, (tuple, list)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(x) for x in obj), key=_sort_key)
    if isinstance(obj, dict):
        entries = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return sorted(entries, key=lambda e: _sort_key(e[0]))
    if isinstance(obj, OpNode):
        return [
            "op", obj.name, obj.op, canonical(obj.attrs),
            [i.name for i in obj.inputs], list(obj.out_shape),
        ]
    if isinstance(obj, Graph):
        return ["graph", obj.name, [canonical(n) for n in obj.nodes]]
    if isinstance(obj, FusedNode):
        return [
            "fused-node", obj.anchor.name, obj.epilogue_kinds(),
            [n.name for n in obj.extra_inputs],
        ]
    if isinstance(obj, FusedGraph):
        return [
            "fused-graph", canonical(obj.graph),
            [canonical(fn) for fn in obj.nodes],
        ]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dataclass", type(obj).__name__,
            {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)},
        ]
    # last resort: reprs of small value-like objects (IR vars, specs).
    # Anything whose default repr leaks an address should register a
    # canonicalizer instead of relying on this.
    return ["repr", type(obj).__name__, repr(obj)]


def _sort_key(entry: object) -> str:
    return json.dumps(entry, sort_keys=True, default=str)


def fingerprint(obj: object) -> str:
    """Full sha256 hex digest of the canonical form of ``obj``."""
    blob = json.dumps(canonical(obj), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
