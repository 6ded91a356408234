"""Stable fingerprints for pipeline artifacts and cache keys.

Two kinds of fingerprint live here.  A *content* fingerprint
(:func:`fingerprint`) reduces any domain object to a canonical JSON-able
structure and hashes it; two objects with the same semantic content get
the same digest across processes (no ``id()``-derived state enters the
canonical form).  Cache keys, and the artifacts a pipeline does not
derive itself (the imported graph, seeded artifacts, the generated
source text), use it.  Domain types outside this module's vocabulary can
register a canonicalizer (see :func:`register_canonicalizer`) — the flow
layer does this for the schedule artifacts the ``synthesize`` key reads.

A *derived* fingerprint (:func:`derived_fingerprint`) names how a
deterministic stage made its artifact: the stage, the fingerprint of
the values its function closes over, and the fingerprints of the
artifacts it could read.  It hashes no output, so it costs the same for
a one-line report and a thousand-invocation plan.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import fields, is_dataclass
from typing import Callable, List, Sequence, Tuple

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


#: object -> content fingerprint, for the artifacts hashed once per
#: object; weak, so a memoized graph dies with its last user
_BY_OBJECT: "weakref.WeakKeyDictionary[object, str]" = weakref.WeakKeyDictionary()


def content_fingerprint(obj: object) -> str:
    """:func:`fingerprint` of ``obj``, computed once per object.

    Only for objects nothing changes after they are made.  A
    :class:`~repro.relay.graph.Graph` qualifies: its builder appends
    every node before ``build()`` returns it, and every later pass
    (fusion, scheduling, execution) reads the graph and builds new
    objects instead of editing it; a
    :class:`~repro.relay.passes.FusedGraph` is likewise complete when
    :func:`~repro.relay.passes.fuse_operators` returns.  Objects that
    cannot be weakly referenced (``str``, tuples) are hashed on every
    call, which for a source text is the cost of one sha256.
    """
    try:
        return _BY_OBJECT[obj]
    except KeyError:
        fp = _BY_OBJECT[obj] = fingerprint(obj)
        return fp
    except TypeError:
        return fingerprint(obj)


def derived_fingerprint(stage: str, config: str, inputs: Sequence[str]) -> str:
    """sha256 naming one stage run: ``stage`` with config fingerprint
    ``config`` over the artifacts fingerprinted ``inputs``, in order."""
    h = hashlib.sha256(b"derived")
    for part in (stage, config, *inputs):
        h.update(b"\0" + part.encode())
    return h.hexdigest()
