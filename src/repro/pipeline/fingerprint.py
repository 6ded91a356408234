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
a one-line report and a thousand-invocation plan.  Those closed-over
values are hashed once per object when they are a board and cost-model
constants (:func:`config_fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import fields, is_dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.relay.graph import Graph, OpNode
from repro.relay.passes import FusedGraph, FusedNode

#: (type, canonicalizer) pairs; later registrations win
_CANONICALIZERS: List[Tuple[type, Callable[[object], object]]] = []

#: exact type -> the rule :func:`canonical` applies to its instances,
#: chosen on the type's first sight (a rule depends only on the type);
#: emptied by every registration
_RULES: Dict[type, Callable[[object], object]] = {}


def register_canonicalizer(cls: type, fn: Callable[[object], object]) -> None:
    """Register a canonical-form function for a domain type."""
    _CANONICALIZERS.append((cls, fn))
    _RULES.clear()


def canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-able structure stable across processes."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    rule = _RULES.get(type(obj))
    if rule is None:
        rule = _RULES[type(obj)] = _rule_of(type(obj))
    return rule(obj)


def _rule_of(cls: type) -> Callable[[object], object]:
    """The canonical-form rule of ``cls``'s instances: a registered
    canonicalizer (the latest that matches), then the built-in forms."""
    if issubclass(cls, bytes):
        return bytes.hex
    for base, fn in reversed(_CANONICALIZERS):
        if issubclass(cls, base):
            return lambda obj: canonical(fn(obj))
    if issubclass(cls, (tuple, list)):
        return lambda obj: [canonical(x) for x in obj]
    if issubclass(cls, (set, frozenset)):
        return lambda obj: sorted((canonical(x) for x in obj), key=_sort_key)
    if issubclass(cls, dict):
        return _canonical_dict
    if issubclass(cls, OpNode):
        return lambda obj: [
            "op", obj.name, obj.op, canonical(obj.attrs),
            [i.name for i in obj.inputs], list(obj.out_shape),
        ]
    if issubclass(cls, Graph):
        return lambda obj: [
            "graph", obj.name, [canonical(n) for n in obj.nodes]]
    if issubclass(cls, FusedNode):
        return lambda obj: [
            "fused-node", obj.anchor.name, obj.epilogue_kinds(),
            [n.name for n in obj.extra_inputs],
        ]
    if issubclass(cls, FusedGraph):
        return lambda obj: [
            "fused-graph", canonical(obj.graph),
            [canonical(fn) for fn in obj.nodes],
        ]
    if is_dataclass(cls) and not issubclass(cls, type):
        return lambda obj: [
            "dataclass", type(obj).__name__,
            {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)},
        ]
    # last resort: reprs of small value-like objects (IR vars, specs).
    # Anything whose default repr leaks an address should register a
    # canonicalizer instead of relying on this.
    return lambda obj: ["repr", type(obj).__name__, repr(obj)]


def _canonical_dict(obj: dict) -> object:
    entries = [[canonical(k), canonical(v)] for k, v in obj.items()]
    return sorted(entries, key=lambda e: _sort_key(e[0]))


def _sort_key(entry: object) -> str:
    return json.dumps(entry, sort_keys=True, default=str)


def fingerprint(obj: object) -> str:
    """Full sha256 hex digest of the canonical form of ``obj``."""
    return plain_fingerprint(canonical(obj))


def plain_fingerprint(obj: object) -> str:
    """:func:`fingerprint` of a value built only of ``None``, bools,
    ints, floats, strings, tuples and lists, which is its own canonical
    form up to tuples (JSON writes a tuple as a list): the same digest,
    with no :func:`canonical` walk."""
    blob = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


#: identities of a stage config's values -> (weak references to them,
#: the config's fingerprint)
_CONFIGS: Dict[Tuple[int, ...], Tuple[Tuple[weakref.ref, ...], str]] = {}


def config_fingerprint(config: object) -> str:
    """:func:`fingerprint` of a stage's ``config``, hashed once per
    object when it is a tuple of frozen dataclass instances (a board and
    cost-model constants): keyed by the values' identities, not by
    equality, since ``Board(aluts=1) == Board(aluts=1.0)`` canonicalize
    differently.  An entry dies with any of its values."""
    if not (type(config) is tuple and config
            and all(_frozen(type(x)) for x in config)):
        return fingerprint(config)
    key = tuple(map(id, config))
    hit = _CONFIGS.get(key)
    if hit is not None and all(r() is x for r, x in zip(hit[0], config)):
        return hit[1]
    fp = fingerprint(config)

    def drop(_ref: weakref.ref) -> None:
        _CONFIGS.pop(key, None)

    _CONFIGS[key] = (tuple(weakref.ref(x, drop) for x in config), fp)
    return fp


def _frozen(cls: type) -> bool:
    params = getattr(cls, "__dataclass_params__", None)
    return params is not None and params.frozen and hasattr(cls, "__weakref__")


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
