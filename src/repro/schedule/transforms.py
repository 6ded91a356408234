"""Composable, serializable schedule transforms (recipes).

A :class:`ScheduleRecipe` is an ordered list of named transform steps —
the declarative form of the imperative ``Stage`` calls the thesis's
Chapter 5 listings apply by hand.  Recipes are pure data: they can be
composed (``+``), diffed, round-tripped through dict/JSON, fingerprinted
for the content-addressed compile cache, and *applied* to any
freshly-created :class:`~repro.schedule.schedule.Schedule` whose axes
match by canonical name.  The schedule builders in ``repro.topi`` emit
recipes, ``flow.folded`` applies them, and ``flow.autofix`` rewrites
them from advisor findings — one vocabulary end to end.

Axis references are *canonical names*: ``repro.ir.compute`` uniquifies
data axis names (``ff`` becomes ``ff_1``), and split children append
``o``/``i`` (``ff_1o``), so a recipe names the axis ``ff`` or ``ffo``
and :func:`canonical_axis` strips the uniquifying suffix at apply time.
That keeps one recipe applicable to every kernel instance of the same
operator shape.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from repro.counters import count
from repro.errors import ScheduleError
from repro.ir import expr as _e

#: transform catalog: step name -> human-readable contract.  The lint
#: gate (tools/lint.py) keeps this table and docs/schedules.md in sync.
CATALOG: Dict[str, str] = {
    "split": "strip-mine an axis by a factor into (outer, inner)",
    "tile": "2-D strip mining: split two axes and interleave as (xo, yo, xi, yi)",
    "reorder": "permute the named leaf axes across the slots they occupy",
    "unroll": "mark a leaf axis unrolled (optionally by a partial factor)",
    "cache_write": "accumulate into an on-chip scratchpad scope instead of global memory",
    "cache_read": "cache one input tensor's reads on-chip (BRAM)",
    "writeback_at": "choose the data axis whose body holds init/accumulate/writeback",
    "pin_unit_stride": "pin symbolic innermost buffer strides to the literal 1",
}

_UNIQ_SUFFIX = re.compile(r"_\d+")


def canonical_axis(name: str) -> str:
    """Strip the uniquifying ``_N`` suffix: ``ff_1o`` -> ``ffo``."""
    return _UNIQ_SUFFIX.sub("", name, count=1)


def _freeze(value: object) -> object:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: object) -> object:
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class TransformStep:
    """One named transform with keyword arguments, as pure data."""

    op: str
    args: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in CATALOG:
            raise ScheduleError(
                f"unknown transform {self.op!r}; catalog: {sorted(CATALOG)}"
            )

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.args)

    def to_dict(self) -> Dict[str, object]:
        return {"op": self.op, "args": {k: _thaw(v) for k, v in self.args}}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TransformStep":
        args = tuple(sorted((k, _freeze(v)) for k, v in dict(d["args"]).items()))
        return cls(op=str(d["op"]), args=args)

    def format(self) -> str:
        inside = ", ".join(f"{k}={v!r}" for k, v in self.args)
        return f"{self.op}({inside})"


def step(op: str, **kwargs: object) -> TransformStep:
    """Build a :class:`TransformStep` from keyword arguments."""
    return TransformStep(op=op, args=tuple(sorted((k, _freeze(v)) for k, v in kwargs.items())))


@dataclass(frozen=True)
class ScheduleRecipe:
    """An immutable, composable sequence of transform steps."""

    steps: Tuple[TransformStep, ...] = field(default_factory=tuple)

    # -- composition ---------------------------------------------------
    def then(self, s: TransformStep) -> "ScheduleRecipe":
        return ScheduleRecipe(self.steps + (s,))

    def __add__(self, other: "ScheduleRecipe") -> "ScheduleRecipe":
        return ScheduleRecipe(self.steps + other.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)

    # -- builder API (one method per catalog entry) --------------------
    def split(self, axis: str, factor: int) -> "ScheduleRecipe":
        return self.then(step("split", axis=axis, factor=factor))

    def tile(self, x: str, y: str, x_factor: int, y_factor: int) -> "ScheduleRecipe":
        return self.then(step("tile", x=x, y=y, x_factor=x_factor, y_factor=y_factor))

    def reorder(self, *axes: str) -> "ScheduleRecipe":
        return self.then(step("reorder", axes=list(axes)))

    def unroll(self, axis: str, factor: Optional[int] = None) -> "ScheduleRecipe":
        return self.then(step("unroll", axis=axis, factor=factor))

    def cache_write(self, scope: str = "register") -> "ScheduleRecipe":
        return self.then(step("cache_write", scope=scope))

    def cache_read(self, input: Optional[int] = None, tensor: Optional[str] = None) -> "ScheduleRecipe":
        if (input is None) == (tensor is None):
            raise ScheduleError("cache_read takes exactly one of input= or tensor=")
        if input is not None:
            return self.then(step("cache_read", input=input))
        return self.then(step("cache_read", tensor=tensor))

    def writeback_at(self, axis: Optional[str]) -> "ScheduleRecipe":
        return self.then(step("writeback_at", axis=axis))

    def pin_unit_stride(self) -> "ScheduleRecipe":
        return self.then(step("pin_unit_stride"))

    # -- application ---------------------------------------------------
    def apply(self, sch, stage_index: int = 0):
        """Apply every step to ``sch.stages[stage_index]``; returns ``sch``.

        Axis arguments are resolved by canonical name against the
        stage's *current* leaf axes, so later steps see the children of
        earlier splits (``xxo``/``xxi`` after ``split('xx', ...)``).
        """
        st = sch.stages[stage_index]
        for s in self.steps:
            self._apply_step(sch, st, s)
        return sch

    def _apply_step(self, sch, st, s: TransformStep) -> None:
        kw = s.kwargs
        if s.op == "split":
            st.split(_resolve_axis(st, str(kw["axis"])), int(kw["factor"]))
        elif s.op == "tile":
            st.tile(
                _resolve_axis(st, str(kw["x"])),
                _resolve_axis(st, str(kw["y"])),
                int(kw["x_factor"]),
                int(kw["y_factor"]),
            )
        elif s.op == "reorder":
            st.reorder(*[_resolve_axis(st, str(a)) for a in kw["axes"]])
        elif s.op == "unroll":
            factor = kw.get("factor")
            st.unroll(_resolve_axis(st, str(kw["axis"])), None if factor is None else int(factor))
        elif s.op == "cache_write":
            st.cache_write(str(kw["scope"]))
        elif s.op == "cache_read":
            st.cache_read(_resolve_input(st, kw))
        elif s.op == "writeback_at":
            axis = kw.get("axis")
            st.writeback_at(None if axis is None else _resolve_axis(st, str(axis)))
        elif s.op == "pin_unit_stride":
            _pin_unit_strides(sch, st)
        else:  # pragma: no cover — __post_init__ rejects unknown ops
            raise ScheduleError(f"unknown transform {s.op!r}")

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"version": 1, "steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ScheduleRecipe":
        if d.get("version") != 1:
            raise ScheduleError(f"unsupported recipe version {d.get('version')!r}")
        return cls(tuple(TransformStep.from_dict(s) for s in d["steps"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleRecipe":
        return cls.from_dict(json.loads(text))

    # -- identity ------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the recipe — the compile-cache key component."""
        return _recipe_fingerprint(self.steps)

    def diff(self, other: "ScheduleRecipe") -> List[str]:
        """Step-level diff: common prefix kept, then ``-``/``+`` lines."""
        common = 0
        for a, b in zip(self.steps, other.steps):
            if a != b:
                break
            common += 1
        lines = [f"  {s.format()}" for s in self.steps[:common]]
        lines += [f"- {s.format()}" for s in self.steps[common:]]
        lines += [f"+ {s.format()}" for s in other.steps[common:]]
        return lines

    def format(self) -> str:
        return " -> ".join(s.format() for s in self.steps) or "(empty)"


@lru_cache(maxsize=1024)
def _recipe_fingerprint(steps: Tuple[TransformStep, ...]) -> str:
    # memoized by content, not per object: the schedule builders make a
    # new, equal recipe for every kernel of every candidate.  Steps are
    # frozen and their args frozen tuples, so equal steps hash equal.
    from repro.pipeline.fingerprint import fingerprint

    count("recipes_hashed")
    return fingerprint(["schedule-recipe", ScheduleRecipe(steps).to_dict()])


def _resolve_axis(st, name: str):
    """Find the leaf axis whose canonical name matches ``name``."""
    hits = [ax for ax in st.leaf_axes if canonical_axis(ax.name) == name]
    if not hits:
        hits = [ax for ax in st.leaf_axes if ax.name == name]
    if not hits:
        leaves = [canonical_axis(ax.name) for ax in st.leaf_axes]
        raise ScheduleError(
            f"recipe axis {name!r} not found in {st.op.name}; leaves: {leaves}"
        )
    if len(hits) > 1:
        raise ScheduleError(
            f"recipe axis {name!r} is ambiguous in {st.op.name}: "
            f"{[ax.name for ax in hits]}"
        )
    return hits[0]


def _resolve_input(st, kw: Dict[str, object]):
    if "tensor" in kw:
        name = str(kw["tensor"])
        for t in st.op.inputs:
            if t.name == name:
                return t
        raise ScheduleError(
            f"recipe cache_read tensor {name!r} is not an input of {st.op.name}"
        )
    idx = int(kw["input"])
    inputs = list(st.op.inputs)
    if not 0 <= idx < len(inputs):
        raise ScheduleError(
            f"recipe cache_read input {idx} out of range for {st.op.name} "
            f"({len(inputs)} inputs)"
        )
    return inputs[idx]


def _pin_unit_strides(sch, st) -> None:
    """Rewrite symbolic innermost strides to the literal 1 (idempotent).

    Each replaced stride expression is recorded on the schedule
    (``sch.pinned_strides``) so the equivalence certifier can prove the
    pin is sound — i.e. every binding set actually binds it to 1.
    """
    tensors = list(st.op.inputs) + [t for t in sch.tensors]
    pins = getattr(sch, "pinned_strides", None)
    for t in tensors:
        buf = t.buffer
        strides = getattr(buf, "strides", None)
        if not strides:
            continue
        inner = strides[-1]
        if isinstance(inner, int) or isinstance(inner, _e.IntImm):
            continue
        if pins is not None:
            pins.append((buf.name, inner))
        buf.strides = tuple(strides[:-1]) + (1,)


def recipe(steps: Iterable[TransformStep] = ()) -> ScheduleRecipe:
    """Convenience constructor (``recipe().split(...).unroll(...)``)."""
    return ScheduleRecipe(tuple(steps))
