"""Static schedule-equivalence certifier: translation validation (RE rules).

Every recipe rewrite in this repo used to be trusted only because we
*ran* it — logits cross-checks in :mod:`repro.flow.autofix` and the
degradation ladder re-enter the interpreter on exactly the hot paths
the vectorized interpreter and parallel DSE fought to speed up.  This
module proves, statically, that a scheduled kernel computes the same
function as the naive lowering of the same tensor expression, so the
DSE / autotune / autofix flows can accept a candidate on a certificate
instead of an interpreter run.

Two cooperating layers:

**Per-transform legality proofs.**  Each of the 8 transform-catalog ops
(:data:`repro.schedule.transforms.CATALOG`) discharges to a specific
obligation:

* ``reorder`` / ``tile`` / ``writeback_at`` — no reduce axis may move
  at/before the writeback axis: the accumulator carries a distance-1
  recurrence (:func:`repro.ir.analysis.dependence_distance`) over every
  reduce axis, so a hoisted writeback would read a partial sum (RE002).
  The remaining order freedom is covered by the whole-kernel
  certificate's coverage and visit-order obligations (RE001/RE003).
* ``split`` — static extents are checked at apply time; a *symbolic*
  extent must be divisible by the factor under every binding set, else
  the floor-divided outer loop silently drops the tail (RE004).
* ``pin_unit_stride`` — every stride expression the transform replaced
  with the literal 1 (recorded as ``Schedule.pinned_strides``) must
  actually bind to 1 in every binding set (RE005).
* ``unroll`` — semantics-preserving by construction (replication order
  equals serial order; write races are the RR family's obligation).
* ``cache_write`` / ``cache_read`` — scope/metadata changes only; the
  accumulation order is unchanged and the certificate re-proves the
  store set.

**Whole-kernel certificates.**  The naive lowering (a fresh unscheduled
:class:`~repro.schedule.schedule.Schedule` over the same tensors) and
the scheduled lowering are compared pre-simplification as symbolic
store sets: the output store's address map and value expression must be
structurally equal after applying the stage's split substitution, every
data/reduce leaf axis must be iterated by the writeback/accumulation
nests (a dropped axis with extent > 1 is a proven miscompile, RE001),
and the reduce-leaf visit order must equal the naive left fold that the
interpreters guarantee bit-exactly — any other order is a float
reassociation, reported as RE003 and *not* certified bit-exact.  The
result is a serializable, fingerprint-keyed :class:`EquivCertificate`,
cached process-wide like :mod:`repro.flow.incremental`'s lower cache.

Soundness policy: only concrete witnesses (missing output store,
dropped axis, illegal reduce hoist, non-dividing split, non-unit pin,
bit-level dynamic mismatch) are errors.  Anything the prover cannot
decide — unexpected statements, structurally different value trees —
degrades to ``RE006`` (*unknown*) and one final dynamic cross-check
against the naive lowering (:func:`dynamic_equiv_check`), never to a
false certificate.  Kernels outside the fragment (prebuilt IR,
recipe-less schedules, channel wiring, multi-stage softmax) are
*uncertified*: out of scope, not a fallback.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import Bindings, dependence_distance, eval_int
from repro.ir.functor import ExprMutator, substitute
from repro.ir.printer import expr_str
from repro.ir.tensor import IterVar
from repro.pipeline.cache import MISS, MemoryBackend
from repro.pipeline.fingerprint import fingerprint
from repro.runtime.plan import FoldedPlan
from repro.schedule.lower import lower_stage_body
from repro.schedule.schedule import Schedule, Stage, create_schedule
from repro.verify.diagnostics import Diagnostic, VerifyReport
from repro.verify.verifier import binding_sets_of

__all__ = [
    "RULES",
    "EquivCertificate",
    "certify_kernel",
    "certify_build",
    "dynamic_equiv_check",
    "equiv_cache_stats",
    "clear_equiv_cache",
]

#: rule IDs this analyzer may emit (tools/lint.py cross-checks)
RULES = ("RE001", "RE002", "RE003", "RE004", "RE005", "RE006")

#: counters certify_build always reports, even when zero, so "clean"
#: is distinguishable from "didn't certify"
COUNTERS = (
    "equiv_certified",
    "equiv_rejected",
    "equiv_unknown",
    "equiv_uncertified",
    "equiv_dynamic_runs",
)

# -- certificate --------------------------------------------------------------


@dataclass(frozen=True)
class EquivCertificate:
    """Serializable verdict of one kernel's equivalence certification.

    ``status`` is one of:

    ``certified``
        Statically proven equal to the naive lowering, bit-exact.
    ``rejected``
        A proven miscompile (an RE error names the violated obligation)
        or a failed dynamic cross-check.
    ``unknown``
        Outside the prover fragment; ``dynamic_checked``/``dynamic_ok``
        record the one interpreter fallback run (RE006).
    ``uncertified``
        Out of scope (prebuilt IR, no recipe, channel wiring,
        multi-stage) — not a fallback, and never counted as one.
    """

    STATUSES = ("certified", "rejected", "unknown", "uncertified")

    kernel: str
    status: str
    #: content fingerprint of the key the certificate is cached under
    #: ("" = uncacheable)
    fingerprint: str = ""
    #: RE rule IDs referenced by this certification's diagnostics
    rules: Tuple[str, ...] = ()
    #: reduce visit order differs from the naive left fold (RE003)
    reassociated: bool = False
    #: binding sets the proof quantified over
    binding_sets: int = 0
    dynamic_checked: bool = False
    dynamic_ok: Optional[bool] = None
    detail: str = ""

    def __post_init__(self) -> None:
        assert self.status in self.STATUSES, f"bad status {self.status!r}"

    @property
    def accepted(self) -> bool:
        """True when flows may skip the interpreter equivalence run."""
        if self.status == "certified":
            return True
        return self.status == "unknown" and self.dynamic_ok is True

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "rules": list(self.rules),
            "reassociated": self.reassociated,
            "binding_sets": self.binding_sets,
            "dynamic_checked": self.dynamic_checked,
            "dynamic_ok": self.dynamic_ok,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "EquivCertificate":
        return cls(
            kernel=str(d["kernel"]),
            status=str(d["status"]),
            fingerprint=str(d.get("fingerprint", "")),
            rules=tuple(d.get("rules", ())),
            reassociated=bool(d.get("reassociated", False)),
            binding_sets=int(d.get("binding_sets", 0)),
            dynamic_checked=bool(d.get("dynamic_checked", False)),
            dynamic_ok=d.get("dynamic_ok"),
            detail=str(d.get("detail", "")),
        )


# -- certificate cache (the lower-cache idiom) --------------------------------

#: :func:`_cert_key` tuple -> (certificate, diagnostics) (LRU, bounded)
_CACHE = MemoryBackend(512)

_STATS: Dict[str, int] = {
    "hits": 0, "misses": 0, "uncached": 0, "dynamic_runs": 0,
}


def equiv_cache_stats() -> Dict[str, int]:
    """Cumulative ``{hits, misses, uncached, dynamic_runs}`` counts."""
    return dict(_STATS)


def clear_equiv_cache() -> None:
    """Drop memoized certificates and reset counters (test isolation)."""
    _CACHE.clear()
    for k in _STATS:
        _STATS[k] = 0


# -- helpers ------------------------------------------------------------------


def _uncertifiable_reason(sk) -> Optional[str]:
    if sk.prebuilt is not None:
        return "prebuilt kernel IR (no schedule to certify)"
    if sk.schedule is None or sk.recipe is None:
        return "no transform recipe recorded"
    extra = set(sk.lower_options) - {"autorun"}
    if extra:
        return f"lower options outside the certified fragment: {sorted(extra)}"
    if len(sk.schedule.stages) != 1:
        return "multi-stage schedule"
    return None


def _cert_key(sk, binding_sets: Sequence[Bindings]) -> Optional[tuple]:
    """``(lower key, sorted binding tuples, pin tuples)``: the LRU key,
    and (tuples canonicalize like lists) what the certificate's
    fingerprint hashes, on a miss only."""
    base = sk.lower_key
    if base is None:
        return None
    pins = tuple(
        (name, s.name if isinstance(s, _e.Var) else expr_str(s))
        for name, s in sk.schedule.pinned_strides
    )
    bsets = tuple(sorted(
        tuple(sorted((v.name, int(c)) for v, c in bs.items()))
        for bs in binding_sets
    ))
    return base, bsets, pins


def _leaf_expansion(stage: Stage) -> List[Tuple[IterVar, List[IterVar]]]:
    """Per original axis, its ordered leaf expansion under the splits.

    Replacing each split parent in place by ``[outer, inner]`` yields,
    per root axis, the leaf sequence whose lexicographic traversal
    equals the root's original iteration order.
    """
    forest: List[Tuple[IterVar, List[IterVar]]] = [
        (ax, [ax]) for ax in list(stage.op.axes) + list(stage.op.reduce_axes)
    ]
    for rel in stage.splits:
        done = False
        for _root, leaves in forest:
            for i, v in enumerate(leaves):
                if v is rel.parent:
                    leaves[i : i + 1] = [rel.outer, rel.inner]
                    done = True
                    break
            if done:
                break
    return forest


def _max_extent(
    ax: IterVar, binding_sets: Sequence[Bindings]
) -> Optional[int]:
    """Largest trip count of an axis across binding sets; None if unknown."""
    n = ax.static_extent
    if n is not None:
        return n
    vals = [eval_int(ax.extent_expr(), bs) for bs in binding_sets]
    if vals and all(v is not None for v in vals):
        return max(vals)
    return None


class _StoreWalk:
    """Collect (store, enclosing loop vars) pairs from a lowered body."""

    def __init__(self) -> None:
        self.stores: List[Tuple[_s.Store, Tuple[_e.Var, ...]]] = []
        self.blockers: List[str] = []

    def walk(self, s: _s.Stmt, loops: Tuple[_e.Var, ...] = ()) -> None:
        if isinstance(s, _s.For):
            self.walk(s.body, loops + (s.loop_var,))
        elif isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self.walk(c, loops)
        elif isinstance(s, (_s.Allocate, _s.AttrStmt)):
            self.walk(s.body, loops)
        elif isinstance(s, _s.Store):
            self.stores.append((s, loops))
        else:
            # IfThenElse / ChannelWrite / Evaluate: outside the fragment
            self.blockers.append(type(s).__name__)


class _AccLoadNormalizer(ExprMutator):
    """Replace loads from accumulator buffers with one shared placeholder.

    The naive and scheduled lowerings allocate differently-shaped
    scratchpads; normalizing their loads to a single Var makes the
    surrounding value expressions directly comparable.
    """

    def __init__(self, acc_buffer_ids: set, placeholder: _e.Var) -> None:
        self.acc_buffer_ids = acc_buffer_ids
        self.placeholder = placeholder

    def mutate_Load(self, e: _e.Load) -> _e.Expr:
        if id(e.buffer) in self.acc_buffer_ids:
            return self.placeholder
        idx = self.mutate(e.index)
        return e if idx is e.index else _e.Load(e.buffer, idx)


def _loads_on(e: _e.Expr, buffer) -> List[_e.Load]:
    """Every Load of ``buffer`` inside an expression."""
    found: List[_e.Load] = []

    def walk(x: _e.Expr) -> None:
        if isinstance(x, _e.Load) and x.buffer is buffer:
            found.append(x)
        for c in x.children():
            walk(c)

    walk(e)
    return found


# -- layer (a): per-transform legality proofs ---------------------------------


def _check_reorder(stage: Stage, kernel: str) -> List[Diagnostic]:
    """RE002: no reduce axis may sit at/before the writeback axis."""
    if not stage.op.has_reduction or stage.writeback_axis is None:
        return []
    wb = stage.writeback_axis
    idx = next(
        (j for j, ax in enumerate(stage.leaf_axes) if ax is wb), None
    )
    if idx is None:
        return []
    offenders = [ax for ax in stage.leaf_axes[: idx + 1] if ax.is_reduce]
    if not offenders:
        return []
    # the accumulator tile is indexed only by region data axes, so it is
    # constant (stride 0) in every reduce var: a distance-1 recurrence
    acc_idx: _e.Expr = _e.IntImm(0)
    for ax in stage.leaf_axes[idx + 1 :]:
        if not ax.is_reduce:
            acc_idx = acc_idx + ax.var
    out = []
    for ax in offenders:
        d = dependence_distance(acc_idx, acc_idx, ax.var)
        out.append(
            Diagnostic(
                "RE002",
                "error",
                f"reduce axis {ax.name} is reordered at/before the "
                f"writeback axis {wb.name}: the accumulator carries a "
                f"distance-{d if d is not None else 1} recurrence over "
                f"{ax.name}, so the hoisted writeback reads a partial sum",
                kernel=kernel,
                location=ax.name,
            )
        )
    return out


def _check_splits(
    stage: Stage, binding_sets: Sequence[Bindings], kernel: str
) -> Tuple[List[Diagnostic], List[str]]:
    """RE004: symbolic split extents must divide under every binding set."""
    diags: List[Diagnostic] = []
    unknowns: List[str] = []
    for rel in stage.splits:
        if rel.parent.static_extent is not None:
            continue  # static divisibility enforced at apply time
        if not binding_sets:
            unknowns.append(
                f"split of symbolic axis {rel.parent.name} by {rel.factor} "
                "has no binding set to prove divisibility"
            )
            continue
        for j, bs in enumerate(binding_sets):
            ext = eval_int(rel.parent.extent_expr(), bs)
            if ext is None:
                unknowns.append(
                    f"extent of split axis {rel.parent.name} does not "
                    f"resolve under binding set #{j}"
                )
            elif ext % rel.factor != 0:
                diags.append(
                    Diagnostic(
                        "RE004",
                        "error",
                        f"split of {rel.parent.name} by {rel.factor} does "
                        f"not divide its extent {ext} under binding set "
                        f"#{j}: the floor-divided outer loop drops the "
                        f"last {ext % rel.factor} iteration(s)",
                        kernel=kernel,
                        location=rel.parent.name,
                    )
                )
    return diags, unknowns


def _check_pins(
    sch: Schedule, binding_sets: Sequence[Bindings], kernel: str
) -> Tuple[List[Diagnostic], List[str]]:
    """RE005: every pinned stride must actually bind to 1."""
    diags: List[Diagnostic] = []
    unknowns: List[str] = []
    for buf_name, stride in sch.pinned_strides:
        expr = stride if isinstance(stride, _e.Expr) else _e.IntImm(int(stride))
        if not binding_sets:
            unknowns.append(
                f"pinned stride {expr_str(expr)} of {buf_name} has no "
                "binding set to prove it is 1"
            )
            continue
        for j, bs in enumerate(binding_sets):
            v = eval_int(expr, bs)
            if v is None:
                unknowns.append(
                    f"pinned stride {expr_str(expr)} of {buf_name} does "
                    f"not resolve under binding set #{j}"
                )
            elif v != 1:
                diags.append(
                    Diagnostic(
                        "RE005",
                        "error",
                        f"pin_unit_stride replaced stride "
                        f"{expr_str(expr)} of {buf_name} with 1, but "
                        f"binding set #{j} binds it to {v}: the pinned "
                        "kernel addresses the wrong elements",
                        kernel=kernel,
                        location=buf_name,
                    )
                )
    return diags, unknowns


# -- layer (b): whole-kernel certificate --------------------------------------


def certify_bodies(
    stage: Stage,
    out_buffer,
    naive_body: _s.Stmt,
    sched_body: _s.Stmt,
    binding_sets: Sequence[Bindings],
    kernel: str = "",
) -> Tuple[List[Diagnostic], List[str], bool]:
    """Symbolic store-set/value comparison of two lowered bodies.

    Returns ``(diagnostics, unknown reasons, reassociated)``.  Exposed
    separately from :func:`certify_kernel` so the soundness tests can
    certify deliberately doctored statement trees (e.g. a dropped
    writeback nest) against the honest naive lowering.
    """
    diags: List[Diagnostic] = []
    unknowns: List[str] = []
    reassociated = False

    nw, sw = _StoreWalk(), _StoreWalk()
    nw.walk(naive_body)
    sw.walk(sched_body)
    unknowns += [f"naive lowering contains {b}" for b in sorted(set(nw.blockers))]
    unknowns += [
        f"scheduled lowering contains {b}" for b in sorted(set(sw.blockers))
    ]

    n_out = [(s, l) for s, l in nw.stores if s.buffer is out_buffer]
    s_out = [(s, l) for s, l in sw.stores if s.buffer is out_buffer]
    if len(n_out) != 1:
        unknowns.append(f"naive lowering has {len(n_out)} output stores")
        return diags, unknowns, reassociated
    if not s_out:
        diags.append(
            Diagnostic(
                "RE001",
                "error",
                f"the scheduled kernel never stores to output buffer "
                f"{out_buffer.name}: the writeback was dropped",
                kernel=kernel,
                location=out_buffer.name,
            )
        )
        return diags, unknowns, reassociated
    if len(s_out) > 1:
        unknowns.append(f"scheduled lowering has {len(s_out)} output stores")
        return diags, unknowns, reassociated

    acc_ids = {
        id(s.buffer) for s, _ in nw.stores + sw.stores if s.buffer is not out_buffer
    }
    placeholder = _e.Var("__equiv_acc", _e.FLOAT32)
    norm = _AccLoadNormalizer(acc_ids, placeholder)
    sub = stage.substitution()

    (ns, _nl), (ss, sl) = n_out[0], s_out[0]
    if not structural_eq_sub(ns.index, ss.index, norm, sub):
        unknowns.append(
            "output address map differs from the naive lowering "
            f"({expr_str(ns.index)} vs {expr_str(ss.index)})"
        )
    if not structural_eq_sub(ns.value, ss.value, norm, sub):
        unknowns.append("output value expression differs from the naive lowering")

    forest = _leaf_expansion(stage)
    data_leaves = [lf for root, lvs in forest if not root.is_reduce for lf in lvs]
    reduce_leaves = [lf for root, lvs in forest if root.is_reduce for lf in lvs]

    def check_coverage(
        loops: Tuple[_e.Var, ...], leaves: List[IterVar], nest: str
    ) -> None:
        loop_set = set(loops)
        for leaf in leaves:
            if leaf.var in loop_set:
                continue
            n = _max_extent(leaf, binding_sets)
            if n is None:
                unknowns.append(
                    f"axis {leaf.name} (symbolic extent) is not iterated "
                    f"by the scheduled {nest}"
                )
            elif n > 1:
                diags.append(
                    Diagnostic(
                        "RE001",
                        "error",
                        f"axis {leaf.name} (extent {n}) is never iterated "
                        f"by the scheduled {nest}: {n - 1} of {n} "
                        "iterations are dropped",
                        kernel=kernel,
                        location=leaf.name,
                    )
                )
        extra = loop_set - {lf.var for lf in data_leaves + reduce_leaves}
        if extra:
            unknowns.append(
                f"scheduled {nest} is nested under unexpected loops: "
                f"{sorted(v.name for v in extra)}"
            )

    check_coverage(sl, data_leaves, "writeback")

    if stage.op.has_reduction:
        def split_acc(walk: _StoreWalk):
            init, upd = [], []
            for s, l in walk.stores:
                if s.buffer is out_buffer:
                    continue
                (upd if _loads_on(s.value, s.buffer) else init).append((s, l))
            return init, upd

        n_init, n_upd = split_acc(nw)
        s_init, s_upd = split_acc(sw)
        if len(n_upd) != 1 or len(s_upd) != 1 or len(s_init) != 1:
            unknowns.append(
                "accumulation structure is not a single init/update pair "
                f"(naive {len(n_upd)} updates, scheduled {len(s_init)} "
                f"inits / {len(s_upd)} updates)"
            )
            return diags, unknowns, reassociated

        (nu, _nul), (su, sul) = n_upd[0], s_upd[0]
        if not structural_eq_sub(nu.value, su.value, norm, sub):
            unknowns.append(
                "accumulator update expression differs from the naive "
                "lowering"
            )
        # lowering consistency: init, update, and the writeback's read of
        # the accumulator must agree on the tile address
        wb_loads = _loads_on(ss.value, su.buffer)
        tile_idx = [s_init[0][0].index, su.index] + [ld.index for ld in wb_loads]
        if not wb_loads:
            unknowns.append("writeback never reads the accumulator")
        elif not all(
            _e.structural_equal(tile_idx[0], t) for t in tile_idx[1:]
        ):
            unknowns.append(
                "accumulator tile addressing is inconsistent across "
                "init/update/writeback"
            )

        check_coverage(sul, data_leaves + reduce_leaves, "accumulation")

        canonical = [lf.var for lf in reduce_leaves]
        visited = [v for v in sul if v in set(canonical)]
        if visited != canonical:
            reassociated = True
            diags.append(
                Diagnostic(
                    "RE003",
                    "info",
                    "reduce visit order "
                    f"({', '.join(v.name for v in visited)}) differs from "
                    "the naive left fold "
                    f"({', '.join(v.name for v in canonical)}): a "
                    "floating-point reassociation, not certified bit-exact",
                    kernel=kernel,
                )
            )
    elif any(s.buffer is not out_buffer for s, _ in sw.stores):
        unknowns.append("non-reduction kernel stores to a scratch buffer")

    return diags, unknowns, reassociated


def structural_eq_sub(
    naive_expr: _e.Expr,
    sched_expr: _e.Expr,
    norm: _AccLoadNormalizer,
    sub: Dict[_e.Var, _e.Expr],
) -> bool:
    """Normalized structural equality modulo the split substitution."""
    a = substitute(norm.mutate(naive_expr), sub)
    b = norm.mutate(sched_expr)
    return _e.structural_equal(a, b)


def _certify_stage(
    sk, stage: Stage, binding_sets: Sequence[Bindings]
) -> Tuple[List[Diagnostic], List[str], bool]:
    sch = sk.schedule
    naive = create_schedule(*sch.tensors)
    try:
        naive_body = lower_stage_body(naive)
        sched_body = lower_stage_body(sch)
    except Exception as exc:  # ScheduleError / LoweringError
        return [], [f"lowering failed during certification: {exc}"], False
    return certify_bodies(
        stage, sch.output.buffer, naive_body, sched_body, binding_sets,
        kernel=sk.name,
    )


# -- dynamic fallback ---------------------------------------------------------


def _buffer_numel(buf, bindings: Bindings) -> Optional[int]:
    """Allocation size covering both the shape and the strided footprint."""
    dims: List[int] = []
    for d in buf.shape:
        v = d if isinstance(d, int) else eval_int(d, bindings)
        if v is None or v <= 0:
            return None
        dims.append(v)
    n = 1
    for v in dims:
        n *= v
    if buf.strides:
        strides: List[int] = []
        for s in buf.strides:
            v = s if isinstance(s, int) else eval_int(s, bindings)
            if v is None:
                return None
            strides.append(v)
        span = 1 + sum((d - 1) * abs(s) for d, s in zip(dims, strides))
        n = max(n, span)
    return n


def dynamic_equiv_check(
    sk, bindings: Optional[Bindings] = None, seed: int = 0
) -> Optional[bool]:
    """One interpreter cross-check: scheduled vs naive, bit-for-bit.

    Fills the shared input buffers with seeded random float32 data, runs
    both kernels through the scalar interpreter, and compares the output
    buffer exactly.  Returns ``None`` when the check cannot be
    materialized (unresolved symbolic shapes, naive lowering failure),
    ``False`` when the scheduled kernel fails to lower/run or its
    results differ, ``True`` on a bit-exact match.
    """
    import numpy as np

    from repro.ir.interp import run_kernel
    from repro.schedule.lower import lower as lower_schedule

    bindings = dict(bindings or {})
    try:
        naive_k = lower_schedule(
            create_schedule(*sk.schedule.tensors), sk.name + "__equiv_naive"
        )
    except Exception:
        return None
    try:
        sched_k = sk.lower()
    except Exception:
        return False

    out_name = sk.schedule.output.buffer.name
    fills: Dict[str, "np.ndarray"] = {}
    for k in (naive_k, sched_k):
        for buf in k.args:
            if (
                buf.name == out_name
                or buf.name in k.scratch_args
                or buf.name in fills
            ):
                continue
            n = _buffer_numel(buf, bindings)
            if n is None:
                return None
            rng = np.random.default_rng(
                (zlib.crc32(buf.name.encode()) + seed) % (2 ** 32)
            )
            if buf.dtype == _e.FLOAT32:
                fills[buf.name] = rng.random(n, dtype=np.float32)
            else:
                fills[buf.name] = rng.integers(0, 4, n).astype(np.int32)

    outs = []
    for k in (naive_k, sched_k):
        bufs: Dict[str, "np.ndarray"] = {}
        for buf in k.args:
            if buf.name in fills:
                bufs[buf.name] = fills[buf.name].copy()
            else:
                n = _buffer_numel(buf, bindings)
                if n is None:
                    return None
                dt = np.float32 if buf.dtype == _e.FLOAT32 else np.int32
                bufs[buf.name] = np.zeros(n, dtype=dt)
        try:
            run_kernel(k, bufs, bindings=bindings)
        except Exception:
            return None if k is naive_k else False
        outs.append(bufs[out_name].copy())
    return bool(np.array_equal(outs[0], outs[1]))


# -- entry points -------------------------------------------------------------


def certify_kernel(
    sk,
    binding_sets: Optional[Sequence[Bindings]] = None,
    dynamic_fallback: bool = True,
) -> Tuple[EquivCertificate, List[Diagnostic]]:
    """Certify one scheduled kernel against its naive lowering.

    ``binding_sets`` are the per-kernel shape/stride bindings of a
    folded plan (see :func:`repro.verify.verifier.binding_sets_of`);
    symbolic obligations (RE004/RE005, symbolic extents) quantify over
    them.  With ``dynamic_fallback`` (the default), an ``unknown``
    verdict triggers exactly one interpreter cross-check on the first
    binding set; pass ``False`` for a purely static run.
    """
    bsets = [dict(b) for b in (binding_sets or [])]
    reason = _uncertifiable_reason(sk)
    if reason is not None:
        cert = EquivCertificate(
            kernel=sk.name, status="uncertified", detail=reason,
            binding_sets=len(bsets),
        )
        return cert, []

    key = _cert_key(sk, bsets)
    if key is not None:
        hit = _CACHE.get(key)
        if hit is not MISS:
            _STATS["hits"] += 1
            cert, diags = hit
            return cert, list(diags)
        _STATS["misses"] += 1
    else:
        _STATS["uncached"] += 1

    sch = sk.schedule
    stage = sch.stages[0]
    diags: List[Diagnostic] = []
    unknowns: List[str] = []
    reassociated = False

    diags += _check_reorder(stage, sk.name)
    d4, u4 = _check_splits(stage, bsets, sk.name)
    d5, u5 = _check_pins(sch, bsets, sk.name)
    diags += d4 + d5
    unknowns += u4 + u5

    if not any(d.rule == "RE002" for d in diags):
        cert_diags, cert_unknowns, reassociated = _certify_stage(sk, stage, bsets)
        diags += cert_diags
        unknowns += cert_unknowns

    dynamic_checked = False
    dynamic_ok: Optional[bool] = None
    if any(d.severity == "error" for d in diags):
        status = "rejected"
    elif unknowns or reassociated:
        status = "unknown"
        why = "; ".join(unknowns) if unknowns else "reduction reassociated"
        diags.append(
            Diagnostic(
                "RE006",
                "warn",
                f"equivalence not statically provable: {why} — one dynamic "
                "cross-check gates acceptance",
                kernel=sk.name,
            )
        )
        if dynamic_fallback:
            ok = dynamic_equiv_check(sk, bsets[0] if bsets else {})
            if ok is not None:
                dynamic_checked = True
                dynamic_ok = ok
                _STATS["dynamic_runs"] += 1
                if not ok:
                    status = "rejected"
                    diags.append(
                        Diagnostic(
                            "RE001",
                            "error",
                            "dynamic equivalence check failed: the "
                            "scheduled kernel's results differ from the "
                            "naive lowering",
                            kernel=sk.name,
                        )
                    )
    else:
        status = "certified"

    cert = EquivCertificate(
        kernel=sk.name,
        status=status,
        fingerprint="" if key is None else fingerprint(("equiv-cert", *key)),
        rules=tuple(sorted({d.rule for d in diags})),
        reassociated=reassociated,
        binding_sets=len(bsets),
        dynamic_checked=dynamic_checked,
        dynamic_ok=dynamic_ok,
        detail="; ".join(unknowns),
    )
    if key is not None:
        _CACHE.put(key, (cert, tuple(diags)))
    return cert, list(diags)


def certify_build(
    scheduled,
    plan: Optional[FoldedPlan] = None,
    subject: str = "",
    dynamic_fallback: bool = True,
) -> Tuple[VerifyReport, Dict[str, EquivCertificate]]:
    """Certify every kernel of a scheduled build.

    ``scheduled`` is a :class:`~repro.flow.artifacts.FoldedSchedule` or
    :class:`~repro.flow.artifacts.PipelinedSchedule`; a
    :class:`~repro.runtime.plan.FoldedPlan` supplies the binding sets
    symbolic obligations quantify over.  Returns the merged
    :class:`VerifyReport` (RE diagnostics plus the ``equiv_*`` counters,
    always present even at zero) and the per-kernel certificates.
    """
    report = VerifyReport(
        subject=subject or getattr(scheduled, "program_name", "build")
    )
    for c in COUNTERS:
        report.bump(c, 0)
    bsets = binding_sets_of(plan) if isinstance(plan, FoldedPlan) else {}
    certs: Dict[str, EquivCertificate] = {}
    for sk in scheduled.kernels:
        before = _STATS["dynamic_runs"]
        cert, diags = certify_kernel(
            sk, bsets.get(sk.name), dynamic_fallback=dynamic_fallback
        )
        report.extend(diags)
        report.bump("equiv_" + cert.status)
        report.bump("equiv_dynamic_runs", _STATS["dynamic_runs"] - before)
        certs[sk.name] = cert
    return report, certs
