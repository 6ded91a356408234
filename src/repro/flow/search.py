"""One candidate-search core under the DSE sweep, autotune and autofix.

The thesis picks tiling factors by hand (Section 4.11) and leaves an
automatic explorer to future work (Section 8.1).  The reproduction's
explorers are three strategies over the steps this module owns:

* :func:`evaluate` — one candidate configuration through the staged
  build into a :class:`Verdict` (fps, fmax, DSPs, fit/route outcome,
  failure reason, certificate counters);
* :func:`fork_map` — candidate builds fanned out over a forked process
  pool whose workers hand their compile-cache entries back to the
  caller (or share the caller's disk cache);
* :func:`group_extents` — the layer extents each conv group's tiling
  factors must divide;
* :class:`CertCounters` — the equivalence-certifier accounting every
  accepted candidate carries.

The strategies are the grid (:func:`repro.flow.dse.sweep_conv1x1`), the
coordinate ascent (:func:`repro.flow.autotune.autotune_folded`) and the
advice fixpoint (:mod:`repro.flow.autofix`).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.device.boards import Board
from repro.errors import AOCError, FitError, RoutingError
from repro.flow.folded import FoldedConfig
from repro.flow.stages import CacheOption, folded_flow
from repro.pipeline.cache import CompileCache, DiskBackend, MemoryBackend, MISS
from repro.relay.passes import FusedGraph, FusedNode
from repro.runtime.simulate import simulate_folded

GroupId = Tuple[str, int, int]


@dataclass(kw_only=True)
class CertCounters:
    """Equivalence-certifier accounting (:mod:`repro.verify.equiv`).

    Kernels statically certified, kernels the prover could not decide
    (RE006), kernels outside the fragment, and interpreter cross-checks
    actually run — 0 when every recipe-backed kernel certified, which
    is the whole point: candidates are accepted on certificates.
    """

    certified: int = 0
    cert_unknown: int = 0
    cert_uncertified: int = 0
    cert_dynamic_runs: int = 0

    def count_certificates(self, counters: Mapping[str, int]) -> None:
        """Record one certifier pass's ``equiv_*`` counters: the kernel
        tallies describe the latest pass, dynamic runs accumulate."""
        self.certified = int(counters.get("equiv_certified", 0))
        self.cert_unknown = int(counters.get("equiv_unknown", 0))
        self.cert_uncertified = int(counters.get("equiv_uncertified", 0))
        self.cert_dynamic_runs += int(counters.get("equiv_dynamic_runs", 0))


@dataclass
class Verdict(CertCounters):
    """What one candidate build came to."""

    fits: bool
    routed: bool
    fps: Optional[float] = None
    fmax_mhz: Optional[float] = None
    dsps: Optional[int] = None
    fail_reason: Optional[str] = None


def evaluate(
    fused: FusedGraph,
    board: Board,
    config: FoldedConfig,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
) -> Verdict:
    """Compile + simulate the network under one folded configuration.

    The build runs through the staged pipeline seeded with the
    already-fused graph, so source-identical candidates replay the
    ``synthesize`` stage from the compile cache — including
    deterministic fit/route failures.  Any compiler failure (fit,
    routing, crash, internal error) becomes an infeasible verdict
    instead of aborting the search.  The certificate counters come from
    the verify stage, which runs before synthesis, so a candidate that
    fails to fit still carries them (from its error's partial trace).
    """
    flow = folded_flow(fused.graph.name, board, config, constants, cache=cache)
    try:
        result = flow.run(seed={"graph": fused.graph, "fused": fused})
    except AOCError as e:
        # a fit failure routed nothing and a routing failure did fit
        verdict = Verdict(
            fits=isinstance(e, RoutingError), routed=isinstance(e, FitError),
            fail_reason=f"{type(e).__name__}: {e}",
        )
        diag = getattr(e, "diagnostic", None)
        trace = diag.trace if diag is not None else None
    else:
        bs = result.value("bitstream")
        verdict = Verdict(
            fits=True, routed=True,
            fps=simulate_folded(bs, result.value("plan")).fps,
            fmax_mhz=bs.fmax_mhz, dsps=bs.total.dsps,
        )
        trace = result.trace
    if trace is not None:
        try:
            verdict.count_certificates(trace.stage("verify").counters)
        except KeyError:  # pragma: no cover — verify always runs pre-synthesis
            pass
    return verdict


def cache_counts(cache: Optional[CompileCache]) -> Tuple[int, int]:
    """``(hits, misses)`` of a resolved cache so far (zeros for none)."""
    if cache is None:
        return 0, 0
    stats = cache.stats()
    return stats["hits"], stats["misses"]


def group_of(fn: FusedNode) -> Optional[GroupId]:
    """The ``(kind, field, stride)`` conv group a layer's kernel serves
    (None for layers outside any conv group)."""
    kinds = {"conv2d": "conv", "depthwise_conv2d": "dw"}
    if fn.op not in kinds:
        return None
    a = fn.anchor.attrs
    return kinds[fn.op], a["field"], a["stride"]


def group_extents(fused: FusedGraph) -> Dict[GroupId, Dict[str, List[int]]]:
    """Per conv group, the extents each tiling dimension must divide:
    member layers' output widths (``w2``), output channels (``c2``) and
    input channels (``c1``), in graph order."""
    out: Dict[GroupId, Dict[str, List[int]]] = {}
    for fn in fused:
        gid = group_of(fn)
        if gid is None:
            continue
        k, _, wo = fn.anchor.out_shape
        entry = out.setdefault(gid, {"w2": [], "c2": [], "c1": []})
        entry["w2"].append(wo)
        entry["c2"].append(k)
        entry["c1"].append(fn.anchor.inputs[0].out_shape[0])
    return out


# ---------------------------------------------------------------------------
# process-pool candidate synthesis
#
# Candidate builds are independent, so a search can fan them out over a
# fork()ed worker pool.  A caller whose cache has a disk backend shares
# it with the workers: source-identical candidates synthesize once
# pool-wide, and later searches reuse the entries.  Otherwise each worker
# keeps a memory cache and sends the entries each task stored back with
# its result, pickled once through the pool's pipe.

#: (job, caller's disk cache directory or None, worker memory cache) of
#: a pool worker, installed in each worker by fork_map's initializer;
#: fork() hands it over unpickled, so the job may be any callable,
#: closures included
_worker_job: Optional[Tuple[Callable, Optional[str], MemoryBackend]] = None


def _install_job(job: Callable, directory: Optional[str]) -> None:
    global _worker_job
    _worker_job = (job, directory, MemoryBackend(32))


class _Journal:
    """A cache backend that finds nothing and records, in order, every
    entry stored through it."""

    def __init__(self) -> None:
        self.entries: List[Tuple[str, object]] = []

    def get(self, key: str) -> object:
        return MISS

    def put(self, key: str, value: object) -> None:
        self.entries.append((key, value))


def _run_job(task):
    job, directory, memory = _worker_job
    if directory is not None:
        cache = CompileCache(backends=[MemoryBackend(32), DiskBackend(directory)])
        result = job(task, cache)
        return (result, *cache_counts(cache), [])
    journal = _Journal()
    cache = CompileCache(backends=[memory, journal])
    result = job(task, cache)
    return (result, *cache_counts(cache), journal.entries)


def fork_map(
    job: Callable[[object, CompileCache], object],
    tasks: Sequence,
    workers: int,
    cache: Optional[CompileCache],
) -> Tuple[List, int, int]:
    """Run ``job(task, worker_cache)`` over ``tasks`` in forked workers.

    Returns the results in task order plus the workers' summed compile
    cache hits and misses.  When ``cache`` has a disk backend, each
    worker's cache layers a small memory LRU over that directory, so the
    workers share their entries.  Otherwise each worker keeps a small
    memory LRU across its tasks and returns the entries each task stored;
    the caller's cache receives, in task order, every entry it lacks
    (probing backends directly, so its hit/miss stats stay untouched).
    The pool holds at most one worker per task and per CPU this process
    may run on: more workers than either only queue behind one another.
    """
    if not tasks:
        return [], 0, 0
    workers = min(workers, len(tasks), _usable_cpus())
    backends = cache.backends if cache is not None else []
    directory = next(
        (str(b.directory) for b in backends if isinstance(b, DiskBackend)),
        None,
    )
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_install_job,
                  initargs=(job, directory)) as pool:
        out = pool.map(_run_job, tasks)
    if cache is not None:
        for _, _, _, entries in out:
            for key, value in entries:
                if all(b.get(key) is MISS for b in cache.backends):
                    cache.store(key, value)
    return (
        [result for result, _, _, _ in out],
        sum(hits for _, hits, _, _ in out),
        sum(misses for _, _, misses, _ in out),
    )


def _usable_cpus() -> int:
    """CPUs this process may be scheduled on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1
