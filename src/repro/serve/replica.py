"""Replica workers: deployments provisioned for the serving pool.

A :class:`Replica` wraps one :class:`~repro.flow.deploy.Deployment` on
its own simulated board and charges virtual service time per dispatched
batch through the batched runtime model
(:meth:`~repro.flow.deploy.Deployment.run_batch`).  Provisioning is
**bitstream-aware**: every replica of a network builds through the same
:class:`~repro.pipeline.CompileCache`, so replica 0 pays the synthesis
and replicas 1..N-1 hit the content-addressed cache — each replica
records its synthesize-stage cache outcome (``hit``/``miss``) from its
compile trace.  A replica that cannot build its preferred mode degrades
down the same ladder the resilience layer uses (pipelined → folded →
CPU), recording ``fallback`` events on the resilience log; a pool whose
builds *all* fail degrades to CPU-only instead of raising.  Dead
replicas re-enter the pool through :func:`reprovision_replica`, the
refill path of the health lifecycle (:mod:`repro.serve.lifecycle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.counters import count
from repro.device.boards import Board
from repro.errors import ReproError
from repro.flow.deploy import Deployment, build_rung
from repro.flow.stages import CacheOption, MODELS, resolve_cache
from repro.perf import tf_cpu_fps
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.resilience.config import configured
from repro.resilience.events import record as _record
from repro.serve.request import input_fingerprint

__all__ = [
    "Replica",
    "LogitsCache",
    "cpu_service_us",
    "provision_replicas",
    "reprovision_replica",
]

#: CPU sideline throughput assumed when no calibrated baseline exists
_FALLBACK_CPU_FPS = 10.0


def cpu_service_us(network: str) -> float:
    """Per-image service time of the CPU sideline, virtual microseconds.

    Uses the calibrated Keras/TF CPU baseline where the thesis published
    one; other networks get a conservative flat rate.
    """
    try:
        fps = tf_cpu_fps(network.removesuffix("_bn"))
    except ReproError:
        fps = _FALLBACK_CPU_FPS
    return 1e6 / fps


class LogitsCache:
    """Pool-wide functional-inference memo, keyed by input content.

    Replicas of one network share parameters (``init_params(seed=0)``),
    so their logits are identical — computing each distinct input once
    keeps functional verification affordable at serving scale.
    """

    def __init__(self) -> None:
        self._store: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get_batch(
        self, network: str, xs: List[np.ndarray], compute
    ) -> List[np.ndarray]:
        """Logits of every input in ``xs``, in order.

        The distinct inputs the memo lacks are computed in one call,
        ``compute(stacked)``, in request order.  An input repeated within
        the batch counts as a hit, as it would with one lookup per input,
        so the hit/miss counts equal the sequential ones.
        """
        keys = [f"{network}:{input_fingerprint(x)}" for x in xs]
        missing: Dict[str, np.ndarray] = {}
        for key, x in zip(keys, xs):
            if key in self._store or key in missing:
                self.hits += 1
            else:
                self.misses += 1
                missing[key] = x
        if missing:
            ys = compute(np.stack(list(missing.values())))
            self._store.update(zip(missing, ys))
        return [self._store[key] for key in keys]


@dataclass
class Replica:
    """One serving worker: a deployment (or the CPU executor) on a board."""

    replica_id: int
    network: str
    board: Board
    #: 'pipelined' | 'folded' | 'cpu'
    rung: str
    deployment: Optional[Deployment] = None
    #: synthesize-stage cache outcome at provision time ('hit'/'miss'),
    #: None for the CPU rung
    bitstream_cache: Optional[str] = None
    #: certified resident DDR bytes of this replica's deployment
    #: (activation arena + weights, from the RM-certified
    #: :class:`~repro.verify.memory.MemoryPlan`); None for the CPU rung
    ddr_bytes: Optional[int] = None
    #: virtual time until which the replica is busy
    busy_until_us: float = 0.0
    busy_us: float = 0.0
    batches: int = 0
    images: int = 0
    _cpu_fused: object = field(default=None, repr=False)
    _cpu_params: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False)

    # -- timing ----------------------------------------------------------
    def service_us(self, batch: int) -> float:
        """Virtual service time for one dispatched batch."""
        if self.rung == "cpu":
            return batch * cpu_service_us(self.network)
        result = self.deployment.run_batch(batch)
        return result.time_per_image_us * batch

    # -- numerics --------------------------------------------------------
    def forward(self, xs: np.ndarray) -> np.ndarray:
        """Functional inference of a batch ``xs`` (inputs stacked on a
        leading axis) on this replica's rung: one output per input.

        Device rungs execute the *generated kernels* through the
        vectorized interpreter (:meth:`Deployment.forward_functional`),
        the whole batch through each kernel once, so serving numerics
        exercise the same compiled program the timing model charges
        for; the CPU rung runs the NumPy executor per input.
        """
        count("serve_forwards")
        if self.rung == "cpu":
            if self._cpu_fused is None:
                graph = MODELS[self.network]()
                self._cpu_fused = fuse_operators(graph)
                self._cpu_params = init_params(graph, seed=0)
            return np.stack([
                run_fused_graph(self._cpu_fused, x, self._cpu_params)
                for x in xs
            ])
        return self.deployment.forward_functional(xs)

    def __repr__(self) -> str:
        return (
            f"Replica(#{self.replica_id} {self.network}/{self.rung} "
            f"on {self.board.name})"
        )


def _preferred_modes(network: str) -> List[str]:
    """Device rungs to try, best first (the degradation-ladder order)."""
    return ["pipelined", "folded"] if network == "lenet5" else ["folded"]


def deployment_ddr_bytes(dep) -> Optional[int]:
    """Certified resident DDR bytes of one deployment (arena + weights).

    Comes from the RM-certified :class:`~repro.verify.memory.MemoryPlan`
    the plan stage attached; ``None`` when the footprint could not be
    bounded statically.
    """
    from repro.verify.memory import weights_bytes

    mem = getattr(dep.plan, "memory", None)
    if mem is None:
        return None
    return mem.arena_bytes + weights_bytes(dep.fused)


def replicas_per_board(board: Board, ddr_bytes: Optional[int]) -> int:
    """How many replicas of a deployment one board's DDR can host.

    The serving-fleet packing bound the ROADMAP's replicas-per-board
    item asks for: capacity // certified-footprint.  0 when the
    footprint is unknown (CPU rung or unbounded plan).
    """
    if not ddr_bytes or ddr_bytes <= 0 or not board.ddr_bytes:
        return 0
    return board.ddr_bytes // ddr_bytes


def _build_replica(
    rid: int,
    network: str,
    board: Board,
    shared,
    constants: AOCConstants,
    context: str,
) -> Replica:
    """Build one replica down the rung ladder; the CPU rung never fails.

    Any build exception — not just :class:`ReproError` — degrades to the
    next rung: a hard provisioning failure must shrink capacity, never
    kill the pool.
    """
    for mode in _preferred_modes(network):
        try:
            dep = build_rung(
                network, board, mode, constants=constants,
                cache=shared if shared is not None else False,
            )
        except Exception as err:
            _record(
                "fallback", "serve",
                f"replica {rid}: {mode} {context} of {network} on "
                f"{board.name} failed ({type(err).__name__}: {err}); "
                f"degrading",
            )
            continue
        cache_status = None
        if dep.trace is not None:
            cache_status = dep.trace.stage("synthesize").cache
        return Replica(
            replica_id=rid, network=network, board=board, rung=mode,
            deployment=dep, bitstream_cache=cache_status,
            ddr_bytes=deployment_ddr_bytes(dep),
        )
    _record(
        "fallback", "serve",
        f"replica {rid}: no device rung builds {network} on "
        f"{board.name}; provisioning the CPU executor rung",
    )
    return Replica(replica_id=rid, network=network, board=board, rung="cpu")


def provision_replicas(
    network: str,
    board: Board,
    n: int,
    cache: CacheOption = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> List[Replica]:
    """Build ``n`` replicas of ``network`` on ``board``.

    All builds share one compile cache, so one synthesis serves the
    whole pool (the cache outcome lands in each replica's
    ``bitstream_cache``).  Preferred mode is pipelined for LeNet-class
    networks and folded otherwise; a mode that cannot build falls
    through — ultimately to a CPU replica, which always provisions, so
    provisioning never raises on build failure.  When *every* device
    build fails the pool degrades to CPU-only and says so with a
    ``degrade`` resilience event.
    """
    if network not in MODELS:
        raise ReproError(
            f"unknown network {network!r}; choose from: "
            f"{', '.join(sorted(MODELS))}"
        )
    shared = resolve_cache(cache)
    replicas = [
        _build_replica(i, network, board, shared, constants, "build")
        for i in range(n)
    ]
    if replicas and all(r.rung == "cpu" for r in replicas):
        _record(
            "degrade", "serve",
            f"pool of {n} {network} replica(s) on {board.name} is CPU-only: "
            f"every device build failed; serving continues at CPU latency",
        )
    # replicas-per-board packing from the certified memory footprint:
    # more replicas than one board's DDR can hold means the pool spans
    # multiple physical boards — say so, don't silently over-pack
    footprints = [r.ddr_bytes for r in replicas if r.ddr_bytes]
    if footprints:
        capacity = replicas_per_board(board, max(footprints))
        if 0 < capacity < len(footprints):
            _record(
                "capacity", "serve",
                f"{len(footprints)} device replica(s) of {network} need "
                f"{max(footprints)} DDR bytes each; one {board.name} holds "
                f"{capacity} — pool spans multiple boards",
            )
    return replicas


def reprovision_replica(
    replica: Replica,
    cache: CacheOption = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
) -> Replica:
    """Rebuild a dead replica's deployment in place (the refill path).

    Re-provisions through the shared compile cache with a placement-seed
    sweep (``routing_seeds=4``) — a refill models moving the bitstream
    to a spare board, where seed-sensitive routing failures deserve a
    sweep rather than an instant give-up.  Falls down the same rung
    ladder as provisioning; the CPU rung always succeeds.
    """
    shared = resolve_cache(cache)
    with configured(routing_seeds=4):
        rebuilt = _build_replica(
            replica.replica_id, replica.network, replica.board, shared,
            constants, "refill build",
        )
    replica.deployment = rebuilt.deployment
    replica.rung = rebuilt.rung
    replica.bitstream_cache = rebuilt.bitstream_cache
    replica._cpu_fused = None
    replica._cpu_params = None
    return replica
