"""The serving loop: admission, batching, dispatch, fault recovery.

:class:`Server` is a discrete-event simulation on a **virtual clock** —
the serving analogue of the discrete-time runtime model.  It replays a
:class:`~repro.serve.request.RequestTrace` through:

1. **admission control** — a bounded queue; past ``max_queue`` waiting
   requests the server stops queueing and either *sheds* the request to
   the CPU sideline rung (the degradation-ladder response to overload)
   or *rejects* it outright, per ``overload_policy``;
2. **dynamic batching** — compatible requests coalesce inside a
   ``window_us`` virtual window up to ``max_batch``
   (:class:`~repro.serve.batcher.DynamicBatcher`);
3. **dispatch** — closed batches go FIFO to the lowest-numbered free
   *in-rotation* :class:`~repro.serve.replica.Replica` serving that
   network, which charges the batched runtime model's service time;
4. **fault recovery** — every dispatch runs under the replica health
   lifecycle (:mod:`repro.serve.lifecycle`): submission rejects, batch
   crashes, hangs caught by the serving watchdog and outright replica
   deaths (the ``dispatch`` / ``run_batch`` / ``replica`` fault sites)
   mark replicas SUSPECT, trip the circuit breaker into DRAINING/DEAD,
   requeue the failed batch's requests under a per-request retry budget
   (exhausted requests are shed to the CPU sideline — never stuck), and
   re-provision dead replicas through the shared compile cache.  A
   network whose replicas are all dead for good serves on the CPU rung.

Everything is a pure function of (trace, config, replica pool, fault
plan): event ties break on fixed priorities and sequence numbers, no
wall clock or unseeded randomness is consulted, responses are written
exactly once per request, and every shed/overload/lifecycle decision is
recorded on the process-wide resilience event log (site ``serve``) so
``python -m repro.report --serve`` can show the fault story next to the
metrics.  Logits are computed through the pool-wide
:class:`~repro.serve.replica.LogitsCache`, so they are bit-identical no
matter which replica — or the CPU sideline — ends up serving a request:
the chaos soak benchmark's core guarantee.  A completed batch looks up
all its inputs at once and computes the distinct misses in one forward,
in request order, with the same hit/miss counts as one lookup per
request.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, ReproError
from repro.flow.stages import CacheOption
from repro.resilience.config import LifecycleConfig, current_config
from repro.resilience.events import log as _resilience_log
from repro.resilience.events import record as _record
from repro.resilience.faults import probe
from repro.resilience.watchdog import Watchdog
from repro.serve.batcher import Batch, DynamicBatcher
from repro.serve.lifecycle import DEAD, LifecycleManager
from repro.serve.metrics import ReplicaStats, ServeMetrics, summarize
from repro.serve.replica import (
    LogitsCache,
    Replica,
    cpu_service_us,
    replicas_per_board,
    reprovision_replica,
)
from repro.serve.request import InferenceResponse, RequestTrace

__all__ = ["ServeConfig", "ServeResult", "Server"]

#: same-instant event ordering: completions free replicas before window
#: flushes close batches before new arrivals join groups
_COMPLETE, _WINDOW, _ARRIVE = 0, 1, 2


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs (see docs/serving.md for semantics)."""

    #: batching window: a group flushes this long after its oldest
    #: waiting request arrived
    window_us: float = 2000.0
    #: per-batch request cap; 1 disables batching entirely
    max_batch: int = 8
    #: admission bound on requests waiting (batcher + dispatch queue)
    max_queue: int = 64
    #: 'shed' serves overflow on the CPU sideline; 'reject' refuses it
    overload_policy: str = "shed"
    #: compute per-request logits (memoized per distinct input); turn
    #: off for pure throughput studies
    compute_logits: bool = True
    #: concurrent (one-queue-per-kernel) execution on pipelined replicas
    concurrent: bool = True
    #: replica health policy (breaker/retry/refill/watchdog knobs);
    #: None uses the process-wide ``current_config().lifecycle``
    lifecycle: Optional[LifecycleConfig] = None

    def __post_init__(self) -> None:
        if self.overload_policy not in ("shed", "reject"):
            raise ReproError(
                f"unknown overload_policy {self.overload_policy!r}; "
                "choose 'shed' or 'reject'"
            )
        if self.max_batch < 1 or self.max_queue < 1:
            raise ReproError("max_batch and max_queue must be >= 1")


@dataclass
class ServeResult:
    """Everything one server run produced, in deterministic order."""

    #: responses ordered by request id
    responses: List[InferenceResponse] = field(default_factory=list)
    metrics: ServeMetrics = field(default_factory=ServeMetrics)
    #: dispatch log: one dict per dispatched batch, in dispatch order
    batches: List[Dict[str, object]] = field(default_factory=list)
    #: resilience events (site 'serve') fired during the run
    events: List[Dict[str, object]] = field(default_factory=list)

    def fingerprint(self) -> str:
        """Content hash of batch assignments + metrics + logits.

        Two runs of the same (trace, config, pool, fault plan) must
        agree on this — the serving determinism contract.  Provisioning
        metadata (``bitstream_cache``) is excluded: whether a replica's
        bitstream came from a warm or cold compile cache must not
        change serving.
        """
        h = hashlib.sha256()
        for b in self.batches:
            h.update(
                f"{b['batch_id']}:{b['network']}:{b['replica']}:"
                f"{b['rids']}:{b.get('attempt', 1)}:{b.get('outcome', 'ok')}:"
                f"{b['dispatch_us']:.3f}:{b['service_us']:.3f};"
                .encode()
            )
        payload = self.metrics.to_dict()
        for row in payload["replicas"]:
            row.pop("bitstream_cache", None)
        h.update(json.dumps(payload).encode())
        for r in self.responses:
            if r.logits is not None:
                h.update(r.logits.tobytes())
        return h.hexdigest()[:16]


class Server:
    """Batched, multi-replica inference serving over a virtual clock."""

    def __init__(
        self,
        replicas: List[Replica],
        config: Optional[ServeConfig] = None,
        cache: CacheOption = None,
    ) -> None:
        if not replicas:
            raise ReproError("a server needs at least one replica")
        self.replicas = sorted(replicas, key=lambda r: r.replica_id)
        self.config = config or ServeConfig()
        #: compile cache used to re-provision dead replicas (refills);
        #: pass the pool's provisioning cache so refills hit warm
        self.cache = cache
        self.logits_cache = LogitsCache()
        #: lazily-built CPU sideline workers, one per network
        self._sideline: Dict[str, Replica] = {}
        self.networks = sorted({r.network for r in self.replicas})

    # -- helpers ---------------------------------------------------------
    def _sideline_for(self, network: str) -> Replica:
        if network not in self._sideline:
            board = self.replicas[0].board
            self._sideline[network] = Replica(
                replica_id=-1, network=network, board=board, rung="cpu"
            )
        return self._sideline[network]

    def _logits(self, replica: Replica, reqs) -> List[Optional[object]]:
        """Logits of ``reqs``, one forward for the memo's misses."""
        if not self.config.compute_logits:
            return [None] * len(reqs)
        return self.logits_cache.get_batch(
            replica.network, [req.x for req in reqs], replica.forward
        )

    # -- the event loop --------------------------------------------------
    def run(self, trace: RequestTrace) -> ServeResult:
        """Replay ``trace`` to completion and summarize the run."""
        cfg = self.config
        lcfg = cfg.lifecycle or current_config().lifecycle
        unknown = sorted(
            {r.network for r in trace} - set(self.networks)
        )
        if unknown:
            raise ReproError(
                f"trace requests networks with no replica: {unknown} "
                f"(pool serves {self.networks})"
            )
        for r in self.replicas:
            r.busy_until_us = 0.0
            r.busy_us = 0.0
            r.batches = 0
            r.images = 0

        cursor = _resilience_log().cursor()
        batcher = DynamicBatcher(cfg.window_us, cfg.max_batch)
        lc = LifecycleManager(self.replicas, lcfg)
        watchdog = Watchdog(budget_us=lcfg.batch_budget_us)
        heap: List[Tuple[float, int, int, str, object]] = []
        seq = 0

        def push(t: float, priority: int, kind: str, payload: object) -> None:
            nonlocal seq
            heapq.heappush(heap, (t, priority, seq, kind, payload))
            seq += 1

        for req in trace:
            push(req.arrival_us, _ARRIVE, "arrive", req)

        dispatch_queue: Deque[Batch] = deque()
        responses: Dict[int, InferenceResponse] = {}
        batch_log: List[Dict[str, object]] = []
        group_gen: Dict[object, int] = {}
        #: failed attempts per request (the retry-budget counter)
        attempts: Dict[int, int] = {}
        peak_queue = 0
        shed = rejected = requeues = watchdog_trips = 0
        first_arrival = trace.requests[0].arrival_us if len(trace) else 0.0
        last_completion = first_arrival

        def queue_depth() -> int:
            return len(batcher) + sum(len(b) for b in dispatch_queue)

        def answer(req, response) -> None:
            # exactly-once: a request is answered at one terminal event
            # (success, shed-complete or reject) and never again
            if req.rid in responses:
                raise ReproError(
                    f"internal: duplicate response for request {req.rid}"
                )
            responses[req.rid] = response

        def serve_on_cpu(reqs, now: float) -> None:
            """Terminal CPU-sideline service (the never-stuck guarantee)."""
            nonlocal shed
            for req in reqs:
                shed += 1
                sideline = self._sideline_for(req.network)
                service = cpu_service_us(req.network)
                push(now + service, _COMPLETE, "shed-complete",
                     (req, sideline, now))

        def maybe_refill(replica: Replica, now: float) -> None:
            ready = lc.want_refill(replica, now)
            if ready is not None:
                push(ready, _COMPLETE, "refill", replica)

        def after_failure(replica: Replica, now: float) -> None:
            if lc.of(replica).state == DEAD:
                maybe_refill(replica, now)

        def requeue_batch(batch: Batch, now: float, reason: str) -> None:
            """Recover a failed batch: retry its requests or shed them."""
            nonlocal requeues
            retry, exhausted = [], []
            for req in batch.requests:
                attempts[req.rid] = attempts.get(req.rid, 0) + 1
                if attempts[req.rid] <= lcfg.retry_budget:
                    retry.append(req)
                else:
                    exhausted.append(req)
            if retry:
                requeues += len(retry)
                dispatch_queue.appendleft(Batch(
                    batch_id=batch.batch_id, network=batch.network,
                    requests=retry, closed_us=batch.closed_us,
                    attempt=batch.attempt + 1,
                ))
                _record(
                    "requeue", "serve",
                    f"batch {batch.batch_id} ({batch.network} x{len(batch)}) "
                    f"failed on attempt {batch.attempt}: {reason}; "
                    f"requeueing {len(retry)} request(s) at the queue front",
                    t_us=now, batch=batch.batch_id,
                    retried=len(retry), exhausted=len(exhausted),
                )
            for req in exhausted:
                _record(
                    "shed", "serve",
                    f"request {req.rid} ({req.network}): retry budget "
                    f"exhausted after {reason} "
                    f"({attempts[req.rid] - 1}/{lcfg.retry_budget} retries "
                    f"used); shedding to the CPU rung",
                    t_us=now, rid=req.rid,
                )
            serve_on_cpu(exhausted, now)

        def dispatch(now: float) -> None:
            nonlocal watchdog_trips
            while dispatch_queue:
                batch = dispatch_queue[0]
                network = batch.network
                replica = lc.pick(network, now)
                if replica is None:
                    if lc.pool_alive(network):
                        return  # a completion or refill event re-drives us
                    # every replica of the network is DEAD with no refill
                    # left: serve the batch on the CPU sideline rung
                    dispatch_queue.popleft()
                    _record(
                        "fallback", "serve",
                        f"batch {batch.batch_id} ({network} x{len(batch)}): "
                        f"every {network} replica is dead with no refill "
                        f"left; serving on the CPU sideline rung",
                        t_us=now, batch=batch.batch_id,
                    )
                    serve_on_cpu(batch.requests, now)
                    continue
                rid = replica.replica_id
                # a replica can die at the instant of batch submission
                fault = probe("replica", f"dispatch:{network}:replica{rid}")
                if fault is not None:
                    lc.kill(
                        replica, now,
                        f"injected {fault.kind} fault at batch submission",
                    )
                    maybe_refill(replica, now)
                    continue  # batch stays queued; try the next replica
                # the submission itself can be rejected
                fault = probe("dispatch", f"{network}:replica{rid}")
                if fault is not None:
                    lc.on_failure(
                        replica, now,
                        f"batch {batch.batch_id} submission rejected "
                        f"(injected {fault.kind} fault)",
                    )
                    after_failure(replica, now)
                    continue
                # how the batch will run: crash/hang faults fire here so
                # the outcome is pinned at dispatch (determinism), but
                # they resolve at the completion event
                service = replica.service_us(len(batch))
                outcome = "ok"
                fault = probe("run_batch", f"{network}:replica{rid}")
                if fault is not None:
                    if fault.kind == "hang":
                        # the batch would never finish; model it as a
                        # service time past the watchdog budget
                        service = max(service, lcfg.batch_budget_us) * 2
                        outcome = "hang"
                    else:  # 'crash': dies part-way through service
                        frac = (
                            fault.param if 0.0 < fault.param < 1.0 else 0.5
                        )
                        service *= frac
                        outcome = "crash"
                try:
                    watchdog.observe(
                        f"batch{batch.batch_id}:{network}:replica{rid}",
                        service,
                    )
                except DeadlockError as err:
                    # the serving watchdog catches the hang: the batch is
                    # declared dead, the replica suspect, the trace lives
                    watchdog_trips += 1
                    _record(
                        "watchdog", "serve",
                        f"batch {batch.batch_id} on replica {rid}: {err}",
                        t_us=now, batch=batch.batch_id, replica=rid,
                    )
                    dispatch_queue.popleft()
                    lc.on_failure(
                        replica, now, "serving watchdog expiry (hung batch)"
                    )
                    after_failure(replica, now)
                    requeue_batch(batch, now, "a serving-watchdog expiry")
                    continue
                dispatch_queue.popleft()
                lc.of(replica).inflight += 1
                replica.busy_until_us = now + service
                replica.busy_us += service
                replica.batches += 1
                replica.images += len(batch)
                entry = {
                    "batch_id": batch.batch_id,
                    "network": network,
                    "replica": rid,
                    "rids": list(batch.rids),
                    "attempt": batch.attempt,
                    "dispatch_us": now,
                    "service_us": service,
                    "outcome": "ok",
                }
                batch_log.append(entry)
                push(now + service, _COMPLETE, "complete",
                     (batch, replica, now, outcome, entry))

        def close(batch: Optional[Batch], now: float) -> None:
            if batch is None:
                return
            key = (batch.network, tuple(batch.requests[0].x.shape))
            group_gen[key] = group_gen.get(key, 0) + 1
            dispatch_queue.append(batch)
            dispatch(now)

        while heap:
            now, _prio, _seq, kind, payload = heapq.heappop(heap)
            if kind != "refill":
                # refills may land after the last response; they must not
                # stretch the makespan
                last_completion = max(last_completion, now)

            if kind == "arrive":
                req = payload
                depth = queue_depth()
                if depth >= cfg.max_queue:
                    if cfg.overload_policy == "reject":
                        rejected += 1
                        _record(
                            "reject", "serve",
                            f"request {req.rid} ({req.network}): admission "
                            f"queue full ({depth}/{cfg.max_queue}); rejected",
                            t_us=now,
                        )
                        answer(req, InferenceResponse(
                            rid=req.rid, network=req.network,
                            status="rejected", arrival_us=now,
                            dispatch_us=now, completed_us=now,
                        ))
                        continue
                    sideline_service = cpu_service_us(req.network)
                    _record(
                        "shed", "serve",
                        f"request {req.rid} ({req.network}): admission "
                        f"queue full ({depth}/{cfg.max_queue}); shedding "
                        f"to the CPU rung ({sideline_service:.0f}us/image)",
                        t_us=now, queue_depth=depth,
                    )
                    serve_on_cpu([req], now)
                    continue
                key = req.batch_key
                peak_queue = max(peak_queue, depth + 1)
                was_empty = batcher.deadline(key) is None
                full = batcher.add(req, now)
                if full is not None:
                    close(full, now)
                elif was_empty:
                    gen = group_gen.get(key, 0)
                    push(batcher.deadline(key), _WINDOW, "window", (key, gen))

            elif kind == "window":
                key, gen = payload
                if group_gen.get(key, 0) != gen:
                    continue  # the group already closed on max_batch
                close(batcher.flush(key, now), now)

            elif kind == "complete":
                batch, replica, dispatched, outcome, entry = payload
                lc.of(replica).inflight -= 1
                rid = replica.replica_id
                died = probe(
                    "replica", f"complete:{batch.network}:replica{rid}"
                )
                if died is not None:
                    entry["outcome"] = "died"
                    lc.kill(
                        replica, now,
                        f"injected {died.kind} fault with batch "
                        f"{batch.batch_id} in flight; the batch is lost",
                    )
                    maybe_refill(replica, now)
                    requeue_batch(
                        batch, now, f"replica {rid} dying mid-batch"
                    )
                elif outcome == "crash":
                    entry["outcome"] = "crash"
                    lc.on_failure(
                        replica, now,
                        f"batch {batch.batch_id} crashed mid-service "
                        f"(injected run_batch fault)",
                    )
                    after_failure(replica, now)
                    requeue_batch(batch, now, "a mid-service crash")
                else:
                    logits = self._logits(replica, batch.requests)
                    for req, y in zip(batch.requests, logits):
                        answer(req, InferenceResponse(
                            rid=req.rid, network=req.network, status="ok",
                            rung=replica.rung, replica=rid,
                            batch_id=batch.batch_id, batch_size=len(batch),
                            logits=y,
                            arrival_us=req.arrival_us,
                            dispatch_us=dispatched, completed_us=now,
                            requeues=attempts.get(req.rid, 0),
                        ))
                    lc.on_success(replica, now)
                dispatch(now)

            elif kind == "refill":
                replica = payload
                try:
                    reprovision_replica(replica, cache=self.cache)
                except Exception as err:
                    lc.on_refill_failed(
                        replica, now, f"{type(err).__name__}: {err}"
                    )
                else:
                    replica.busy_until_us = now
                    lc.on_refill_ready(replica, now)
                dispatch(now)

            else:  # shed-complete
                req, sideline, dispatched = payload
                answer(req, InferenceResponse(
                    rid=req.rid, network=req.network, status="shed",
                    rung="cpu", batch_size=1,
                    logits=self._logits(sideline, [req])[0],
                    arrival_us=req.arrival_us, dispatch_us=dispatched,
                    completed_us=now,
                    requeues=attempts.get(req.rid, 0),
                ))

        lc.finalize(last_completion)
        ordered = [responses[r.rid] for r in trace]
        metrics = self._metrics(
            ordered, batch_log, first_arrival, last_completion,
            peak_queue, shed, rejected, lc, requeues, watchdog_trips,
        )
        events = [
            e.to_dict()
            for e in _resilience_log().since(cursor)
            if e.site == "serve"
        ]
        return ServeResult(
            responses=ordered, metrics=metrics, batches=batch_log,
            events=events,
        )

    # -- summarization ---------------------------------------------------
    def _metrics(
        self,
        responses: List[InferenceResponse],
        batch_log: List[Dict[str, object]],
        t0: float,
        t1: float,
        peak_queue: int,
        shed: int,
        rejected: int,
        lc: LifecycleManager,
        requeues: int,
        watchdog_trips: int,
    ) -> ServeMetrics:
        served = [r for r in responses if r.status in ("ok", "shed")]
        ok = [r for r in responses if r.status == "ok"]
        makespan = max(0.0, t1 - t0)
        histogram: Dict[int, int] = {}
        for b in batch_log:
            size = len(b["rids"])
            histogram[size] = histogram.get(size, 0) + 1
        rungs: Dict[str, int] = {}
        for r in served:
            rungs[r.rung] = rungs.get(r.rung, 0) + 1
        n_batched = sum(len(b["rids"]) for b in batch_log)
        stats = []
        for rep in self.replicas:
            health = lc.of(rep)
            stats.append(ReplicaStats(
                replica=rep.replica_id, board=rep.board.name, rung=rep.rung,
                bitstream_cache=rep.bitstream_cache, batches=rep.batches,
                images=rep.images, busy_us=rep.busy_us,
                utilization=rep.busy_us / makespan if makespan else 0.0,
                state=health.state, failures=health.failures,
                refills=health.refills,
                timeline=[dict(t) for t in health.timeline],
            ))
        # packing bound from the certified memory footprint: the worst
        # (largest) device replica decides how many fit one board
        footprints = [r.ddr_bytes for r in self.replicas if r.ddr_bytes]
        ddr_per_replica = max(footprints, default=0)
        per_board = 0
        if footprints:
            rep = next(r for r in self.replicas if r.ddr_bytes)
            per_board = replicas_per_board(rep.board, ddr_per_replica)
        return ServeMetrics(
            requests=len(responses),
            completed=len(served),
            shed=shed,
            rejected=rejected,
            makespan_us=makespan,
            throughput_rps=len(served) / (makespan / 1e6) if makespan else 0.0,
            latency_us=summarize([r.latency_us for r in served]),
            queue_us=summarize([r.queue_us for r in ok]),
            service_us=summarize([r.service_us for r in ok]),
            batches=len(batch_log),
            mean_batch=n_batched / len(batch_log) if batch_log else 0.0,
            batch_histogram=histogram,
            rung_counts=rungs,
            peak_queue_depth=peak_queue,
            requeues=requeues,
            breaker_trips=lc.breaker_trips,
            deaths=lc.deaths,
            refills=lc.refills,
            watchdog_trips=watchdog_trips,
            availability=lc.availability(max(0.0, t1 - t0)),
            ddr_per_replica_bytes=ddr_per_replica,
            replicas_per_board=per_board,
            per_replica=stats,
        )
