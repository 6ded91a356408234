"""High-level deployment API: model -> bitstream -> simulated inference.

This is the user-facing entry point of the reproduction, tying together
the whole flow of thesis Figure 3.1: graph import + fusion (relay),
schedule + lowering (topi/schedule), OpenCL emission (codegen), offline
compilation (aoc) and host-runtime simulation (runtime).  Deploys run
through the staged :mod:`repro.pipeline` flow, so every
:class:`Deployment` carries a per-stage :class:`~repro.pipeline.Trace`
and repeated synthesis hits the content-addressed compile cache.
Functional correctness is provided by the NumPy executor: a
:class:`Deployment` can actually classify images, and its numbers are
what the benchmark suite reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aoc.compiler import Bitstream
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.codegen import generate_opencl
from repro.device.boards import Board
from repro.errors import ReproError, RuntimeSimError
from repro.flow.folded import FoldedConfig
from repro.flow.stages import CacheOption, MODELS, folded_flow, pipelined_flow
from repro.pipeline import Trace
from repro.relay import FusedGraph, fuse_operators, init_params, run_fused_graph
from repro.relay.graph import Graph
from repro.resilience.config import ResilienceConfig, current_config
from repro.resilience.events import log as _resilience_log
from repro.resilience.events import record as _record
from repro.resilience.faults import active_plan as _active_plan
from repro.resilience.faults import probe as _probe
from repro.resilience.retry import VirtualClock, retry
from repro.resilience.watchdog import Watchdog
from repro.runtime.simulate import (
    RunResult,
    per_op_profile,
    simulate_batched,
    simulate_folded,
    simulate_pipelined,
)
from repro.topi import ConvTiling

#: thesis Table 6.7 — per-board 1x1-conv tiling for MobileNetV1
MOBILENET_1X1_TILINGS: Dict[str, ConvTiling] = {
    "S10MX": ConvTiling(w2vec=7, c2vec=32, c1vec=4),
    "S10SX": ConvTiling(w2vec=7, c2vec=16, c1vec=4),
    "A10": ConvTiling(w2vec=7, c2vec=8, c1vec=8),
}


def default_folded_config(network: str, board: Board, naive: bool = False) -> FoldedConfig:
    """Thesis Tables 6.7/6.13 tiling configurations."""
    network = network.removesuffix("_bn")
    if naive:
        return FoldedConfig(naive=True)
    if network == "mobilenet_v1":
        return FoldedConfig(
            conv_tilings={
                ("conv", 1, 1): MOBILENET_1X1_TILINGS[board.name],
                ("conv", 3, 2): ConvTiling(c1vec=3),
                ("dw", 3, 1): ConvTiling(w2vec=7),
                ("dw", 3, 2): ConvTiling(w2vec=7),
            },
            dense_unroll=32,
        )
    if network in ("resnet18", "resnet34"):
        return FoldedConfig(
            conv_tilings={
                ("conv", 7, 2): ConvTiling(),
                ("conv", 3, 1): ConvTiling(w2vec=7, c1vec=8),
                ("conv", 3, 2): ConvTiling(w2vec=7, c1vec=8),
                ("conv", 1, 1): ConvTiling(c1vec=8),
                ("conv", 1, 2): ConvTiling(c1vec=8),
            },
            dense_unroll=32,
        )
    if network == "alexnet":
        # extension: the Section 6.6 comparison network deployed directly
        return FoldedConfig(
            conv_tilings={
                ("conv", 11, 4): ConvTiling(),
                ("conv", 5, 1): ConvTiling(c1vec=8),
                ("conv", 3, 1): ConvTiling(w2vec=13, c1vec=4),
            },
            dense_unroll=32,
        )
    if network == "resnet50":
        # extension: bottleneck blocks are pointwise-dominated, so the
        # 1x1 kernels get MobileNet-style multi-dimensional tiling
        return FoldedConfig(
            conv_tilings={
                ("conv", 7, 2): ConvTiling(),
                ("conv", 3, 1): ConvTiling(w2vec=7, c1vec=8),
                ("conv", 3, 2): ConvTiling(w2vec=7, c1vec=8),
                ("conv", 1, 1): ConvTiling(w2vec=7, c2vec=8, c1vec=4),
                ("conv", 1, 2): ConvTiling(c1vec=8),
            },
            dense_unroll=32,
        )
    raise ReproError(f"no default folded config for {network!r}")


@dataclass
class Deployment:
    """A compiled, deployable network on one board."""

    network: str
    board: Board
    graph: Graph
    fused: FusedGraph
    bitstream: Bitstream
    plan: object  # PipelinePlan or FoldedPlan
    mode: str  # 'pipelined' or 'folded'
    level: Optional[str] = None
    _params: Optional[Dict[str, np.ndarray]] = None
    #: per-stage execution trace of the compile pipeline that built this
    trace: Optional[Trace] = None

    # -- timing -----------------------------------------------------------
    def run(self, concurrent: bool = True) -> RunResult:
        """Simulated steady-state inference timing."""
        if self.mode == "pipelined":
            return simulate_pipelined(self.bitstream, self.plan, concurrent)
        return simulate_folded(self.bitstream, self.plan)

    def run_batch(self, batch: int, concurrent: bool = True) -> RunResult:
        """Simulated timing of ``batch`` images dispatched as one unit.

        Transfers coalesce and host dispatch amortizes across the batch
        (see :func:`repro.runtime.simulate.simulate_batched`); this is
        the service-time model :mod:`repro.serve` replicas charge per
        dispatched batch.
        """
        return simulate_batched(self.bitstream, self.plan, batch, concurrent)

    def fps(self, concurrent: bool = True) -> float:
        return self.run(concurrent).fps

    def gflops(self, concurrent: bool = True) -> float:
        """End-to-end achieved GFLOPS (network FLOPs / frame time)."""
        return self.run(concurrent).gflops(self.graph.total_flops())

    def per_op(self) -> Dict[str, Dict[str, float]]:
        """Per-operation GFLOPS/time shares (folded deployments only)."""
        if self.mode != "folded":
            raise ReproError("per-op profiling applies to folded deployments")
        return per_op_profile(self.bitstream, self.plan)

    # -- functional -------------------------------------------------------
    @property
    def params(self) -> Dict[str, np.ndarray]:
        if self._params is None:
            self._params = init_params(self.graph, seed=0)
        return self._params

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Functional inference (NumPy executor over the fused graph).

        Probes the ``buffer`` fault site: an active ``bitflip`` fault
        corrupts one element of the output buffer, modelling a device-
        memory upset that only a logits cross-check can catch.
        """
        y = run_fused_graph(self.fused, x, self.params)
        return _corrupt_buffer(y, self.network)

    def forward_functional(
        self, x: np.ndarray, events: Optional[list] = None
    ) -> np.ndarray:
        """Functional inference through the *generated kernels* themselves.

        Runs the compiled program under the vectorized IR interpreter
        (:mod:`repro.ir.vinterp`) — channel FIFOs, symbolic bindings and
        all — instead of the fused-graph NumPy executor.  ``x`` is one
        input, or a batch of them stacked on a leading axis; a batch
        runs through each kernel once and returns one output per sample,
        each bit-identical to that sample's own forward.  Probes the same
        ``buffer`` fault site as :meth:`forward`, once per sample in
        sample order, so the serving layer's logits cross-checks behave
        identically on either path.  When ``events`` is a list, it
        receives the interpreter's ``(kernel_name, BandEvent)`` pairs so
        callers can audit which loop bands vectorized and which fell
        back to the scalar path (``repro.report --trace`` tallies them
        on its execute row).
        """
        from repro.runtime.executor import (
            run_folded_functional,
            run_pipelined_functional,
        )

        run = (
            run_pipelined_functional if self.mode == "pipelined"
            else run_folded_functional
        )
        y = run(self.bitstream.program, self.plan, self.fused, x,
                self.params, events=events)
        out_shape = self.fused.graph.output.out_shape
        if y.ndim == 1:
            return _corrupt_buffer(y.reshape(out_shape), self.network)
        return np.stack([
            _corrupt_buffer(row.reshape(out_shape), self.network) for row in y
        ])

    def classify(self, x: np.ndarray) -> int:
        """Class index for one input image."""
        return int(np.argmax(self.forward(x)))

    # -- artifacts ---------------------------------------------------------
    def opencl_source(self) -> str:
        """The generated .cl file for this deployment."""
        return generate_opencl(self.bitstream.program)

    def area(self) -> Dict[str, float]:
        return self.bitstream.utilization()

    def __repr__(self) -> str:
        tag = self.level or self.mode
        return f"Deployment({self.network}/{tag} on {self.board.name})"


def deploy_pipelined(
    network: str,
    board: Board,
    level: str = "tvm_autorun",
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
) -> Deployment:
    """Build + synthesize a pipelined deployment (LeNet-class networks).

    ``cache`` selects the compile cache for the ``synthesize`` stage:
    ``None`` (default) uses the process-wide cache, ``False`` disables
    caching, or pass an explicit :class:`~repro.pipeline.CompileCache`.
    """
    flow = pipelined_flow(network, board, level, constants, cache=cache)
    result = flow.run()
    return Deployment(
        network=network, board=board,
        graph=result.value("graph"), fused=result.value("fused"),
        bitstream=result.value("bitstream"), plan=result.value("plan"),
        mode="pipelined", level=level, trace=result.trace,
    )


def deploy_folded(
    network: str,
    board: Board,
    naive: bool = False,
    config: Optional[FoldedConfig] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
) -> Deployment:
    """Build + synthesize a folded deployment (MobileNet/ResNet-class).

    Raises :class:`~repro.errors.FitError` when the design does not fit
    the board — e.g. every naive MobileNet/ResNet build on the Arria 10.
    The error carries ``.stage``/``.diagnostic`` locating the failure in
    the compile pipeline.
    """
    if config is None:
        config = default_folded_config(network, board, naive=naive)
    flow = folded_flow(network, board, config, constants, cache=cache)
    result = flow.run()
    return Deployment(
        network=network, board=board,
        graph=result.value("graph"), fused=result.value("fused"),
        bitstream=result.value("bitstream"), plan=result.value("plan"),
        mode="folded", level="naive" if config.naive else "folded",
        trace=result.trace,
    )


def build_rung(
    network: str,
    board: Board,
    mode: str,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
    level: str = "tvm_autorun",
) -> Deployment:
    """Build one deployment on the named device rung.

    The single-rung builder behind replica provisioning *and* replica
    refill (:mod:`repro.serve.replica`): ``mode`` is ``'pipelined'`` or
    ``'folded'``, and both routes share the compile cache passed in, so
    a refilled replica reuses the pool's synthesized bitstream when its
    build is unchanged.
    """
    if mode == "pipelined":
        return deploy_pipelined(
            network, board, level=level, constants=constants, cache=cache
        )
    if mode == "folded":
        try:
            config = default_folded_config(network, board)
        except ReproError:
            # no thesis tiling table (LeNet-class networks): the generic
            # folded config still builds them
            config = FoldedConfig()
        return deploy_folded(
            network, board, config=config, constants=constants, cache=cache
        )
    raise ReproError(
        f"unknown device rung {mode!r}; choose 'pipelined' or 'folded'"
    )


# ---------------------------------------------------------------------------
# graceful degradation: the resilient deployment ladder


def _corrupt_buffer(y: np.ndarray, label: str) -> np.ndarray:
    """Apply an active ``bitflip`` buffer fault to an output array."""
    fault = _probe("buffer", label)
    if fault is None or fault.kind != "bitflip":
        return y
    plan = _active_plan()
    flat = np.ascontiguousarray(y, dtype=np.float32).reshape(-1).copy()
    idx = plan.rng("bitflip", fault.fired).randrange(flat.size) if plan else 0
    bit = int(fault.param or 30)
    bits = flat.view(np.uint32)
    bits[idx] ^= np.uint32(1 << bit)
    _record(
        "corruption", "buffer",
        f"{label}: bit {bit} of output element {idx} flipped "
        f"(device-memory upset)",
        element=idx, bit=bit,
    )
    return flat.reshape(y.shape)


@dataclass
class RungAttempt:
    """Outcome of one ladder rung."""

    rung: str
    ok: bool
    reason: str = ""


@dataclass
class ResilientDeployment:
    """What the degradation ladder actually delivered."""

    network: str
    board: Board
    #: the rung that served: 'pipelined-concurrent' | 'pipelined-serial'
    #: | 'folded' | 'cpu'
    rung: str
    #: classification output, verified against the functional reference
    logits: np.ndarray
    #: the served deployment (None when the CPU rung served)
    deployment: Optional[Deployment] = None
    #: timing of the serving rung ({'fps', 'time_per_image_us', ...});
    #: empty for the CPU rung, which makes no throughput claim
    timing: Dict[str, float] = field(default_factory=dict)
    #: every rung tried, in order, with failure reasons
    attempts: List[RungAttempt] = field(default_factory=list)
    #: resilience events covering the whole ladder run, as plain dicts
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return any(not a.ok for a in self.attempts)

    @property
    def fps(self) -> float:
        return float(self.timing.get("fps", 0.0))

    def classify(self) -> int:
        return int(np.argmax(self.logits))

    def __repr__(self) -> str:
        tag = " degraded" if self.degraded else ""
        return (
            f"ResilientDeployment({self.network} on {self.board.name} "
            f"via {self.rung}{tag})"
        )


class DegradationLadder:
    """Concurrent pipelined -> serial pipelined -> folded -> CPU.

    Each rung builds (memoized) and runs a deployment under the current
    :class:`~repro.resilience.ResilienceConfig`: runs are retried with
    backoff on transient runtime failures, bounded by a watchdog, and
    the rung's logits are cross-checked against the CPU functional
    reference before it is allowed to serve.  A rung that cannot build
    (e.g. a folded-only network has no pipelined schedule), keeps
    failing, or produces wrong logits falls through to the next; the CPU
    reference executor is the final rung and always serves.
    """

    RUNGS = ("pipelined-concurrent", "pipelined-serial", "folded", "cpu")

    def __init__(
        self,
        network: str,
        board: Board,
        constants: AOCConstants = DEFAULT_CONSTANTS,
        cache: CacheOption = None,
        config: Optional[ResilienceConfig] = None,
        level: str = "tvm_autorun",
    ) -> None:
        self.network = network
        self.board = board
        self.constants = constants
        self.cache = cache
        self.config = config
        self.level = level
        self._built: Dict[str, Deployment] = {}
        self._build_errors: Dict[str, ReproError] = {}

    # -- builds (memoized, including failures) --------------------------
    def _build(self, mode: str) -> Deployment:
        if mode in self._built:
            return self._built[mode]
        if mode in self._build_errors:
            raise self._build_errors[mode]
        try:
            dep = build_rung(
                self.network, self.board, mode, constants=self.constants,
                cache=self.cache, level=self.level,
            )
        except ReproError as err:
            self._build_errors[mode] = err
            raise
        self._built[mode] = dep
        return dep

    # -- one rung --------------------------------------------------------
    def _try_rung(
        self,
        rung: str,
        x: np.ndarray,
        reference: np.ndarray,
        cfg: ResilienceConfig,
    ) -> "ResilientDeployment":
        plan = _active_plan()
        seed = plan.seed if plan else 0
        clock = VirtualClock()
        watchdog = Watchdog(cfg.watchdog_budget_us)
        dep = self._build("folded" if rung == "folded" else "pipelined")
        concurrent = rung != "pipelined-serial"
        result = retry(
            lambda: dep.run(concurrent),
            cfg.retry, retry_on=(RuntimeSimError,), clock=clock,
            seed=seed, site="ladder", label=rung,
        )
        watchdog.observe(rung, result.time_per_image_us)
        timing = {
            "fps": result.fps,
            "time_per_image_us": result.time_per_image_us,
        }
        logits = dep.forward(x)
        if not np.allclose(logits, reference, atol=cfg.crosscheck_atol):
            worst = float(np.max(np.abs(logits - reference)))
            _record(
                "crosscheck", "ladder",
                f"{rung}: logits diverge from the functional reference "
                f"(max abs error {worst:.3g} > atol {cfg.crosscheck_atol:g})",
                max_abs_error=worst,
            )
            raise RuntimeSimError(
                f"{rung} deployment of {self.network} produced logits "
                f"diverging from the functional reference "
                f"(max abs error {worst:.3g})"
            )
        return ResilientDeployment(
            network=self.network, board=self.board, rung=rung,
            logits=logits, deployment=dep, timing=timing,
        )

    # -- the ladder ------------------------------------------------------
    def run(self, x: Optional[np.ndarray] = None) -> ResilientDeployment:
        """Deploy and serve one inference, degrading as needed."""
        cfg = self.config or current_config()
        cursor = _resilience_log().cursor()
        graph = MODELS[self.network]()
        fused = fuse_operators(graph)
        params = init_params(graph, seed=0)
        if x is None:
            rng = np.random.default_rng(0)
            x = rng.standard_normal(graph.input.out_shape).astype(np.float32)
        # ground truth, computed outside any fault probe
        reference = run_fused_graph(fused, x, params)

        attempts: List[RungAttempt] = []
        for rung in self.RUNGS:
            if rung == "cpu":
                _record(
                    "served", "ladder",
                    f"{self.network}: CPU functional executor serving "
                    f"(all device rungs exhausted)",
                )
                attempts.append(RungAttempt(rung, ok=True))
                served = ResilientDeployment(
                    network=self.network, board=self.board, rung=rung,
                    logits=reference,
                )
                break
            try:
                served = self._try_rung(rung, x, reference, cfg)
            except ReproError as err:
                reason = f"{type(err).__name__}: {err}"
                attempts.append(RungAttempt(rung, ok=False, reason=reason))
                _record(
                    "fallback", "ladder",
                    f"{self.network}: rung {rung} failed ({reason}); "
                    f"degrading to the next rung",
                )
                continue
            attempts.append(RungAttempt(rung, ok=True))
            _record(
                "served", "ladder",
                f"{self.network}: rung {rung} serving at "
                f"{served.timing.get('fps', 0.0):.1f} fps",
            )
            break
        served.attempts = attempts
        served.events = [e.to_dict() for e in _resilience_log().since(cursor)]
        return served


def deploy_resilient(
    network: str,
    board: Board,
    x: Optional[np.ndarray] = None,
    constants: AOCConstants = DEFAULT_CONSTANTS,
    cache: CacheOption = None,
    config: Optional[ResilienceConfig] = None,
) -> ResilientDeployment:
    """Deploy ``network`` with the full degradation ladder.

    Tries concurrent pipelined execution first, then a single command
    queue, then a folded deployment, and finally the CPU functional
    executor — cross-checking logits at every device rung — so a
    deployment is always returned, with the recovery story in
    ``.attempts`` and ``.events``.
    """
    ladder = DegradationLadder(
        network, board, constants=constants, cache=cache, config=config
    )
    return ladder.run(x)
