"""The benchmark's four workloads.

Each workload drives the program from outside, through the public
functions of ``repro.flow``, ``repro.runtime.executor`` and
``repro.serve``. It has four parts:

* ``setup(seed)`` builds everything the operations need and runs a fixed
  canary, which warms lazy state and yields the run's digests. The
  digests do not depend on the seed, so every run of the same code must
  print the same ones;
* ``prepare(state, seed, i)`` makes the inputs of operation ``i`` from
  the seed (untimed);
* ``run(state, inp)`` is the timed operation;
* ``check(state, inp, out)`` verifies the output (untimed) and returns
  ``(work items done, [problems])``.

Call sites look functions up on their modules at call time
(``executor.run_folded_functional``) so that the tracer's wrappers in
:mod:`spans` see the calls.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.device import board_by_name
from repro.errors import ReproError
from repro.flow import build_folded, default_folded_config, deploy_pipelined
from repro.flow import dse, stages
from repro.flow.incremental import clear_lower_cache
from repro.models.twins import TWINS
from repro.pipeline.cache import CompileCache
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.runtime import executor
from repro.runtime.simulate import simulate_folded, simulate_pipelined
from repro.serve import RequestTrace, ServeConfig, Server, provision_replicas
from repro.verify import clear_equiv_cache

#: tolerance of the generated kernels against the NumPy executor; the
#: two sum in different orders, so bit-identity is not required
RTOL, ATOL = 1e-4, 1e-5


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _logits_problem(label: str, y: np.ndarray, ref: np.ndarray) -> List[str]:
    y, ref = y.ravel(), ref.ravel()
    if y.shape != ref.shape:
        return [f"{label}: logits shape {y.shape} != reference {ref.shape}"]
    if not np.allclose(y, ref, rtol=RTOL, atol=ATOL):
        err = float(np.max(np.abs(y - ref)))
        return [f"{label}: logits differ from the NumPy executor by {err:.3g}"]
    got, want = int(np.argmax(y)), int(np.argmax(ref))
    # where the reference's top two classes tie within the tolerance,
    # either is the right answer (seen: 0.3684005 against 0.3684001)
    if got != want and not np.isclose(ref[got], ref[want], rtol=RTOL, atol=ATOL):
        return [f"{label}: argmax {got} != {want}"]
    return []


def _clear_process_caches() -> None:
    clear_lower_cache()
    clear_equiv_cache()


# ---------------------------------------------------------------------------


class CompileCold:
    """One cold build of one network on one board per operation."""

    name = "compile-cold"
    #: operations per full mix: every (network, board) once
    CYCLE = 9
    NETWORKS = ("lenet5", "mobilenet_v1", "resnet18")
    BOARDS = ("A10", "S10MX", "S10SX")
    #: the thesis's fit failure; every other build succeeds
    EXPECTED_FAILURES = {("resnet18", "A10"): ("FitError", "synthesize")}

    def __init__(self) -> None:
        self.targets = [(n, b) for n in self.NETWORKS for b in self.BOARDS]

    def _build(self, net: str, board_name: str):
        board = board_by_name(board_name)
        if net == "lenet5":
            flow = stages.pipelined_flow(net, board, cache=False)
        else:
            flow = stages.folded_flow(
                net, board, default_folded_config(net, board), cache=False
            )
        try:
            return flow.run(), None
        except ReproError as err:
            return None, err

    def _outcome(self, target, result, err) -> Dict[str, object]:
        """Verdict, source digest, modeled fps and lower-cache hits."""
        if err is not None:
            trace = err.diagnostic.trace
            verdict = [type(err).__name__, getattr(err, "stage", None)]
            fps = None
        else:
            trace = result.trace
            verdict = ["ok", None]
            bs, plan = result.value("bitstream"), result.value("plan")
            fps = (simulate_pipelined(bs, plan, True) if target[0] == "lenet5"
                   else simulate_folded(bs, plan)).fps
        return {
            "verdict": verdict,
            "source": trace.stage("codegen").fingerprint[:16],
            "fps": fps,
            "lower_hits": trace.stage("lower").counters.get("lower_hits", 0),
        }

    def _problems(self, target, outcome, reference=None) -> List[str]:
        label = "{}@{}".format(*target)
        expected = list(self.EXPECTED_FAILURES.get(target, ("ok", None)))
        problems = []
        if outcome["verdict"] != expected:
            problems.append(f"{label}: verdict {outcome['verdict']} != {expected}")
        if outcome["lower_hits"]:
            problems.append(f"{label}: {outcome['lower_hits']} lower-cache "
                            "hits in a cold build")
        if reference is not None:
            for key in ("source", "fps"):
                if outcome[key] != reference[key]:
                    problems.append(f"{label}: {key} {outcome[key]} != "
                                    f"canary {reference[key]}")
        return problems

    def setup(self, seed: int):
        canary, problems = {}, []
        for target in self.targets:
            _clear_process_caches()
            outcome = self._outcome(target, *self._build(*target))
            problems += self._problems(target, outcome)
            canary["{}@{}".format(*target)] = outcome
        digests = {k: {"verdict": v["verdict"], "source": v["source"],
                       "fps": v["fps"]} for k, v in canary.items()}
        return {"canary": canary}, digests, problems

    def prepare(self, state, seed: int, i: int):
        cycle, slot = divmod(i, len(self.targets))
        order = _rng(seed, cycle).permutation(len(self.targets))
        _clear_process_caches()
        return self.targets[order[slot]]

    def label(self, target) -> str:
        return target[0]

    def run(self, state, target):
        return self._build(*target)

    def check(self, state, target, out) -> Tuple[int, List[str]]:
        outcome = self._outcome(target, *out)
        reference = state["canary"]["{}@{}".format(*target)]
        return 1, self._problems(target, outcome, reference)


# ---------------------------------------------------------------------------


class DseSweep:
    """One pruned 24-point conv1x1 sweep of MobileNetV1 on the A10."""

    name = "dse-sweep"
    CYCLE = 1
    #: the thesis's Table 6.6 grid at both w2vec widths: 24 points, of
    #: which dominance pruning skips 8 and 16 are built. A sweep takes
    #: about 0.9 s, so a run times 20 or more of them and their median
    #: holds still on a busy host (the 72-point perf-trajectory grid
    #: takes about 2.8 s, too few sweeps a run for a steady median)
    GRID = dict(
        w2vec_options=(1, 7),
        c2vec_options=(4, 8, 16, 32),
        c1vec_options=(4, 8, 16),
    )
    POINTS = 24
    BEST = (7, 16, 4)

    def _sweep(self, fused, **grid):
        return dse.sweep_conv1x1(
            fused, board_by_name("A10"), cache=CompileCache(), prune=True,
            workers=1, **grid,
        )

    @staticmethod
    def _summary(s) -> Dict[str, object]:
        best = s.best
        return {
            "best": [best.tiling.w2vec, best.tiling.c2vec, best.tiling.c1vec],
            "best_fps": best.fps,
            "summary": s.to_dict(),
        }

    def setup(self, seed: int):
        fused = fuse_operators(stages.MODELS["mobilenet_v1"]())
        _clear_process_caches()
        # canary: the thesis's Table 6.6 grid (the sweep's defaults)
        digests = {"thesis_grid": self._summary(self._sweep(fused))}
        return {"fused": fused, "reference": None}, digests, []

    def prepare(self, state, seed: int, i: int):
        _clear_process_caches()
        return None

    def label(self, inp) -> str:
        return "sweep"

    def run(self, state, inp):
        return self._sweep(state["fused"], **self.GRID)

    def check(self, state, inp, out) -> Tuple[int, List[str]]:
        got = self._summary(out)
        problems = []
        if len(out.points) != self.POINTS:
            problems.append(f"sweep has {len(out.points)} points, "
                            f"expected {self.POINTS}")
        if tuple(got["best"]) != self.BEST:
            problems.append(f"best tiling {got['best']} != {list(self.BEST)}")
        if state["reference"] is None:
            state["reference"] = got
        elif got != state["reference"]:
            problems.append("sweep summary differs from the first sweep's")
        return len(out.points), problems


# ---------------------------------------------------------------------------


class InferTwins:
    """One forward through the generated kernels per operation,
    round-robin over LeNet-5 and the MobileNetV1/ResNet-18 twins."""

    name = "infer-twins"
    #: operations per full mix: every network once
    CYCLE = 3
    NETWORKS = ("lenet5", "mobilenet_v1", "resnet18")
    CANARY_SEED = 0

    def setup(self, seed: int):
        board = board_by_name("A10")
        lenet = deploy_pipelined("lenet5", board, cache=False)
        nets = {"lenet5": (lenet.forward_functional, lenet.fused, lenet.params)}
        for net in self.NETWORKS[1:]:
            graph = TWINS[net]()
            fused = fuse_operators(graph)
            prog, plan = build_folded(
                fused, default_folded_config(net, board), board
            )
            params = init_params(graph, seed=0)

            def forward(x, prog=prog, plan=plan, fused=fused, params=params):
                return executor.run_folded_functional(prog, plan, fused, x, params)

            nets[net] = (forward, fused, params)
        digests, problems = {}, []
        for net in self.NETWORKS:
            forward, fused, params = nets[net]
            x = self._input(fused, _rng(self.CANARY_SEED, 0))
            y = forward(x)
            problems += _logits_problem(f"canary {net}", y,
                                        run_fused_graph(fused, x, params))
            digests[f"logits.{net}"] = _digest(y)
        return {"nets": nets}, digests, problems

    @staticmethod
    def _input(fused, rng) -> np.ndarray:
        shape = fused.graph.input.out_shape
        return rng.standard_normal(shape).astype(np.float32)

    def prepare(self, state, seed: int, i: int):
        net = self.NETWORKS[i % len(self.NETWORKS)]
        return net, self._input(state["nets"][net][1], _rng(seed, i))

    def label(self, inp) -> str:
        return inp[0]

    def run(self, state, inp):
        net, x = inp
        return state["nets"][net][0](x)

    def check(self, state, inp, out) -> Tuple[int, List[str]]:
        net, x = inp
        _, fused, params = state["nets"][net]
        return 1, _logits_problem(net, out, run_fused_graph(fused, x, params))


# ---------------------------------------------------------------------------


class ServeLenet:
    """One ``Server.run`` over a 250-request Poisson trace per operation."""

    name = "serve-lenet"
    CYCLE = 1
    CONFIG = ServeConfig(window_us=2000, max_batch=8, max_queue=256)
    RATE_RPS = 3000.0
    #: a trace takes about 0.9 s, so a run times 20 or more of them (a
    #: 1000-request trace takes about 3.5 s: too few a run for a steady
    #: median). Every input repeats once, so the logits memo hits 50%
    REQUESTS, DISTINCT = 250, 125
    CANARY_REQUESTS, CANARY_DISTINCT, CANARY_SEED = 100, 50, 0
    SHAPE = (1, 28, 28)

    def _trace(self, n: int, distinct: int, seed: int) -> RequestTrace:
        return RequestTrace.poisson("lenet5", n, self.RATE_RPS, self.SHAPE,
                                    seed=seed, distinct_inputs=distinct)

    def setup(self, seed: int):
        cache = CompileCache()
        replicas = provision_replicas("lenet5", board_by_name("S10SX"), 2,
                                      cache=cache)
        problems = [f"replica {r.replica_id} provisioned on the {r.rung} rung"
                    for r in replicas if r.rung != "pipelined"]
        state = {"replicas": replicas, "cache": cache,
                 "deployment": replicas[0].deployment}
        trace = self._trace(self.CANARY_REQUESTS, self.CANARY_DISTINCT,
                            self.CANARY_SEED)
        result = self.run(state, trace)
        _, canary_problems = self.check(state, trace, result)
        m = result.metrics
        digests = {
            "fingerprint": result.fingerprint(),
            "virtual_p50_us": m.latency_us["p50"],
            "virtual_p99_us": m.latency_us["p99"],
            "virtual_rps": m.throughput_rps,
            "mean_batch": m.mean_batch,
        }
        return state, digests, problems + [f"canary {p}" for p in canary_problems]

    def prepare(self, state, seed: int, i: int) -> RequestTrace:
        trace_seed = int(_rng(seed, i).integers(2**31))
        return self._trace(self.REQUESTS, self.DISTINCT, trace_seed)

    def label(self, trace) -> str:
        return "trace"

    def run(self, state, trace):
        server = Server(state["replicas"], self.CONFIG, cache=state["cache"])
        return server.run(trace)

    def check(self, state, trace, result) -> Tuple[int, List[str]]:
        dep = state["deployment"]
        problems = []
        references: Dict[int, np.ndarray] = {}
        for req, resp in zip(trace.requests, result.responses):
            if resp.status == "rejected":
                problems.append(f"request {req.rid} rejected")
                continue
            ref = references.get(id(req.x))
            if ref is None:
                ref = references[id(req.x)] = run_fused_graph(
                    dep.fused, req.x, dep.params)
            problems += _logits_problem(f"request {req.rid}", resp.logits, ref)
        return result.metrics.completed, problems


WORKLOADS = {w.name: w for w in (CompileCold, DseSweep, InferTwins, ServeLenet)}
