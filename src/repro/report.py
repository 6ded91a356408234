"""One-shot reproduction report: ``python -m repro.report``.

Regenerates the headline results of every evaluation section — the LeNet
optimization ladder, the MobileNet/ResNet folded deployments, baseline
comparisons and fit/route failures — and renders them with ASCII charts.
For the full per-table benches, run ``pytest benchmarks/ --benchmark-only``.

Subcommands: ``--trace`` prints the per-stage compile trace of one
deployment (optionally under a demo fault plan); ``--serve`` runs the
batched multi-replica serving simulation and prints its metrics;
``--check`` runs one build's real flow up to its ``verify`` stage and
renders that stage's report — every static finding (RB/RR/RC/RL/RE/RM
errors and warnings, RP advice with its cookbook fix), the equivalence
certificates, the memory arena map and the dominance-prune preview —
exiting non-zero on any error-severity finding; ``--autofix`` feeds the
advisor's machine-readable fixes back into the schedule and iterates to
an advice-clean fixpoint (or a provably-stuck report).  Run with
``--help`` for the full flag reference.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, TextIO, Tuple

from repro.device import ALL_BOARDS, ARRIA10, Board, STRATIX10_SX, board_by_name
from repro.errors import FitError, ReproError, RoutingError
from repro.flow import LEVELS, deploy_folded, deploy_pipelined
from repro.flow.stages import MODELS
from repro.perf import tf_cpu_fps, tf_cudnn_fps, tvm_cpu_fps
from repro.viz import bar_chart


def _section(out: TextIO, title: str) -> None:
    out.write(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n")


def lenet_ladder(out: TextIO) -> Dict[str, float]:
    _section(out, "LeNet-5 optimization ladder (Fig 6.1 / Table 6.4)")
    final: Dict[str, float] = {}
    for board in ALL_BOARDS:
        labels, values = [], []
        for level in LEVELS:
            d = deploy_pipelined("lenet5", board, level)
            labels.append(level)
            values.append(d.fps(concurrent=True))
        final[board.name] = values[-1]
        out.write(
            bar_chart(f"\n{board.name} (FPS, concurrent execution)", labels,
                      values) + "\n"
        )
    return final


def folded_networks(out: TextIO) -> Dict[str, Dict[str, Optional[float]]]:
    _section(out, "Folded deployments (Tables 6.11/6.14)")
    results: Dict[str, Dict[str, Optional[float]]] = {}
    for net in ("mobilenet_v1", "resnet18", "resnet34", "resnet50"):
        row: Dict[str, Optional[float]] = {}
        for board in ALL_BOARDS:
            try:
                row[board.name] = deploy_folded(net, board).fps()
            except (FitError, RoutingError):
                row[board.name] = None
        results[net] = row
        cells = ", ".join(
            f"{b}: {'no fit' if v is None else f'{v:.2f} FPS'}"
            for b, v in row.items()
        )
        out.write(f"{net:14s} {cells}\n")
    return results


def baseline_comparison(out: TextIO, lenet_fps: float,
                        folded: Dict[str, Dict[str, Optional[float]]]) -> None:
    _section(out, "Versus CPU/GPU baselines (thesis-published reference FPS)")
    rows = [
        ("lenet5", lenet_fps),
        ("mobilenet_v1", folded["mobilenet_v1"]["S10SX"]),
        ("resnet18", folded["resnet18"]["S10SX"]),
        ("resnet34", folded["resnet34"]["S10SX"]),
    ]
    out.write(
        f"{'network':14s} {'FPGA(S10SX)':>12} {'TF-CPU':>9} {'TVM-1T':>9} "
        f"{'GPU':>9}  verdict\n"
    )
    for net, fps in rows:
        assert fps is not None
        cpu = tf_cpu_fps(net)
        verdict = "FPGA wins" if fps > cpu else "CPU wins"
        out.write(
            f"{net:14s} {fps:12.1f} {cpu:9.1f} "
            f"{tvm_cpu_fps(net, 1):9.1f} {tf_cudnn_fps(net):9.1f}  {verdict}\n"
        )


def fit_failures(out: TextIO) -> List[str]:
    _section(out, "Fit / routing failures (the thesis's negative results)")
    cases = [
        ("naive MobileNet on A10", "mobilenet_v1", ARRIA10, True),
        ("naive ResNet-18 on A10", "resnet18", ARRIA10, True),
        ("optimized ResNet-18 on A10", "resnet18", ARRIA10, False),
    ]
    outcomes = []
    for label, net, board, naive in cases:
        try:
            deploy_folded(net, board, naive=naive)
            result = "FITS (mismatch with the thesis!)"
        except (FitError, RoutingError) as e:
            result = type(e).__name__
        outcomes.append(result)
        out.write(f"{label:32s} -> {result}\n")
    return outcomes


def _demo_fault_plan():
    """The documentation fault plan exercised by ``--trace ... --faults``:
    a transient routing failure, a channel stall and a DMA write error,
    all recovered by the resilience layer."""
    from repro.resilience import Fault, FaultPlan

    return FaultPlan(
        Fault("synthesize", "routing", times=1),
        Fault("channel", "stall", times=1, param=800.0),
        Fault("enqueue.write", "dma", times=1),
    )


def _bad_spec(out: TextIO, message: str) -> int:
    """Malformed NETWORK[:...] spec: explain, print USAGE, exit 2.

    Every report mode funnels spec errors through here so the CLI exit
    contract is uniform: status 2 *and* the usage text, regardless of
    which component of the spec was wrong.
    """
    out.write(message + "\n\n")
    out.write(USAGE)
    return 2


class _SpecError(ValueError):
    """A malformed ``NETWORK[:...]`` spec (the mode exits 2 with USAGE)."""


def _parse_spec(spec: str, board_at: int = 1) -> Tuple[str, Board, List[str]]:
    """``(network, board, parts)`` of a ``NETWORK[:...]`` spec.

    ``parts`` is the ``:``-split spec; the board is ``parts[board_at]``
    when given and S10SX otherwise.  Raises :class:`_SpecError` naming an
    unknown network or board.
    """
    parts = spec.split(":")
    if parts[0] not in MODELS:
        raise _SpecError(f"unknown network {parts[0]!r}; "
                         f"choose from: {', '.join(sorted(MODELS))}")
    if len(parts) <= board_at:
        return parts[0], STRATIX10_SX, parts
    try:
        return parts[0], board_by_name(parts[board_at]), parts
    except KeyError:
        raise _SpecError(f"unknown board {parts[board_at]!r}; choose from: "
                         f"{', '.join(b.name for b in ALL_BOARDS)}") from None


def trace_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
    with_faults: bool = False,
) -> int:
    """Deploy one network and print its per-stage compile trace.

    ``spec`` is ``NETWORK[:MODE[:BOARD]]`` — e.g. ``lenet5``,
    ``mobilenet_v1:folded:A10``, ``lenet5:pipelined:S10MX``.  Mode
    defaults to ``pipelined`` for lenet5 and ``folded`` otherwise;
    board defaults to ``S10SX``.  With ``with_faults`` the deploy runs
    under a demo fault plan (seeded by ``REPRO_FAULT_SEED``) through the
    resilient degradation ladder, and the recovery events are printed
    after the trace.
    """
    try:
        network, board, parts = _parse_spec(spec, board_at=2)
        mode = parts[1] if len(parts) > 1 else (
            "pipelined" if network == "lenet5" else "folded"
        )
        if mode not in ("pipelined", "folded"):
            raise _SpecError(
                f"unknown mode {mode!r}; choose 'pipelined' or 'folded'")
    except _SpecError as e:
        return _bad_spec(out, str(e))
    if with_faults:
        return _trace_with_faults(network, board, out, as_json)
    try:
        if mode == "pipelined":
            d = deploy_pipelined(network, board)
        else:
            d = deploy_folded(network, board)
    except ReproError as e:
        diag = getattr(e, "diagnostic", None)
        out.write(f"{type(e).__name__}: {e}\n")
        if diag is not None:
            out.write(f"failed at {diag}\n\n")
            out.write(diag.trace.to_json(indent=2) + "\n"
                      if as_json else diag.trace.format_table() + "\n")
        return 1
    status = _append_execute_record(d)
    out.write(d.trace.to_json(indent=2) + "\n"
              if as_json else d.trace.format_table() + "\n")
    return 0 if status == "ok" else 1


def _append_execute_record(d) -> str:
    """Run one functional forward pass and append an ``execute`` row.

    The vectorized interpreter reports every band decision it makes
    (:class:`repro.ir.vinterp.BandEvent`); the row's counters tally
    them — ``vinterp_bands`` attempted, ``vinterp_vectorized`` executed
    wide, ``vinterp_fallbacks`` dropped to the scalar loop — with one
    ``vinterp_fallback.<reason>`` counter and a ``>>`` note per
    distinct fallback reason.  ``vinterp_planned`` bands ran phase A
    and ``vinterp_reused`` replayed a plan the kernel had cached from an
    earlier invocation with the same bindings.  The pass runs the whole
    network functionally, so large folded networks take seconds here.
    Returns the row's status: ``"ok"``, or ``"error"`` when the forward
    raised.
    """
    import time
    from collections import Counter

    import numpy as np

    from repro.pipeline.trace import StageRecord

    events: List[tuple] = []
    base = d.trace.records[-1].t_end if d.trace.records else 0.0
    x = np.random.default_rng(0).standard_normal(
        d.fused.graph.input.out_shape
    ).astype(np.float32)
    t0 = time.perf_counter()
    status, error = "ok", None
    try:
        d.forward_functional(x, events=events)
    except Exception as e:
        status, error = "error", f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    fallbacks = [ev for _, ev in events if ev.kind == "fallback"]
    reused = sum(1 for _, ev in events if ev.reused)
    counters: Dict[str, float] = {
        "vinterp_bands": len(events),
        "vinterp_vectorized": len(events) - len(fallbacks),
        "vinterp_fallbacks": len(fallbacks),
        "vinterp_planned": len(events) - reused,
        "vinterp_reused": reused,
    }
    reasons = Counter(ev.detail for ev in fallbacks)
    notes = []
    for reason, n in sorted(reasons.items()):
        slug = reason.replace(" ", "_").replace("-", "_")
        counters[f"vinterp_fallback.{slug}"] = n
        notes.append(f"scalar fallback x{n}: {reason}")
    d.trace.records.append(StageRecord(
        stage="execute", status=status, t_start=base, t_end=base + wall,
        artifact="logits", size=len(events), counters=counters,
        error=error, notes=notes,
    ))
    return status


def _trace_with_faults(network, board, out: TextIO, as_json: bool) -> int:
    """Resilient deploy under the demo fault plan + recovery events."""
    import json

    from repro.flow import deploy_resilient

    plan = _demo_fault_plan()
    with plan:
        r = deploy_resilient(network, board, cache=False)
    if as_json:
        payload = {
            "network": network,
            "board": board.name,
            "rung": r.rung,
            "fps": r.fps,
            "attempts": [
                {"rung": a.rung, "ok": a.ok, "reason": a.reason}
                for a in r.attempts
            ],
            "events": r.events,
            "trace": (
                r.deployment.trace.to_dict()
                if r.deployment is not None and r.deployment.trace else None
            ),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    out.write(f"fault plan: {plan!r}\n")
    if r.deployment is not None and r.deployment.trace is not None:
        out.write(r.deployment.trace.format_table() + "\n")
    out.write(f"\nserved by rung {r.rung!r}"
              + (f" at {r.fps:.1f} fps" if r.timing else "") + "\n")
    out.write("resilience events:\n")
    for e in r.events:
        out.write(f"  [{e['kind']:>10}] {e['site']:<14} {e['detail']}\n")
    return 0


def check_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Run one build's static checks and print the ``verify`` stage report.

    ``spec`` is ``NETWORK[:BOARD[:LEVEL]]`` — e.g. ``resnet18:A10`` or
    ``lenet5:S10SX:base``.  Board defaults to S10SX.  lenet5 builds
    through the pipelined flow, where LEVEL picks the optimization rung
    (the top one by default); every other network builds through the
    folded flow with its thesis tiling.  The flow runs up to its
    ``verify`` stage and never synthesizes, so builds that cannot fit
    still check.  The report is that one stage's output: RB/RR/RC/RL
    findings, RP advice with its cookbook fix, the RE certificates, the
    RM liveness/arena map and, for folded networks, the dominance-prune
    preview.  Exit status: 0 when there is no error finding, 1
    otherwise, 2 on a bad spec.
    """
    import json

    from repro.aoc.constants import DEFAULT_CONSTANTS
    from repro.errors import VerificationError
    from repro.flow.deploy import default_folded_config
    from repro.flow.stages import folded_flow, pipelined_flow
    from repro.pipeline import Pipeline
    from repro.verify import format_advice, format_prune_preview, prune_preview
    from repro.verify.memory import format_memory_plan

    try:
        network, board, parts = _parse_spec(spec)
        level = parts[2] if len(parts) > 2 else LEVELS[-1]
        if level not in LEVELS:
            raise _SpecError(f"unknown level {level!r}; "
                             f"choose from: {', '.join(LEVELS)}")
        if len(parts) > 2 and network != "lenet5":
            raise _SpecError("optimization levels only apply to the "
                             "pipelined network (lenet5)")
    except _SpecError as e:
        return _bad_spec(out, str(e))

    fused = preview = None
    try:
        if network == "lenet5":
            flow = pipelined_flow(network, board, level, cache=False)
        else:
            config = default_folded_config(network, board)
            flow = folded_flow(network, board, config, cache=False)
        names = [s.name for s in flow.stages]
        result = Pipeline(
            flow.name, flow.stages[: names.index("verify") + 1]
        ).run()
        report, fused = result.value("verify"), result.value("fused")
        if network != "lenet5":
            preview = prune_preview(fused, board, DEFAULT_CONSTANTS, config)
    except VerificationError as e:
        report = e.report
    except ReproError as e:
        out.write(f"{type(e).__name__}: {e}\n")
        return 1
    status = 0 if report.clean else 1
    memory, memory_cert = report.memory, report.memory_certificate
    if as_json:
        payload = report.to_dict()
        payload["certificates"] = {
            k: c.to_dict() for k, c in sorted(report.certificates.items())
        }
        payload["memory"] = memory.to_dict() if memory is not None else None
        payload["memory_certificate"] = (
            memory_cert.to_dict() if memory_cert is not None else None
        )
        payload["prune_preview"] = preview
        out.write(json.dumps(payload, indent=2) + "\n")
        return status
    out.write(format_advice(report) + "\n")
    if report.certificates:
        out.write("\ncertificates:\n")
        for name, cert in sorted(report.certificates.items()):
            extra = f" ({cert.detail})" if cert.detail else ""
            out.write(f"  {name:<40} {cert.status}{extra}\n")
    if memory is not None:
        out.write("\n" + format_memory_plan(memory, fused, board) + "\n")
        out.write(f"  memory plan {memory_cert.status}\n")
    if preview is not None:
        out.write("\n" + format_prune_preview(preview) + "\n")
    return status


def autofix_deployment(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
) -> int:
    """Run the advise->rewrite auto-scheduler over one build.

    ``spec`` is ``NETWORK[:BOARD]`` — e.g. ``mobilenet_v1:A10``.  Board
    defaults to S10SX; mode is pipelined for lenet5 and folded
    otherwise.  The loop stops after codegen each iteration (no
    synthesis) and prints every applied fix, every blocking finding and
    the recipe round-trip verdict.  Exit status: 0 when the loop reached
    an advice-clean fixpoint or a provably-stuck report, 1 on a
    verify-error/cycle/iteration-limit outcome, 2 on a bad spec.
    """
    import json

    from repro.flow.autofix import autofix_network

    try:
        network, board, _ = _parse_spec(spec)
    except _SpecError as e:
        return _bad_spec(out, str(e))
    try:
        result = autofix_network(network, board)
    except ReproError as e:
        out.write(f"{type(e).__name__}: {e}\n")
        return 1
    if as_json:
        out.write(json.dumps(result.to_dict(), indent=2) + "\n")
    else:
        out.write(result.format() + "\n")
    converged = result.clean or result.stuck_reason == "blocked"
    return 0 if converged else 1


def serve_demo(
    spec: str,
    out: TextIO = sys.stdout,
    as_json: bool = False,
    overload: bool = False,
    n_requests: int = 48,
    chaos: Optional[int] = None,
) -> int:
    """Run the serving simulation and print its metrics.

    ``spec`` is ``NETWORK[:BOARD[:REPLICAS]]`` — e.g. ``lenet5``,
    ``mobilenet_v1:S10SX:4``.  Board defaults to S10SX, replicas to 4.
    The demo drives a Poisson trace at ~85% of the pool's aggregate
    capacity; with ``overload`` the rate quadruples against a short
    admission queue, so requests shed to the CPU rung (watch the
    ``shed`` events under the table).  With ``chaos`` (a fault-plan
    seed) the trace replays under the canonical serving chaos plan —
    replicas die mid-trace, batches crash and hang, the breaker trips —
    and the demo proves the recovery contract: every request answered,
    logits bit-identical to a fault-free run.  Exits 1 if the contract
    is violated.
    """
    import json

    import numpy as np

    from repro.resilience import LifecycleConfig
    from repro.serve import (
        RequestTrace,
        ServeConfig,
        Server,
        chaos_plan,
        provision_replicas,
    )

    try:
        network, board, parts = _parse_spec(spec)
    except _SpecError as e:
        return _bad_spec(out, str(e))
    try:
        n_replicas = int(parts[2]) if len(parts) > 2 else 4
    except ValueError:
        return _bad_spec(
            out, f"replica count {parts[2]!r} is not an integer")
    if n_replicas < 1:
        return _bad_spec(out, f"replica count {n_replicas} is below 1")
    if n_requests < 0:
        return _bad_spec(out, f"request count {n_requests} is negative")

    replicas = provision_replicas(network, board, n_replicas)
    per_image_us = replicas[0].service_us(1)
    capacity_rps = n_replicas * 1e6 / per_image_us
    rate = capacity_rps * (3.4 if overload else 0.85)
    config = ServeConfig(
        max_queue=8 if overload else 64,
        lifecycle=LifecycleConfig(reprovision_us=5000.0)
        if chaos is not None else None,
    )
    shape = MODELS[network]().input.out_shape
    trace = RequestTrace.poisson(
        network, n_requests, rate_rps=rate, shape=shape, seed=0
    )
    chaos_report: Optional[Dict[str, object]] = None
    if chaos is not None:
        baseline = Server(
            provision_replicas(network, board, n_replicas), config
        ).run(trace)
        with chaos_plan(network, n_replicas, seed=chaos) as plan:
            result = Server(replicas, config).run(trace)
        answered = {r.rid for r in result.responses}
        stuck = sorted(r.rid for r in trace if r.rid not in answered)
        logits_identical = all(
            (a.logits is None) == (b.logits is None)
            and (a.logits is None or np.array_equal(a.logits, b.logits))
            for a, b in zip(result.responses, baseline.responses)
        )
        chaos_report = {
            "seed": chaos,
            "faults_fired": len(plan.fired),
            "stuck_requests": stuck,
            "logits_identical": logits_identical,
            "ok": not stuck and logits_identical and bool(plan.fired),
        }
    else:
        result = Server(replicas, config).run(trace)
    if as_json:
        payload = {
            "spec": {"network": network, "board": board.name,
                     "replicas": n_replicas, "overload": overload},
            "trace": trace.describe(),
            "metrics": result.metrics.to_dict(),
            "events": result.events,
        }
        if chaos_report is not None:
            payload["chaos"] = chaos_report
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0 if chaos_report is None or chaos_report["ok"] else 1
    out.write(
        f"serving {network} on {n_replicas}x {board.name} — "
        f"{n_requests} requests, Poisson at {rate:.1f} req/s "
        f"(pool capacity ~{capacity_rps:.1f} req/s)"
        + (" [overload]" if overload else "")
        + (f" [chaos seed {chaos}]" if chaos is not None else "") + "\n\n"
    )
    out.write(result.metrics.format_table() + "\n")
    if result.events:
        out.write("\nserving events:\n")
        for e in result.events:
            out.write(f"  [{e['kind']:>10}] {e['detail']}\n")
    if chaos_report is not None:
        verdict = "PASS" if chaos_report["ok"] else "FAIL"
        out.write(
            f"\nchaos soak [{verdict}]: {chaos_report['faults_fired']} "
            f"fault(s) fired, {len(chaos_report['stuck_requests'])} stuck "
            f"request(s), logits "
            f"{'bit-identical to' if chaos_report['logits_identical'] else 'DIVERGED from'}"
            f" the fault-free run\n"
        )
        return 0 if chaos_report["ok"] else 1
    return 0


USAGE = """\
usage: python -m repro.report [MODE] [FLAGS]

modes:
  (no flags)              full reproduction scorecard (ladder, folded
                          deployments, baselines, fit/route failures)
  --trace SPEC            per-stage compile trace of one deployment;
                          SPEC = NETWORK[:MODE[:BOARD]], e.g. lenet5,
                          mobilenet_v1:folded:A10; exits 1 when a stage
                          or the execute row's forward fails
  --serve SPEC            batched multi-replica serving simulation;
                          SPEC = NETWORK[:BOARD[:REPLICAS]], e.g.
                          mobilenet_v1:S10SX:4
  --check SPEC            one build's static checks, no synthesis (works
                          on unfittable builds): the verify stage's
                          bounds/race/channel/lint findings, RP advice
                          with its cookbook fix, RE equivalence
                          certificates, the RM liveness/arena map and,
                          for folded networks, the dominance-prune
                          preview; SPEC = NETWORK[:BOARD[:LEVEL]], e.g.
                          resnet18:A10, lenet5:S10SX:base; exits 1 on
                          any error finding
  --autofix SPEC          advise->rewrite auto-scheduler: apply the RP
                          findings' machine-readable fixes, re-verify,
                          iterate to an advice-clean fixpoint or a
                          provably-stuck report (no synthesis);
                          SPEC = NETWORK[:BOARD], e.g. mobilenet_v1:A10

flags:
  --json                  emit JSON instead of tables
                          (--trace/--serve/--check/--autofix)
  --faults                run --trace under the demo fault plan through
                          the resilient degradation ladder
  --overload              drive --serve past pool capacity against a
                          short admission queue (requests shed to the
                          CPU rung)
  --requests N            request count for --serve (default 48)
  --chaos SEED            replay --serve under the seeded serving chaos
                          plan (replica deaths, batch crashes, hangs);
                          verifies every request is answered with
                          logits bit-identical to a fault-free run and
                          exits 1 otherwise
  --help                  this message
"""


def main(out: TextIO = sys.stdout, argv: Optional[List[str]] = None) -> int:
    args = list(argv) if argv is not None else []
    if "--help" in args or "-h" in args:
        out.write(USAGE)
        return 0
    if not args:
        return scorecard(out)
    if len(args) < 2 or args[0] not in ("--trace", "--check", "--autofix",
                                        "--serve"):
        out.write(USAGE)
        return 2
    mode, spec, rest = args[0], args[1], args[2:]
    as_json = "--json" in rest
    if mode == "--trace":
        return trace_deployment(spec, out, as_json,
                                with_faults="--faults" in rest)
    if mode == "--check":
        return check_deployment(spec, out, as_json)
    if mode == "--autofix":
        return autofix_deployment(spec, out, as_json)
    n_requests = 48
    if "--requests" in rest:
        try:
            n_requests = int(rest[rest.index("--requests") + 1])
        except (IndexError, ValueError):
            out.write(USAGE)
            return 2
    chaos = None
    if "--chaos" in rest:
        try:
            chaos = int(rest[rest.index("--chaos") + 1])
        except (IndexError, ValueError):
            out.write(USAGE)
            return 2
    return serve_demo(spec, out, as_json, overload="--overload" in rest,
                      n_requests=n_requests, chaos=chaos)


def scorecard(out: TextIO) -> int:
    """The full reproduction scorecard; 0 when the thesis's story holds."""
    out.write("Reproduction report — Chung, 'Optimization of Compiler-"
              "Generated OpenCL CNN Kernels and Runtime for FPGAs'\n")
    final = lenet_ladder(out)
    folded = folded_networks(out)
    baseline_comparison(out, final["S10SX"], folded)
    outcomes = fit_failures(out)
    ok = all("Error" in o for o in outcomes)
    out.write(
        "\nSummary: LeNet/MobileNet beat the CPU, ResNet does not; naive "
        "large networks do not fit the Arria 10 — the thesis's story "
        f"{'reproduces' if ok else 'DOES NOT reproduce'}.\n"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
