"""Full-size MobileNetV1 and ResNet-18 forwards through their generated kernels.

The thesis validates each implementation once with a real image pushed
through the FPGA kernels.  The reproduction's equivalent runs the folded
S10SX build of each full-size network (224x224 input, every layer
invocation of the plan) through the vectorized interpreter and checks it
against the NumPy reference of the fused graph:

* logits allclose (rtol 1e-4, atol 1e-5) with the same argmax;
* every interpreter band vectorizes, except bands above the vector size
  limit (``BAND_SIZE_LIMIT``), whose outermost loop runs as a Python
  loop by design while the loops below it vectorize.

The results file carries counts and argmaxes only, no timings, so a
rerun reproduces it byte-identically.  The two forwards take about 50 s
on one 2-vCPU host.
"""

from collections import Counter

import numpy as np
from conftest import fmt_table, save_table

from repro.device import STRATIX10_SX
from repro.flow import build_folded
from repro.flow.deploy import default_folded_config
from repro.flow.stages import MODELS
from repro.relay import fuse_operators, init_params, run_fused_graph
from repro.runtime.executor import run_folded_functional

NETWORKS = ("mobilenet_v1", "resnet18")
#: the one fallback a full-size band may take: too big for one array op
SIZE_LIMIT = "band exceeds vector size limit"


def _forward(net: str) -> dict:
    graph = MODELS[net]()
    fused = fuse_operators(graph)
    config = default_folded_config(net, STRATIX10_SX)
    prog, plan = build_folded(fused, config, STRATIX10_SX)
    params = init_params(graph, seed=0)
    x = np.random.default_rng(11).standard_normal(
        graph.input.out_shape
    ).astype(np.float32)
    events = []
    got = run_folded_functional(prog, plan, fused, x, params,
                                interp="vector", events=events)
    ref = run_fused_graph(fused, x, params)
    return {
        "input": graph.input.out_shape,
        "kernels": len(prog.kernels),
        "invocations": len(plan.invocations),
        "got": got,
        "ref": ref,
        "vectorized": sum(1 for _, ev in events if ev.kind == "vectorized"),
        "fallbacks": Counter(
            (kernel, ev.detail) for kernel, ev in events
            if ev.kind == "fallback"
        ),
    }


def test_full_size_forward(benchmark):
    data = benchmark.pedantic(
        lambda: {net: _forward(net) for net in NETWORKS},
        rounds=1, iterations=1,
    )

    rows = []
    for net, m in data.items():
        got, ref = m["got"], m["ref"]
        size_limited = sum(n for (_, reason), n in m["fallbacks"].items()
                           if reason == SIZE_LIMIT)
        rows.append([
            net, "x".join(map(str, m["input"])), m["kernels"],
            m["invocations"], m["vectorized"], size_limited,
            int(got.argmax()), int(ref.argmax()),
            "yes" if np.allclose(got, ref, rtol=1e-4, atol=1e-5) else "NO",
        ])
    save_table("full_size_forward", fmt_table(
        "Full-size forwards through the generated kernels (S10SX, folded, "
        "vectorized interpreter) vs the NumPy reference",
        ["net", "input", "kernels", "invocations", "bands vectorized",
         "size-limit fallbacks", "argmax", "ref argmax",
         "allclose(1e-4, 1e-5)"],
        rows,
    ))

    for net, m in data.items():
        got, ref = m["got"], m["ref"]
        assert got.shape == ref.shape, net
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5,
                                   err_msg=net)
        assert int(got.argmax()) == int(ref.argmax()), net
        other = {key: n for key, n in m["fallbacks"].items()
                 if key[1] != SIZE_LIMIT}
        assert other == {}, f"{net}: unexpected fallbacks {other}"
        assert m["vectorized"] > 0, net
