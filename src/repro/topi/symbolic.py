"""Parameterized (symbolic-shape) kernels for folded execution (§5.3, §4.9).

Folded deployments group convolutions with the same filter size and
stride into one kernel whose channel counts and spatial sizes are runtime
arguments (TVM ``te.var``).  Buffers carry symbolic shape and *stride*
arguments exactly like Listing 5.10; by default the innermost stride is
pinned to the literal 1 (Listing 5.11's workaround) so AOC can coalesce
the innermost unrolled accesses — pass ``pin_unit_stride=False`` to
reproduce the uncoalesced behaviour the workaround fixes.

Each builder returns ``(SymbolicConv, inputs, out)`` where the
``SymbolicConv.bindings(...)`` method produces the scalar-argument values
for a concrete layer invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import repro.ir as ir
from repro.errors import ScheduleError
from repro.ir import expr as _e
from repro.schedule import Schedule, create_schedule
from repro.topi.common import ConvTiling, make_activation
from repro.topi.recipes import symbolic_conv_recipe


@dataclass
class SymbolicShapes:
    """The symbolic scalar arguments of a parameterized kernel."""

    vars: Dict[str, _e.Var] = field(default_factory=dict)

    def var(self, name: str) -> _e.Var:
        return self.vars.setdefault(name, _e.sym(name))

    def bind(self, **values: int) -> Dict[_e.Var, int]:
        """Map var-name keyword values to a Var->int binding dict."""
        out: Dict[_e.Var, int] = {}
        for name, value in values.items():
            if name not in self.vars:
                raise ScheduleError(f"unknown symbolic var {name!r}")
            out[self.vars[name]] = int(value)
        return out


class SymbolicConv:
    """Handle for a parameterized convolution kernel's symbols."""

    def __init__(self, shapes: SymbolicShapes, f: int, s: int, depthwise: bool) -> None:
        self.shapes = shapes
        self.f = f
        self.s = s
        self.depthwise = depthwise

    def bindings(self, c1: int, hi: int, wi: int, k: Optional[int] = None) -> Dict[_e.Var, int]:
        """Scalar-argument values for one layer invocation.

        ``hi``/``wi`` are the (pre-padded) input spatial sizes; ``k`` the
        output channels (ignored for depthwise).
        """
        ho = (hi - self.f) // self.s + 1
        wo = (wi - self.f) // self.s + 1
        values = dict(
            n_c1=c1, n_hi=hi, n_wi=wi, n_ho=ho, n_wo=wo,
            s_i0=hi * wi, s_i1=wi,
            # unpinned innermost strides are always 1 at runtime — the
            # point of Listing 5.11 is that AOC cannot *prove* that
            s_i2=1, s_o2=1, s_r2=1,
        )
        if self.depthwise:
            values.update(s_o0=ho * wo, s_o1=wo)
        else:
            assert k is not None, "standard conv needs output channels k"
            values.update(
                n_c2=k,
                s_w0=c1 * self.f * self.f,
                s_o0=ho * wo, s_o1=wo,
            )
        present = {v.name for v in self.shapes.vars.values()}
        return {
            var: values[name]
            for name, var in self.shapes.vars.items()
            if name in values and name in present
        }


def conv2d_symbolic(
    f: int,
    s: int,
    name: str,
    bias: bool = True,
    activation: Optional[str] = None,
    residual: bool = False,
    batchnorm: bool = False,
    pin_unit_stride: bool = True,
) -> Tuple[SymbolicConv, Dict[str, ir.Tensor], ir.Tensor]:
    """Parameterized standard convolution with fixed filter size/stride."""
    sh = SymbolicShapes()
    c1, c2 = sh.var("n_c1"), sh.var("n_c2")
    hi, wi = sh.var("n_hi"), sh.var("n_wi")
    ho, wo = sh.var("n_ho"), sh.var("n_wo")
    inner = 1 if pin_unit_stride else sh.var("s_i2")
    I = ir.Tensor(f"{name}_in", (c1, hi, wi))
    I.buffer.strides = (sh.var("s_i0"), sh.var("s_i1"), inner)
    W = ir.Tensor(f"{name}_w", (c2, c1, f, f))
    # only the outermost weight stride depends on a runtime dim (C1);
    # the rest are compile-time constants of the fixed filter size
    W.buffer.strides = (sh.var("s_w0"), f * f, f, 1)
    inputs = {"I": I, "W": W}
    tensors = [I, W]
    B = R = S = Z = None
    if bias:
        B = ir.placeholder((c2,), f"{name}_b")
        inputs["B"] = B
        tensors.append(B)
    if batchnorm:
        S = ir.placeholder((c2,), f"{name}_scale")
        Z = ir.placeholder((c2,), f"{name}_shift")
        inputs["S"], inputs["Z"] = S, Z
        tensors.extend([S, Z])
    if residual:
        R = ir.Tensor(f"{name}_res", (c2, ho, wo))
        R.buffer.strides = (sh.var("s_o0"), sh.var("s_o1"), 1 if pin_unit_stride else sh.var("s_r2"))
        inputs["R"] = R
        tensors.append(R)
    act = make_activation(activation)

    def epilogue(v, ff, yy, xx):
        if B is not None:
            v = v + B[ff]
        if S is not None:
            v = v * S[ff] + Z[ff]
        if R is not None:
            v = v + R[ff, yy, xx]
        return act(v)

    rc = ir.reduce_axis(c1, "rc")
    ry = ir.reduce_axis(f, "ry")
    rx = ir.reduce_axis(f, "rx")
    out = ir.compute(
        (c2, ho, wo),
        lambda ff, yy, xx: ir.sum(
            I[rc, yy * s + ry, xx * s + rx] * W[ff, rc, ry, rx], [rc, ry, rx]
        ),
        name,
        inputs=tensors,
        axis_names=["ff", "yy", "xx"],
        epilogue=epilogue,
    )
    out.buffer.strides = (sh.var("s_o0"), sh.var("s_o1"), 1 if pin_unit_stride else sh.var("s_o2"))
    return SymbolicConv(sh, f, s, depthwise=False), inputs, out


def depthwise_symbolic(
    f: int,
    s: int,
    name: str,
    bias: bool = True,
    activation: Optional[str] = None,
    batchnorm: bool = False,
    pin_unit_stride: bool = True,
) -> Tuple[SymbolicConv, Dict[str, ir.Tensor], ir.Tensor]:
    """Parameterized depthwise convolution with fixed filter size/stride."""
    sh = SymbolicShapes()
    c1 = sh.var("n_c1")
    hi, wi = sh.var("n_hi"), sh.var("n_wi")
    ho, wo = sh.var("n_ho"), sh.var("n_wo")
    inner = 1 if pin_unit_stride else sh.var("s_i2")
    I = ir.Tensor(f"{name}_in", (c1, hi, wi))
    I.buffer.strides = (sh.var("s_i0"), sh.var("s_i1"), inner)
    W = ir.Tensor(f"{name}_w", (c1, f, f))
    W.buffer.strides = (f * f, f, 1)  # fully static: filter size is fixed
    inputs = {"I": I, "W": W}
    tensors = [I, W]
    B = S = Z = None
    if bias:
        B = ir.placeholder((c1,), f"{name}_b")
        inputs["B"] = B
        tensors.append(B)
    if batchnorm:
        S = ir.placeholder((c1,), f"{name}_scale")
        Z = ir.placeholder((c1,), f"{name}_shift")
        inputs["S"], inputs["Z"] = S, Z
        tensors.extend([S, Z])
    act = make_activation(activation)

    def epilogue(v, cc, yy, xx):
        if B is not None:
            v = v + B[cc]
        if S is not None:
            v = v * S[cc] + Z[cc]
        return act(v)

    ry = ir.reduce_axis(f, "ry")
    rx = ir.reduce_axis(f, "rx")
    out = ir.compute(
        (c1, ho, wo),
        lambda cc, yy, xx: ir.sum(
            I[cc, yy * s + ry, xx * s + rx] * W[cc, ry, rx], [ry, rx]
        ),
        name,
        inputs=tensors,
        axis_names=["cc", "yy", "xx"],
        epilogue=epilogue,
    )
    out.buffer.strides = (sh.var("s_o0"), sh.var("s_o1"), 1 if pin_unit_stride else sh.var("s_o2"))
    return SymbolicConv(sh, f, s, depthwise=True), inputs, out


class SymbolicPad:
    """Handle for the parameterized padding kernel's symbols."""

    def __init__(self, shapes: SymbolicShapes, before: int, after: int) -> None:
        self.shapes = shapes
        self.before = before
        self.after = after

    def bindings(self, c: int, hi: int, wi: int) -> Dict[_e.Var, int]:
        total = self.before + self.after
        ho, wo = hi + total, wi + total
        return self.shapes.bind(
            n_c=c, n_hi=hi, n_wi=wi, n_ho=ho, n_wo=wo,
            s_i0=hi * wi, s_i1=wi, s_o0=ho * wo, s_o1=wo,
        )


def pad_symbolic(
    before: int, after: int, name: str
) -> Tuple[SymbolicPad, Dict[str, ir.Tensor], ir.Tensor]:
    """Parameterized zero-padding kernel with fixed pad amounts."""
    sh = SymbolicShapes()
    c = sh.var("n_c")
    hi, wi = sh.var("n_hi"), sh.var("n_wi")
    ho, wo = sh.var("n_ho"), sh.var("n_wo")
    I = ir.Tensor(f"{name}_in", (c, hi, wi))
    I.buffer.strides = (sh.var("s_i0"), sh.var("s_i1"), 1)

    def fcompute(cc, yy, xx):
        in_bounds = ir.And(
            ir.And(yy >= before, yy < hi + before),
            ir.And(xx >= before, xx < wi + before),
        )
        yy_c = ir.Max(ir.Min(yy - before, hi - 1), ir.IntImm(0))
        xx_c = ir.Max(ir.Min(xx - before, wi - 1), ir.IntImm(0))
        return ir.Select(in_bounds, I[cc, yy_c, xx_c], ir.FloatImm(0.0))

    out = ir.compute(
        (c, ho, wo), fcompute, name, inputs=[I], axis_names=["cc", "yy", "xx"]
    )
    out.buffer.strides = (sh.var("s_o0"), sh.var("s_o1"), 1)
    return SymbolicPad(sh, before, after), {"I": I}, out


def schedule_symbolic_conv(
    out: ir.Tensor, tiling: ConvTiling, is_1x1: bool
) -> Schedule:
    """Tile/unroll a parameterized conv: inner tiles are static, so they
    unroll; outer loops keep symbolic trip counts (§5.3)."""
    depthwise = len(out.op.reduce_axes) != 3
    return symbolic_conv_recipe(tiling, is_1x1, depthwise=depthwise).apply(
        create_schedule(out)
    )
