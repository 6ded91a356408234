"""OpenCL-C code generation from lowered kernel IR.

Emits the ``.cl`` source AOC would consume, matching the style of the
thesis's listings: ``#pragma unroll`` directives, ``restrict`` global
pointers, Intel channel declarations with ``depth`` attributes, and the
``autorun``/``max_global_work_dim(0)`` attributes of Section 4.7.

The emitted text is *faithful output*, not what the simulator executes
(the simulator works from the IR directly); it exists so the generated
kernels can be inspected, diffed against the thesis listings, and — on a
machine with the real Intel toolchain — handed to ``aoc``.
"""

from __future__ import annotations

from typing import List

from repro.errors import CodegenError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.kernel import Kernel, Program

_BIN_FMT = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "/": "({a} / {b})",
    "//": "({a} / {b})",
    "%": "({a} % {b})",
    "<": "({a} < {b})",
    "<=": "({a} <= {b})",
    ">": "({a} > {b})",
    ">=": "({a} >= {b})",
    "==": "({a} == {b})",
    "!=": "({a} != {b})",
    "&&": "({a} && {b})",
    "||": "({a} || {b})",
}

_CTYPE = {"float32": "float", "int32": "int", "bool": "bool"}


def _ctype(dtype: str) -> str:
    try:
        return _CTYPE[dtype]
    except KeyError:
        raise CodegenError(f"no OpenCL type for dtype {dtype!r}") from None


class OpenCLCodegen:
    """Stateless expression/statement printer for OpenCL C."""

    def expr(self, e: _e.Expr) -> str:
        if isinstance(e, _e.IntImm):
            return str(e.value)
        if isinstance(e, _e.FloatImm):
            v = e.value
            if v == float(int(v)) and abs(v) < 1e9:
                return f"{v:.6e}f"
            return f"{v!r}f"
        if isinstance(e, _e.Var):
            return e.name
        if isinstance(e, _e.Min):
            return f"min({self.expr(e.a)}, {self.expr(e.b)})"
        if isinstance(e, _e.Max):
            return f"max({self.expr(e.a)}, {self.expr(e.b)})"
        if isinstance(e, _e._BinaryOp):
            fmt = _BIN_FMT.get(e.op_name)
            if fmt is None:
                raise CodegenError(f"no OpenCL emission for {e.op_name}")
            return fmt.format(a=self.expr(e.a), b=self.expr(e.b))
        if isinstance(e, _e.Not):
            return f"(!{self.expr(e.a)})"
        if isinstance(e, _e.Cast):
            return f"(({_ctype(e.dtype)}){self.expr(e.value)})"
        if isinstance(e, _e.Select):
            return (
                f"({self.expr(e.cond)} ? {self.expr(e.then_value)}"
                f" : {self.expr(e.else_value)})"
            )
        if isinstance(e, _e.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.name}({args})"
        if isinstance(e, _e.Load):
            return f"{e.buffer.name}[{self.expr(e.index)}]"
        if isinstance(e, _e.ChannelRead):
            return f"read_channel_intel({e.channel.name})"
        raise CodegenError(f"cannot emit {type(e).__name__}")

    # ------------------------------------------------------------------
    def stmt(self, s: _s.Stmt, indent: int) -> List[str]:
        pad = "  " * indent
        if isinstance(s, _s.Store):
            return [f"{pad}{s.buffer.name}[{self.expr(s.index)}] = {self.expr(s.value)};"]
        if isinstance(s, _s.Evaluate):
            return [f"{pad}{self.expr(s.value)};"]
        if isinstance(s, _s.ChannelWrite):
            return [
                f"{pad}write_channel_intel({s.channel.name}, {self.expr(s.value)});"
            ]
        if isinstance(s, _s.SeqStmt):
            out: List[str] = []
            for c in s.stmts:
                out.extend(self.stmt(c, indent))
            return out
        if isinstance(s, _s.For):
            v = s.loop_var.name
            lines = []
            if s.kind is _s.ForKind.UNROLLED:
                factor = "" if s.unroll_factor is None else f" {s.unroll_factor}"
                lines.append(f"{pad}#pragma unroll{factor}")
            lines.append(
                f"{pad}for (int {v} = 0; {v} < {self.expr(s.extent)}; ++{v}) {{"
            )
            lines.extend(self.stmt(s.body, indent + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(s, _s.IfThenElse):
            lines = [f"{pad}if ({self.expr(s.cond)}) {{"]
            lines.extend(self.stmt(s.then_body, indent + 1))
            if s.else_body is not None:
                lines.append(f"{pad}}} else {{")
                lines.extend(self.stmt(s.else_body, indent + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(s, _s.Allocate):
            buf = s.buffer
            dims = "".join(f"[{self._dim(d)}]" for d in buf.shape)
            qual = {"local": "__local", "register": "", "constant": "__constant"}[
                buf.scope
            ]
            decl = f"{pad}{qual} {_ctype(buf.dtype)} {buf.name}{dims};".replace(
                f"{pad} ", pad, 1
            )
            return [decl] + self.stmt(s.body, indent)
        if isinstance(s, _s.AttrStmt):
            return [f"{pad}// attr {s.key} = {s.value}"] + self.stmt(s.body, indent)
        raise CodegenError(f"cannot emit {type(s).__name__}")

    def _dim(self, d) -> str:
        if isinstance(d, int):
            return str(d)
        if isinstance(d, _e.Expr):
            return self.expr(d)
        raise CodegenError(f"bad buffer dim {d!r}")

    # ------------------------------------------------------------------
    def kernel(self, k: Kernel) -> str:
        """Emit one ``kernel void`` function."""
        params = [
            f"global {_ctype(b.dtype)} * restrict {b.name}" for b in k.args
        ]
        params += [f"const int {v.name}" for v in k.scalar_args]
        attrs = ""
        if k.autorun:
            attrs = (
                "__attribute__((max_global_work_dim(0)))\n"
                "__attribute__((autorun))\n"
            )
        sig = f"{attrs}kernel void {k.name}({', '.join(params)}) {{"
        body = self.stmt(k.body, 1)
        return "\n".join([sig] + body + ["}"])

    def program(self, prog: Program) -> str:
        """Emit a complete .cl file: channel declarations then kernels."""
        lines = [
            "// Generated by the repro OpenCL codegen",
            "// (compile with: aoc -fp-relaxed -fpc <file>.cl)",
            "#pragma OPENCL EXTENSION cl_intel_channels : enable",
            "",
        ]
        for ch in sorted(prog.all_channels(), key=lambda c: c.name):
            depth = (
                f" __attribute__((depth({ch.depth})))" if ch.depth > 0 else ""
            )
            lines.append(f"channel {_ctype(ch.dtype)} {ch.name}{depth};")
        if prog.all_channels():
            lines.append("")
        for k in prog.kernels:
            # a lowered kernel is never mutated, so its text is emitted
            # once per kernel object (a lower-cache replay reuses it)
            text = k.derived.get(type(self))
            if text is None:
                text = k.derived[type(self)] = self.kernel(k)
            lines.append(text)
            lines.append("")
        return "\n".join(lines)


def generate_opencl(obj) -> str:
    """Emit OpenCL C for a :class:`Kernel` or :class:`Program`."""
    cg = OpenCLCodegen()
    if isinstance(obj, Program):
        return cg.program(obj)
    if isinstance(obj, Kernel):
        return cg.kernel(obj)
    raise CodegenError(f"cannot generate code for {type(obj).__name__}")
