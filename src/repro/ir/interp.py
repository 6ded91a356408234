"""A NumPy-backed interpreter for lowered kernel IR.

Executes a :class:`~repro.ir.kernel.Kernel` body element-by-element in
Python.  This is the reproduction's ground-truth semantics: every schedule
(naive or optimized) must produce the same numbers through this interpreter
as the pure-NumPy reference operators, which is how tests establish that
the transformations in Chapter 4/5 of the thesis are semantics-preserving.

It is deliberately simple and slow (used on small shapes only); the fast
functional path for whole networks lives in :mod:`repro.runtime.executor`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import RuntimeSimError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.buffer import Buffer, Channel
from repro.ir.kernel import Kernel

_F32 = np.float32

# Scalar intrinsics run through the float32 NumPy ufuncs, NOT ``math.*``:
# ``math.exp`` would compute in float64 and round once at the end, which
# differs in the last ulp from the single-rounding float32 ufunc.  Routing
# both the scalar and vectorized interpreters through the same ufuncs makes
# them agree bit-for-bit by construction.
_INTRINSICS = {
    "exp": np.exp,
    "sqrt": np.sqrt,
    "fabs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "tanh": np.tanh,
    "log": np.log,
}


class ChannelState:
    """FIFO state shared between interpreted kernels.

    Backed by a list plus a read cursor so the vectorized interpreter can
    push/pop whole array chunks (:meth:`write_chunk` / :meth:`read_chunk`)
    without per-element deque traffic; the scalar :meth:`write` /
    :meth:`read` API is unchanged.  Values are stored as Python floats,
    which hold every float32 exactly, so chunk round-trips are bit-exact.
    """

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self._items: List[float] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._items) - self._head

    def _compact(self) -> None:
        if self._head > 4096 and self._head * 2 > len(self._items):
            del self._items[: self._head]
            self._head = 0

    def write(self, value: float) -> None:
        self._items.append(float(value))

    def read(self) -> float:
        if self._head >= len(self._items):
            raise RuntimeSimError(
                f"read from empty channel {self.channel.name}: interpreted "
                "kernels must be run producer-first"
            )
        value = self._items[self._head]
        self._head += 1
        self._compact()
        return _F32(value)

    def write_chunk(self, values: np.ndarray) -> None:
        """Append a flat float32 array, preserving element order."""
        self._items.extend(np.asarray(values, dtype=_F32).ravel().tolist())

    def read_chunk(self, n: int) -> np.ndarray:
        """Pop the next ``n`` values as a float32 array (FIFO order)."""
        if len(self) < n:
            raise RuntimeSimError(
                f"read from empty channel {self.channel.name}: interpreted "
                "kernels must be run producer-first"
            )
        out = np.array(
            self._items[self._head : self._head + n], dtype=_F32
        )
        self._head += n
        self._compact()
        return out


class Interpreter:
    """Interprets one kernel invocation.

    Parameters
    ----------
    buffers:
        Maps buffer *name* -> 1-D ``np.ndarray`` backing store (flat,
        row-major).  Must contain an entry for every global buffer in the
        kernel signature; local/register buffers are allocated on demand.
    bindings:
        Values for the kernel's symbolic scalar arguments (parameterized
        kernels).
    channels:
        Shared :class:`ChannelState` per channel name, for pipelined
        multi-kernel programs.
    """

    def __init__(
        self,
        buffers: Dict[str, np.ndarray],
        bindings: Optional[Dict[_e.Var, int]] = None,
        channels: Optional[Dict[str, ChannelState]] = None,
    ) -> None:
        self.buffers = buffers
        self.env: Dict[_e.Var, float] = dict(bindings or {})
        self.channels = channels if channels is not None else {}

    # ------------------------------------------------------------------
    def run(self, kernel: Kernel) -> None:
        for buf in kernel.args:
            if buf.name not in self.buffers:
                if buf.name in kernel.scratch_args:
                    n = buf.num_elements(self.env)
                    if n is None:
                        raise RuntimeSimError(
                            f"scratch buffer {buf.name} has an unbound "
                            "symbolic dim"
                        )
                    self.buffers[buf.name] = np.zeros(n, dtype=_F32)
                    continue
                raise RuntimeSimError(f"missing buffer {buf.name}")
        for var in kernel.scalar_args:
            if var not in self.env:
                raise RuntimeSimError(f"missing scalar argument {var.name}")
        self._exec(kernel.body)

    # -- statements -----------------------------------------------------
    def _exec(self, s: _s.Stmt) -> None:
        if isinstance(s, _s.SeqStmt):
            for c in s.stmts:
                self._exec(c)
        elif isinstance(s, _s.For):
            extent = int(self._eval(s.extent))
            var = s.loop_var
            for i in range(extent):
                self.env[var] = i
                self._exec(s.body)
            self.env.pop(var, None)
        elif isinstance(s, _s.Store):
            arr = self._storage(s.buffer)
            idx = int(self._eval(s.index))
            val = self._eval(s.value)
            if arr.dtype == _F32:
                val = _F32(val)
            arr[idx] = val
        elif isinstance(s, _s.IfThenElse):
            if self._eval(s.cond):
                self._exec(s.then_body)
            elif s.else_body is not None:
                self._exec(s.else_body)
        elif isinstance(s, _s.Allocate):
            n = 1
            for d in s.buffer.shape:
                n *= int(self._eval(d if isinstance(d, _e.Expr) else _e.IntImm(d)))
            # fresh allocation per entry (loop bodies re-allocate)
            self.buffers[s.buffer.name] = np.zeros(n, dtype=_F32)
            self._exec(s.body)
        elif isinstance(s, _s.AttrStmt):
            self._exec(s.body)
        elif isinstance(s, _s.ChannelWrite):
            self._channel(s.channel).write(_F32(self._eval(s.value)))
        elif isinstance(s, _s.Evaluate):
            self._eval(s.value)
        else:
            raise RuntimeSimError(f"cannot interpret {type(s).__name__}")

    # -- expressions ------------------------------------------------------
    def _eval(self, e: _e.Expr):
        if isinstance(e, _e.IntImm):
            return e.value
        if isinstance(e, _e.FloatImm):
            return _F32(e.value)
        if isinstance(e, _e.Var):
            try:
                return self.env[e]
            except KeyError:
                raise RuntimeSimError(f"unbound variable {e.name}") from None
        if isinstance(e, _e.Load):
            arr = self._storage(e.buffer)
            return arr[int(self._eval(e.index))]
        if isinstance(e, _e.ChannelRead):
            return self._channel(e.channel).read()
        if isinstance(e, _e._BinaryOp):
            a = self._eval(e.a)
            b = self._eval(e.b)
            is_f32 = e.dtype == _e.FLOAT32
            if isinstance(e, _e.Add):
                r = a + b
            elif isinstance(e, _e.Sub):
                r = a - b
            elif isinstance(e, _e.Mul):
                r = a * b
            elif isinstance(e, _e.Div):
                r = a / b
            elif isinstance(e, _e.FloorDiv):
                return int(a) // int(b)
            elif isinstance(e, _e.Mod):
                return int(a) % int(b)
            elif isinstance(e, _e.Min):
                r = min(a, b)
            elif isinstance(e, _e.Max):
                r = max(a, b)
            elif isinstance(e, _e.LT):
                return a < b
            elif isinstance(e, _e.LE):
                return a <= b
            elif isinstance(e, _e.GT):
                return a > b
            elif isinstance(e, _e.GE):
                return a >= b
            elif isinstance(e, _e.EQ):
                return a == b
            elif isinstance(e, _e.NE):
                return a != b
            elif isinstance(e, _e.And):
                return bool(a) and bool(b)
            elif isinstance(e, _e.Or):
                return bool(a) or bool(b)
            else:  # pragma: no cover
                raise RuntimeSimError(f"unhandled op {type(e).__name__}")
            return _F32(r) if is_f32 else r
        if isinstance(e, _e.Not):
            return not bool(self._eval(e.a))
        if isinstance(e, _e.Cast):
            v = self._eval(e.value)
            return _F32(v) if e.dtype == _e.FLOAT32 else int(v)
        if isinstance(e, _e.Select):
            if self._eval(e.cond):
                return self._eval(e.then_value)
            return self._eval(e.else_value)
        if isinstance(e, _e.Call):
            args = [_F32(self._eval(a)) for a in e.args]
            return _F32(_INTRINSICS[e.name](*args))
        raise RuntimeSimError(f"cannot evaluate {type(e).__name__}")

    # ------------------------------------------------------------------
    def _storage(self, buffer: Buffer) -> np.ndarray:
        arr = self.buffers.get(buffer.name)
        if arr is None:
            raise RuntimeSimError(f"buffer {buffer.name} has no storage")
        return arr

    def _channel(self, ch: Channel) -> ChannelState:
        st = self.channels.get(ch.name)
        if st is None:
            st = ChannelState(ch)
            self.channels[ch.name] = st
        return st


def run_kernel(
    kernel: Kernel,
    buffers: Dict[str, np.ndarray],
    bindings: Optional[Dict[_e.Var, int]] = None,
    channels: Optional[Dict[str, ChannelState]] = None,
) -> None:
    """Interpret one kernel invocation in place (buffers are mutated)."""
    Interpreter(buffers, bindings, channels).run(kernel)


def run_program_sequential(
    kernels,
    buffers: Dict[str, np.ndarray],
    bindings: Optional[Dict[_e.Var, int]] = None,
) -> None:
    """Interpret a list of kernels in order with shared channel state.

    Producer kernels must precede consumers (sufficient for feed-forward
    layer pipelines, where channels act as unbounded FIFOs functionally).
    """
    channels: Dict[str, ChannelState] = {}
    for k in kernels:
        Interpreter(buffers, bindings, channels).run(k)
