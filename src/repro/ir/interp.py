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

from collections import deque
from typing import Deque, Dict, List, Optional

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


class _Fifo:
    """One float32 stream: array chunks, a read cursor into the first,
    and a tail of scalar writes not yet packed into a chunk."""

    __slots__ = ("chunks", "head", "tail", "size")

    def __init__(self) -> None:
        self.chunks: Deque[np.ndarray] = deque()
        self.head = 0
        self.tail: List[float] = []
        self.size = 0

    def _pack(self) -> None:
        """Append the scalar tail as one chunk, after every earlier one."""
        self.chunks.append(np.array(self.tail, dtype=_F32))
        self.tail = []

    def append(self, value: float) -> None:
        self.tail.append(value)
        self.size += 1

    def push(self, values: np.ndarray) -> None:
        if values.size:
            if self.tail:
                self._pack()
            self.chunks.append(values)
            self.size += values.size

    def pop(self, n: int) -> np.ndarray:
        if self.size - len(self.tail) < n:  # reaches into the tail
            self._pack()
        parts = []
        while n:
            chunk = self.chunks[0]
            take = min(n, chunk.size - self.head)
            parts.append(chunk[self.head : self.head + take])
            self.head += take
            self.size -= take
            n -= take
            if self.head == chunk.size:
                self.chunks.popleft()
                self.head = 0
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, _F32)


class ChannelState:
    """FIFO state shared between interpreted kernels: one stream per sample.

    A batched run (``lanes`` samples) keeps one stream per sample, so
    every sample sees exactly the FIFO order it would see alone.  Each
    stream holds float32 array chunks plus a read cursor, so the
    vectorized interpreter pushes and pops whole chunks of shape
    ``(lanes, k)`` (:meth:`write_chunk` / :meth:`read_chunk`) with no
    per-element traffic.  The scalar :meth:`write` / :meth:`read` API
    works on a single-stream state, e.g. one sample's :meth:`lane`.
    """

    def __init__(self, channel: Channel, lanes: int = 1) -> None:
        self.channel = channel
        self._fifos = [_Fifo() for _ in range(lanes)]

    @property
    def lanes(self) -> int:
        return len(self._fifos)

    def lane(self, n: int) -> "ChannelState":
        """Sample ``n``'s stream as a single-stream state sharing it."""
        view = ChannelState(self.channel, 0)
        view._fifos = [self._fifos[n]]
        return view

    def __len__(self) -> int:
        """Values queued in every stream."""
        return min(f.size for f in self._fifos)

    def _empty(self) -> RuntimeSimError:
        return RuntimeSimError(
            f"read from empty channel {self.channel.name}: interpreted "
            "kernels must be run producer-first"
        )

    def write(self, value: float) -> None:
        self._fifos[0].append(value)

    def read(self) -> float:
        fifo = self._fifos[0]
        if not fifo.size:
            raise self._empty()
        return fifo.pop(1)[0]

    def write_chunk(self, values: np.ndarray) -> None:
        """Append ``k`` values per stream (shape ``(lanes, k)`` or flat,
        row-major by stream), preserving element order."""
        rows = np.array(values, dtype=_F32).reshape(self.lanes, -1)
        for fifo, row in zip(self._fifos, rows):
            fifo.push(row)

    def read_chunk(self, n: int) -> np.ndarray:
        """Pop the next ``n`` values of every stream, shape ``(lanes, n)``."""
        if len(self) < n:
            raise self._empty()
        if len(self._fifos) == 1:
            return self._fifos[0].pop(n).reshape(1, n)
        return np.stack([fifo.pop(n) for fifo in self._fifos])


class Interpreter:
    """Interprets one kernel invocation.

    Parameters
    ----------
    buffers:
        Maps buffer *name* -> ``np.ndarray`` backing store.  A 1-D array
        (flat, row-major) is one store; a 2-D ``(N, numel)`` array holds
        one row per sample of a batch of ``N``, and the 1-D stores are
        then shared by the batch (weights, bias).  Must contain an entry
        for every global buffer in the kernel signature; local/register
        buffers are allocated on demand (per sample in a batch).
    bindings:
        Values for the kernel's symbolic scalar arguments (parameterized
        kernels).
    channels:
        Shared :class:`ChannelState` per channel name, for pipelined
        multi-kernel programs (one stream per sample in a batch).

    A batch runs each statement once per sample on that sample's rows
    and streams (:meth:`_per_sample`); only the kernel's structure —
    sequences, attributes and allocations — is walked once.  The
    vectorized subclass runs a band, or a statement outside any loop,
    over the batch axis instead, and runs per sample only what its plan
    refuses.
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
        sizes = {a.shape[0] for a in buffers.values() if a.ndim == 2}
        sizes.update(c.lanes for c in self.channels.values() if c.lanes > 1)
        if len(sizes) > 1:
            raise RuntimeSimError(
                f"buffers and channels disagree on the batch size: "
                f"{sorted(sizes)}"
            )
        #: samples of a batched run (2-D buffers), None for one store each
        self.batch: Optional[int] = sizes.pop() if sizes else None

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
                    self.buffers[buf.name] = self._zeros(n)
                    continue
                raise RuntimeSimError(f"missing buffer {buf.name}")
        for var in kernel.scalar_args:
            if var not in self.env:
                raise RuntimeSimError(f"missing scalar argument {var.name}")
        if self.batch is not None:
            # per-sample statements see every stream through lane views
            for chans in kernel.channels():
                for ch in chans:
                    self._channel(ch)
        self._exec(kernel.body)

    def _zeros(self, n: int) -> np.ndarray:
        """Fresh zeroed storage: one row per sample in a batch."""
        shape = n if self.batch is None else (self.batch, n)
        return np.zeros(shape, dtype=_F32)

    def _sample(self, n: int) -> "Interpreter":
        """An interpreter over sample ``n``'s rows and streams."""
        return type(self)(
            {k: v[n] if v.ndim == 2 else v for k, v in self.buffers.items()},
            self.env,
            {k: c.lane(n) for k, c in self.channels.items()},
        )

    def _per_sample(self, s: _s.Stmt) -> None:
        # a loop runs as a loop at this level: only statements nested in
        # it see a subclass's _exec (a refused band is not re-tried)
        for n in range(self.batch):
            Interpreter._exec(self._sample(n), s)

    # -- statements -----------------------------------------------------
    def _exec(self, s: _s.Stmt) -> None:
        if self.batch is not None and not isinstance(
            s, (_s.SeqStmt, _s.AttrStmt, _s.Allocate)
        ):
            self._per_sample(s)
        elif isinstance(s, _s.SeqStmt):
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
            self.buffers[s.buffer.name] = self._zeros(n)
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
            st = ChannelState(ch, self.batch or 1)
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
