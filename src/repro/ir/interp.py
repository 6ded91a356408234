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
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.counters import count
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


class _Streams:
    """The queued values of one channel: one float32 stream per sample.

    ``chunks`` holds ``(owner, rows)`` in write order: ``rows`` is a
    ``(lanes, k)`` chunk every sample's stream continues with (owner
    None), or a ``(1, k)`` chunk of sample ``owner``'s stream alone.
    While every sample has read the same values and only whole chunks
    were written, the streams are *even*: one column cursor ``head``
    into the first chunk serves every sample, and :meth:`pop` hands a
    whole chunk, or a column slice of it, on as one array.  A sample's
    own access (:meth:`pop_lane`, :meth:`append`, :meth:`push_lane`)
    splits them: each sample then has its own cursor (chunk number,
    column), its own count and its own tail of scalar writes not yet
    packed into a chunk, until every value is read.
    """

    __slots__ = ("lanes", "chunks", "head", "size", "base", "cursors",
                 "tails", "sizes")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.chunks: Deque[Tuple[Optional[int], np.ndarray]] = deque()
        #: even: the column of every stream's next value in chunks[0]
        self.head = 0
        #: even: the values queued in every stream
        self.size = 0
        #: split: the chunk number of chunks[0]
        self.base = 0
        #: split, per sample: (chunk number, column) of its next value,
        #: its scalar writes not yet packed, and its queued values
        self.cursors: Optional[List[Tuple[int, int]]] = None
        self.tails: List[List[float]] = []
        self.sizes: List[int] = []

    def queued(self, n: Optional[int] = None) -> int:
        """Values queued in sample ``n``'s stream, or in every stream."""
        if self.cursors is None:
            return self.size
        return min(self.sizes) if n is None else self.sizes[n]

    def _split(self) -> None:
        if self.cursors is None:
            self.cursors = [(0, self.head)] * self.lanes
            self.base = 0
            self.tails = [[] for _ in range(self.lanes)]
            self.sizes = [self.size] * self.lanes

    def _pack(self, n: int) -> None:
        """Append sample ``n``'s scalar tail as one chunk of its own."""
        self.chunks.append((n, np.array([self.tails[n]], dtype=_F32)))
        self.tails[n] = []

    # -- every sample at once ------------------------------------------
    def push(self, rows: np.ndarray) -> None:
        """Continue every stream with its row of ``rows`` ``(lanes, k)``."""
        k = rows.shape[1]
        if not k:
            return
        if self.cursors is None:
            self.size += k
        else:
            for n, tail in enumerate(self.tails):
                if tail:
                    self._pack(n)
            self.sizes = [size + k for size in self.sizes]
        self.chunks.append((None, rows))

    def pop(self, k: int) -> np.ndarray:
        """The next ``k`` values of every stream, ``(lanes, k)``."""
        if self.cursors is not None:
            if self.lanes == 1:
                return self.pop_lane(0, k).reshape(1, k)
            return np.stack([self.pop_lane(n, k) for n in range(self.lanes)])
        self.size -= k
        parts = []
        head = self.head
        while k:
            rows = self.chunks[0][1]
            take = min(k, rows.shape[1] - head)
            parts.append(rows[:, head : head + take])
            head += take
            k -= take
            if head == rows.shape[1]:
                self.chunks.popleft()
                head = 0
        self.head = head
        if len(parts) == 1:
            return parts[0]
        if parts:
            return np.concatenate(parts, axis=1)
        return np.empty((self.lanes, 0), _F32)

    # -- one sample ----------------------------------------------------
    def append(self, n: int, value: float) -> None:
        self._split()
        self.tails[n].append(value)
        self.sizes[n] += 1

    def push_lane(self, n: int, row: np.ndarray) -> None:
        if row.size:
            self._split()
            if self.tails[n]:
                self._pack(n)
            self.chunks.append((n, row.reshape(1, -1)))
            self.sizes[n] += row.size

    def pop_lane(self, n: int, k: int) -> np.ndarray:
        """The next ``k`` values of sample ``n``'s stream."""
        count("fifo_pops")
        self._split()
        if self.sizes[n] - len(self.tails[n]) < k:  # reaches into the tail
            self._pack(n)
        # a cursor behind chunks[0] only passed over other samples' chunks
        index, col = max(self.cursors[n], (self.base, 0))
        parts = []
        left = k
        while left:
            owner, rows = self.chunks[index - self.base]
            if owner is None or owner == n:
                row = rows[0 if owner == n else n]
                take = min(left, row.size - col)
                parts.append(row[col : col + take])
                col += take
                left -= take
                if col < row.size:
                    break
            index, col = index + 1, 0
        self.cursors[n] = (index, col)
        self.sizes[n] -= k
        self._drop_read()
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, _F32)

    def _drop_read(self) -> None:
        """Drop the chunks every sample they feed has read past; once all
        is read the streams are even again."""
        cursors = self.cursors
        while self.chunks:
            owner = self.chunks[0][0]
            readers = cursors if owner is None else (cursors[owner],)
            if any(index <= self.base for index, _ in readers):
                break
            self.chunks.popleft()
            self.base += 1
        if not self.chunks and not any(self.tails):
            self.cursors = None
            self.head = self.size = 0
            self.tails, self.sizes = [], []


class ChannelState:
    """FIFO state shared between interpreted kernels: one stream per sample.

    A batched run (``lanes`` samples) keeps one stream per sample, so
    every sample sees exactly the FIFO order it would see alone.  The
    streams share one store of float32 chunks (:class:`_Streams`): a
    ``(lanes, k)`` chunk written whole (:meth:`write_chunk`) and read
    whole (:meth:`read_chunk`) passes from producer to consumer as that
    one array, or a column slice of it, with no per-sample pop.  Any
    other access — a sample's :meth:`lane` view, the scalar
    :meth:`write` / :meth:`read` of a single-stream state, a read of
    part of a chunk by one sample — reads and writes sample by sample
    in the same order.
    """

    def __init__(self, channel: Channel, lanes: int = 1) -> None:
        self.channel = channel
        self._streams = _Streams(lanes)
        #: the sample a lane view reads and writes, None for all of them
        self._sample: Optional[int] = None

    @property
    def lanes(self) -> int:
        return self._streams.lanes if self._sample is None else 1

    def lane(self, n: int) -> "ChannelState":
        """Sample ``n``'s stream as a single-stream state sharing it."""
        view = ChannelState(self.channel, 0)
        view._streams = self._streams
        view._sample = n
        return view

    def __len__(self) -> int:
        """Values queued in every stream."""
        return self._streams.queued(self._sample)

    def _empty(self) -> RuntimeSimError:
        return RuntimeSimError(
            f"read from empty channel {self.channel.name}: interpreted "
            "kernels must be run producer-first"
        )

    def write(self, value: float) -> None:
        self._streams.append(self._sample or 0, value)

    def read(self) -> float:
        if not self._streams.queued(self._sample or 0):
            raise self._empty()
        return self._streams.pop_lane(self._sample or 0, 1)[0]

    def write_chunk(self, values: np.ndarray) -> None:
        """Append ``k`` values per stream (shape ``(lanes, k)`` or flat,
        row-major by stream), preserving element order."""
        rows = np.array(values, dtype=_F32).reshape(self.lanes, -1)
        if self._sample is None:
            self._streams.push(rows)
        else:
            self._streams.push_lane(self._sample, rows)

    def read_chunk(self, n: int) -> np.ndarray:
        """Pop the next ``n`` values of every stream, shape ``(lanes, n)``."""
        if len(self) < n:
            raise self._empty()
        if self._sample is None:
            return self._streams.pop(n)
        return self._streams.pop_lane(self._sample, n).reshape(1, n)


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
        count("per_sample")
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
