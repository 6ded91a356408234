"""The Kernel artifact: what the code generator emits and AOC consumes.

One :class:`Kernel` corresponds to one OpenCL ``kernel void`` function.
Its signature is the list of global buffers plus any scalar (symbolic
shape/stride) arguments; parameterized kernels (thesis Section 5.3) are
exactly kernels with a non-empty ``scalar_args`` list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import IRError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import stmt_free_vars
from repro.ir.buffer import Buffer, Channel
from repro.ir.functor import StmtVisitor


class Kernel:
    """A single OpenCL kernel: signature + lowered body + attributes."""

    def __init__(
        self,
        name: str,
        args: Sequence[Buffer],
        body: _s.Stmt,
        scalar_args: Sequence[_e.Var] = (),
        autorun: bool = False,
    ) -> None:
        if not name.isidentifier():
            raise IRError(f"kernel name {name!r} is not a valid identifier")
        self.name = name
        self.args: Tuple[Buffer, ...] = tuple(args)
        self.scalar_args: Tuple[_e.Var, ...] = tuple(scalar_args)
        self.body = body
        self.autorun = autorun
        #: names of input buffers whose reads are cached on-chip (schedule
        #: metadata consumed by the AOC resource/bandwidth model)
        self.cached_reads: Sequence[str] = ()
        #: names of signature buffers that are compiler-created global
        #: scratchpads (the naive schedules' accumulators); the host/
        #: interpreter allocates these, they carry no user data
        self.scratch_args: Sequence[str] = ()
        #: name of the buffer holding this kernel's result (None when the
        #: output streams to a channel)
        self.output_buffer: Optional[str] = None
        #: analyses derived from this kernel (its access table, the AOC
        #: model's analysis), computed once per object: a lowered kernel
        #: is never mutated.  Not pickled.
        self.derived: Dict[object, object] = {}
        if autorun and self.args:
            raise IRError(
                f"kernel {name}: autorun kernels cannot access global memory "
                "(thesis Section 4.7)"
            )
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        declared = {b.name for b in self.args}
        allocated: Set[str] = set()

        class _V(StmtVisitor):
            def visit_Allocate(self, a: _s.Allocate) -> None:
                allocated.add(a.buffer.name)
                self.generic_visit_stmt(a)

        _V().visit_stmt(self.body)

        used: Set[Buffer] = set()

        class _U(StmtVisitor):
            def visit_Load(self, e: _e.Load) -> None:
                used.add(e.buffer)
                self.generic_visit(e)

            def visit_Store(self, st: _s.Store) -> None:
                used.add(st.buffer)
                self.generic_visit_stmt(st)

        _U().visit_stmt(self.body)
        for buf in used:
            if buf.scope == "global" and buf.name not in declared:
                raise IRError(
                    f"kernel {self.name}: global buffer {buf.name} used but "
                    "not in the signature"
                )
            if buf.scope != "global" and buf.name not in allocated:
                raise IRError(
                    f"kernel {self.name}: {buf.scope} buffer {buf.name} used "
                    "but never allocated"
                )
        scalar_names = {v for v in self.scalar_args}
        loop_bound: Set[_e.Var] = set()

        class _L(StmtVisitor):
            def visit_For(self, f: _s.For) -> None:
                loop_bound.add(f.loop_var)
                self.generic_visit_stmt(f)

        _L().visit_stmt(self.body)
        for v in stmt_free_vars(self.body):
            if v not in scalar_names and v not in loop_bound:
                raise IRError(
                    f"kernel {self.name}: free variable {v.name} is neither a "
                    "loop var nor a scalar argument"
                )

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "derived": {}}

    # ------------------------------------------------------------------
    @property
    def is_parameterized(self) -> bool:
        """True if the kernel takes symbolic shape/stride arguments."""
        return bool(self.scalar_args)

    def channels(self) -> Tuple[Set[Channel], Set[Channel]]:
        """Channels (read, written) by this kernel."""
        reads: Set[Channel] = set()
        writes: Set[Channel] = set()

        class _V(StmtVisitor):
            def visit_ChannelRead(self, e: _e.ChannelRead) -> None:
                reads.add(e.channel)

            def visit_ChannelWrite(self, s: _s.ChannelWrite) -> None:
                writes.add(s.channel)
                self.generic_visit_stmt(s)

        _V().visit_stmt(self.body)
        return reads, writes

    def local_buffers(self) -> List[Buffer]:
        """All non-global buffers allocated in the body."""
        out: List[Buffer] = []

        class _V(StmtVisitor):
            def visit_Allocate(self, a: _s.Allocate) -> None:
                out.append(a.buffer)
                self.generic_visit_stmt(a)

        _V().visit_stmt(self.body)
        return out

    def __repr__(self) -> str:
        tags = []
        if self.autorun:
            tags.append("autorun")
        if self.is_parameterized:
            tags.append("parameterized")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        return f"Kernel({self.name}, {len(self.args)} bufs{suffix})"


class Program:
    """A compilation unit: the set of kernels synthesized into one bitstream,
    together with the channels connecting them."""

    def __init__(self, kernels: Sequence[Kernel], name: str = "program") -> None:
        names = [k.name for k in kernels]
        if len(set(names)) != len(names):
            raise IRError("duplicate kernel names in program")
        self.name = name
        self.kernels: Tuple[Kernel, ...] = tuple(kernels)

    def kernel(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    def all_channels(self) -> Set[Channel]:
        out: Set[Channel] = set()
        for k in self.kernels:
            r, w = k.channels()
            out |= r | w
        return out

    def validate_channels(self) -> None:
        """Every channel must have exactly one producer and one consumer."""
        producers: Dict[Channel, List[str]] = {}
        consumers: Dict[Channel, List[str]] = {}
        for k in self.kernels:
            r, w = k.channels()
            for ch in w:
                producers.setdefault(ch, []).append(k.name)
            for ch in r:
                consumers.setdefault(ch, []).append(k.name)
        for ch in set(producers) | set(consumers):
            p = producers.get(ch, [])
            c = consumers.get(ch, [])
            if len(p) != 1 or len(c) != 1:
                raise IRError(
                    f"channel {ch.name} needs exactly one producer and one "
                    f"consumer (got {p} -> {c})"
                )

    def __repr__(self) -> str:
        return f"Program({self.name}, {len(self.kernels)} kernels)"
