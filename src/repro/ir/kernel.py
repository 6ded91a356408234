"""The Kernel artifact: what the code generator emits and AOC consumes.

One :class:`Kernel` corresponds to one OpenCL ``kernel void`` function.
Its signature is the list of global buffers plus any scalar (symbolic
shape/stride) arguments; parameterized kernels (thesis Section 5.3) are
exactly kernels with a non-empty ``scalar_args`` list.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import IRError
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.analysis import access_table
from repro.ir.buffer import Buffer, Channel


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
        #: analyses derived from this kernel, computed once per object (a
        #: lowered kernel is never mutated): its access table — built here
        #: by validation, then read by channels(), local_buffers(), verify
        #: and the AOC model — plus the channels it reads and writes, the
        #: AOC analysis, the verifier's per-kernel reports, the emitted
        #: OpenCL text and the vectorized interpreter's band plans.  Not
        #: pickled; an unpickled kernel rebuilds its table on first use.
        self.derived: Dict[object, object] = {}
        if autorun and self.args:
            raise IRError(
                f"kernel {name}: autorun kernels cannot access global memory "
                "(thesis Section 4.7)"
            )
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        table = access_table(self)
        declared = {b.name for b in self.args}
        allocated = {b.name for b in table.allocations}
        for buf in dict.fromkeys(site.buffer for site in table.sites):
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
        free = table.vars.difference(
            self.scalar_args, (f.loop_var for f in table.loops)
        )
        if free:
            v = min(free, key=lambda v: v.name)
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

    def channels(self) -> Tuple[FrozenSet[Channel], FrozenSet[Channel]]:
        """Channels (read, written) by this kernel, computed once."""
        found = self.derived.get(Kernel.channels)
        if found is None:
            reads: Set[Channel] = set()
            writes: Set[Channel] = set()
            for site in access_table(self).channel_sites:
                (writes if site.is_write else reads).add(site.channel)
            found = self.derived[Kernel.channels] = (
                frozenset(reads), frozenset(writes)
            )
        return found

    def local_buffers(self) -> List[Buffer]:
        """All non-global buffers allocated in the body, in pre-order."""
        return list(access_table(self).allocations)

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
