"""Static analyses over the IR used by the scheduler and the AOC model.

Includes constant evaluation of integer expressions under variable
bindings, free-variable collection, and the affine form of an index
(:class:`AffineForm`) — the machinery AOC's model uses to decide whether
accesses can be coalesced (compile-time-known stride 1) or not (symbolic
strides, thesis §5.3).

:func:`access_table` is the one walk over a kernel body; every question
about what the body touches reads it instead of re-walking the statement
tree.  It records loads and stores (with enclosing loops, guards and
accumulation facts), channel reads and writes (likewise placed), local
allocations, the variables referenced and the loop nest with each
statement's flops.  :class:`~repro.ir.Kernel` builds it at construction
to validate itself and answers ``channels()``/``local_buffers()`` from
it; the bounds checker, the race detector, the RC channel counts and
the AOC model (its cost evaluators and advisor) read the same table.

Each site decomposes its index once, on first use, into an
:class:`AffineForm` over its enclosing loop variables: unmerged
monomials ``scale * var * factors`` (the factors loop-free expressions
over the symbolic arguments) plus an opaque remainder for what is not
affine in the loop variables (``//``, ``%``, ``Min``/``Max`` clamps,
``Select``, ``Cast``, products of loop variables).  Strides and ranges
are sums over the monomials, evaluated in closed form under each
binding set instead of re-walking the tree: the site's
:attr:`AccessSite.strides`, the bounds checker's ranges, the race
detector's unrolled-store strides and the RP reuse distances
(:func:`reuse_distance`) all read it.  :func:`stride_of` and
:func:`dependence_distance` decompose an expression that is not a
site's (one call, one form).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple, Union

from repro.counters import count
from repro.ir import expr as _e
from repro.ir import stmt as _s
from repro.ir.buffer import Buffer, Channel

Bindings = Dict[_e.Var, int]


def fully_unrolled(loop: _s.For) -> bool:
    """True for ``#pragma unroll`` without a factor: no serial remainder."""
    return loop.kind is _s.ForKind.UNROLLED and loop.unroll_factor is None


@dataclass(frozen=True, eq=False)
class AccessSite:
    """One static ``Load`` or ``Store`` of a buffer in a kernel body."""

    buffer: Buffer
    is_store: bool
    index: _e.Expr
    #: the stored expression (None for a load)
    value: Optional[_e.Expr]
    #: enclosing ``For`` statements, outermost first; sites in one loop
    #: body share one tuple
    loops: Tuple[_s.For, ...]
    #: an ``IfThenElse`` arm encloses the site, so it may not execute
    guarded: bool
    #: a store whose value loads its own address back (``acc[i] = acc[i]
    #: + ...``): a read-modify-write, not a plain write
    accumulates: bool = False

    @cached_property
    def unrolled(self) -> Tuple[Tuple[_e.Var, Optional[int]], ...]:
        """Enclosing unrolled loops as ``(var, spatial width)``, outermost
        first: a partial unroll's factor, a full unroll's static extent
        (None when the bound is symbolic)."""
        return tuple(
            (f.loop_var, f.unroll_factor or f.static_extent)
            for f in self.loops if f.kind is _s.ForKind.UNROLLED
        )

    @cached_property
    def serial(self) -> Tuple[Tuple[_e.Var, _e.Expr], ...]:
        """Enclosing loops with a serial part as ``(var, extent)``,
        outermost first (a partial unroll's remainder is serial)."""
        return tuple(
            (f.loop_var, f.extent) for f in self.loops if not fully_unrolled(f)
        )

    @cached_property
    def form(self) -> "AffineForm":
        """The index's affine form over the enclosing loop variables,
        decomposed once, on first use."""
        return affine_form(self.index, {f.loop_var for f in self.loops})

    @cached_property
    def strides(self) -> Dict[_e.Var, Optional[int]]:
        """The index's constant stride along each enclosing loop variable,
        without bindings (None where it is symbolic or not affine)."""
        loop_vars = [f.loop_var for f in self.loops]
        return dict(zip(loop_vars, self.form.strides(loop_vars)))


@dataclass(frozen=True, eq=False)
class ChannelSite:
    """One static channel read or write in a kernel body."""

    channel: Channel
    is_write: bool
    #: enclosing ``For`` statements, outermost first
    loops: Tuple[_s.For, ...]
    #: an ``IfThenElse`` arm encloses the site, so it may not execute
    guarded: bool


class AccessTable:
    """Every buffer and channel access of one statement tree, from one walk.

    ``sites`` lists loads and stores in program order: within a store,
    the loads of its value, then of its index, then the store itself; a
    load precedes the loads of its own index.  ``channel_sites`` lists
    channel reads and writes in the same order (a write follows the
    reads of its value).  ``loops`` lists every ``For`` and
    ``allocations`` every ``Allocate``'d buffer, both in pre-order;
    ``vars`` holds every ``Var`` referenced in an expression, and
    ``kinds`` counts the body's nodes by IR class (the AOC model reads
    its channel and ``Select``/``Mod`` counts there).

    ``nest`` is the statement tree in post-order for a stack fold:
    ``("leaf", flops of its value)`` per ``Store``/``ChannelWrite``/
    ``Evaluate``, ``("loop", for_stmt)`` over its body's entry, and
    ``("seq", n)``/``("if", n)`` over the last ``n`` entries;
    ``Allocate`` and ``AttrStmt`` add none.
    """

    def __init__(self, body: _s.Stmt) -> None:
        self.sites: List[AccessSite] = []
        self.channel_sites: List[ChannelSite] = []
        self.loops: List[_s.For] = []
        self.allocations: List[Buffer] = []
        self.vars: Set[_e.Var] = set()
        self.kinds: Counter = Counter()
        self.nest: List[Tuple[str, object]] = []
        #: flop nodes walked so far; a leaf takes its value's share
        self._flop_count = 0
        count("access_tables")
        self._stmt(body, (), False)

    def _stmt(self, s: _s.Stmt, loops: Tuple[_s.For, ...], guarded: bool) -> None:
        self.kinds[type(s)] += 1
        if isinstance(s, _s.For):
            self.loops.append(s)
            self._expr(s.extent, loops, guarded)
            self._stmt(s.body, loops + (s,), guarded)
            self.nest.append(("loop", s))
        elif isinstance(s, _s.IfThenElse):
            self._expr(s.cond, loops, guarded)
            for arm in s.children():
                self._stmt(arm, loops, True)
            self.nest.append(("if", 1 + (s.else_body is not None)))
        elif isinstance(s, (_s.Store, _s.ChannelWrite, _s.Evaluate)):
            first = len(self.sites)
            before = self._flop_count
            self._expr(s.value, loops, guarded)
            self.nest.append(("leaf", self._flop_count - before))
            if isinstance(s, _s.Store):
                reads_back = any(
                    r.buffer is s.buffer and _e.structural_equal(r.index, s.index)
                    for r in self.sites[first:]
                )
                self._expr(s.index, loops, guarded)
                self.sites.append(AccessSite(
                    s.buffer, True, s.index, s.value, loops, guarded, reads_back,
                ))
            elif isinstance(s, _s.ChannelWrite):
                self.channel_sites.append(
                    ChannelSite(s.channel, True, loops, guarded)
                )
        elif isinstance(s, _s.Allocate):
            self.allocations.append(s.buffer)
            self._stmt(s.body, loops, guarded)
        else:
            for c in s.children():
                self._stmt(c, loops, guarded)
            if isinstance(s, _s.SeqStmt):
                self.nest.append(("seq", len(s.stmts)))

    def _expr(self, e: _e.Expr, loops: Tuple[_s.For, ...], guarded: bool) -> None:
        self.kinds[type(e)] += 1
        if isinstance(e, _e.Var):
            self.vars.add(e)
        elif isinstance(e, _e.Load):
            self.sites.append(
                AccessSite(e.buffer, False, e.index, None, loops, guarded)
            )
        elif isinstance(e, _e.ChannelRead):
            self.channel_sites.append(
                ChannelSite(e.channel, False, loops, guarded)
            )
        if _is_flop(e):
            self._flop_count += 1
        for c in e.children():
            self._expr(c, loops, guarded)


def access_table(kernel) -> AccessTable:
    """The kernel's access table, walked once per kernel object.

    A lowered kernel is never mutated (the lower cache shares one across
    builds), so the table is memoized on the kernel itself: built at
    construction, and rebuilt once on first use after unpickling.
    """
    table = kernel.derived.get(AccessTable)
    if table is None:
        table = kernel.derived[AccessTable] = AccessTable(kernel.body)
    return table


def eval_int(e: _e.Expr, bindings: Optional[Bindings] = None) -> Optional[int]:
    """Evaluate an int32 expression to a constant; None if symbolic.

    ``bindings`` maps symbolic vars (shape arguments) to concrete values;
    unbound vars make the result None.
    """
    bindings = bindings or {}
    if isinstance(e, _e.IntImm):
        return e.value
    if isinstance(e, _e.Var):
        return bindings.get(e)
    if isinstance(e, _e._BinaryOp):
        a = eval_int(e.a, bindings)
        b = eval_int(e.b, bindings)
        if a is None or b is None:
            return None
        if isinstance(e, _e.Add):
            return a + b
        if isinstance(e, _e.Sub):
            return a - b
        if isinstance(e, _e.Mul):
            return a * b
        if isinstance(e, _e.FloorDiv):
            # a zero divisor is not a constant-foldable expression, it is
            # a malformed one; report "not evaluable" instead of raising
            return None if b == 0 else a // b
        if isinstance(e, _e.Mod):
            return None if b == 0 else a % b
        if isinstance(e, _e.Min):
            return min(a, b)
        if isinstance(e, _e.Max):
            return max(a, b)
    return None


def free_vars(e: _e.Expr) -> Set[_e.Var]:
    """Collect every Var referenced in an expression."""
    if isinstance(e, _e.Var):
        return {e}
    return set().union(*map(free_vars, e.children()))


def stmt_free_vars(s: _s.Stmt) -> Set[_e.Var]:
    """Collect every Var referenced anywhere in a statement tree."""
    exprs: Tuple[_e.Expr, ...] = ()
    if isinstance(s, _s.Store):
        exprs = (s.index, s.value)
    elif isinstance(s, (_s.Evaluate, _s.ChannelWrite)):
        exprs = (s.value,)
    elif isinstance(s, _s.For):
        exprs = (s.extent,)
    elif isinstance(s, _s.IfThenElse):
        exprs = (s.cond,)
    return set().union(*map(free_vars, exprs), *map(stmt_free_vars, s.children()))


#: one monomial of an affine form: ``scale * var * factors``, ``var`` None
#: for a loop-free term and each factor a loop-free expression
Term = Tuple[int, Optional[_e.Var], Tuple[_e.Expr, ...]]
#: one term of the remainder: ``scale * factors * expr``
Rest = Tuple[int, Tuple[_e.Expr, ...], _e.Expr]


class AffineForm(NamedTuple):
    """An integer index as a sum over its loop variables, from one walk.

    ``terms`` are the index's monomials in tree order, unmerged: ``i*W -
    i`` keeps both of ``i``'s, so a range summed over them is the one
    interval arithmetic computes over the tree.  ``rest`` holds what is
    not affine in the loop variables (``//``, ``%``, ``Min``/``Max``,
    ``Select``, ``Cast``, a product of loop variables, a load), each
    term scaled like a monomial; ``opaque`` is the loop variables it
    reads.  A loop-free subexpression, however built, is one factor.
    """

    terms: Tuple[Term, ...]
    rest: Tuple[Rest, ...]
    opaque: FrozenSet[_e.Var]

    def strides(
        self, loop_vars, bindings: Optional[Bindings] = None
    ) -> List[Optional[int]]:
        """The index's stride along each of ``loop_vars`` under
        ``bindings``: the sum of its monomials' products, 0 when it
        has none; None when the variable is in the remainder or a
        factor does not evaluate."""
        acc: Dict[_e.Var, Optional[int]] = dict.fromkeys(loop_vars, 0)
        for scale, v, factors in self.terms:
            if acc.get(v) is not None:
                k = _product(scale, factors, bindings or {})
                acc[v] = None if k is None else acc[v] + k
        for v in self.opaque:
            if v in acc:
                acc[v] = None
        return [acc[v] for v in loop_vars]

    def reads(self, symbols: Set[_e.Var]) -> bool:
        """Whether a loop-free factor or the remainder reads one of
        ``symbols``: the index reads it, unless it is a monomial's loop
        variable."""
        exprs = [f for _, _, factors in self.terms for f in factors]
        for _, factors, e in self.rest:
            exprs += factors
            exprs.append(e)
        return any(
            e in symbols if type(e) is _e.Var
            else not symbols.isdisjoint(free_vars(e))
            for e in exprs
        )


def _product(scale: int, factors: Tuple[_e.Expr, ...],
             bindings: Bindings) -> Optional[int]:
    for f in factors:
        v = bindings.get(f) if type(f) is _e.Var else eval_int(f, bindings)
        if v is None:
            return None
        scale *= v
    return scale


def affine_form(index: _e.Expr, loop_vars) -> AffineForm:
    """Decompose ``index`` over ``loop_vars`` (a container of ``Var``) in
    one walk; every other variable is a loop-free symbol.  Counted as
    ``affine_forms``, one per decomposition."""
    count("affine_forms")
    split = _split(index, loop_vars)
    if split is None:
        return AffineForm((_loop_free(index),), (), frozenset())
    terms, rest = split
    opaque: Set[_e.Var] = set()
    for _, _, e in rest:
        opaque.update(v for v in free_vars(e) if v in loop_vars)
    return AffineForm(tuple(terms), tuple(rest), frozenset(opaque))


def _loop_free(e: _e.Expr) -> Term:
    return (e.value, None, ()) if type(e) is _e.IntImm else (1, None, (e,))


def _split(e: _e.Expr, loop_vars) -> Optional[Tuple[List[Term], List[Rest]]]:
    """``(terms, rest)`` of an expression that reads a loop variable;
    None for a loop-free one."""
    t = type(e)
    if t is _e.Var:
        return ([(1, e, ())], []) if e in loop_vars else None
    if t is _e.IntImm:
        return None
    if t is _e.Add or t is _e.Sub or t is _e.Mul:
        a, b = _split(e.a, loop_vars), _split(e.b, loop_vars)
        if a is None and b is None:
            return None
        if t is _e.Mul:
            if a is None:
                return _scaled(b, e.a)
            if b is None:
                return _scaled(a, e.b)
            return [], [(1, (), e)]
        terms, rest = a if a is not None else ([_loop_free(e.a)], [])
        tb, rb = b if b is not None else ([_loop_free(e.b)], [])
        if t is _e.Sub:
            tb = [(-s, v, f) for s, v, f in tb]
            rb = [(-s, f, x) for s, f, x in rb]
        return terms + tb, rest + rb
    if any(_split(c, loop_vars) is not None for c in e.children()):
        return [], [(1, (), e)]
    return None


def _scaled(split: Tuple[List[Term], List[Rest]], factor: _e.Expr):
    terms, rest = split
    if type(factor) is _e.IntImm:
        c = factor.value
        return ([(s * c, v, f) for s, v, f in terms],
                [(s * c, f, x) for s, f, x in rest])
    return ([(s, v, f + (factor,)) for s, v, f in terms],
            [(s, f + (factor,), x) for s, f, x in rest])


def stride_of(
    index: _e.Expr, var: _e.Var, bindings: Optional[Bindings] = None
) -> Optional[int]:
    """Coefficient of ``var`` in an affine index expression.

    Returns the constant stride with which ``index`` advances per unit of
    ``var``, or None when the expression is not affine in ``var`` or the
    stride is not a compile-time constant (symbolic strides).  A var that
    does not appear at all has stride 0.  ``bindings`` lets symbolic
    coefficients (shape/stride arguments of folded kernels) fold to
    constants.  An access site reads its :attr:`AccessSite.form`
    instead of calling this.
    """
    return affine_form(index, (var,)).strides((var,), bindings)[0]


def dependence_distance(
    store_index: _e.Expr,
    load_index: _e.Expr,
    var: _e.Var,
    bindings: Optional[Bindings] = None,
) -> Optional[int]:
    """Loop-carried dependence distance between a store and a load, in
    iterations of ``var``.

    The store writes ``f(var)`` and the load reads ``g(var)``; the
    distance is the ``d`` with ``f(i) == g(i + d)`` — the number of
    iterations after which a written value is read back.  Both indices
    must be affine in ``var`` with the *same* stride (otherwise the pair
    aliases at most once and carries no recurrence).  A zero-stride pair
    with equal offsets is the accumulation pattern: distance 1, the
    recurrence AOC pays II for (thesis Section 5.1.1).  Returns None
    when there is no provable loop-carried dependence.
    """
    sf = stride_of(store_index, var, bindings)
    sg = stride_of(load_index, var, bindings)
    if sf is None or sg is None or sf != sg:
        return None
    # equal strides make f - g constant in var, so evaluate it at var=0
    at_zero = dict(bindings or {})
    at_zero[var] = 0
    delta = eval_int(_e.Sub(store_index, load_index), at_zero)
    if sf == 0:
        return 1 if delta == 0 else None
    if delta is None or delta % sf != 0:
        return None
    d = delta // sf
    return d if d > 0 else None


def reuse_distance(
    index: Union[_e.Expr, AffineForm],
    loops,
    bindings: Optional[Bindings] = None,
) -> Optional[int]:
    """Iteration distance between successive touches of one address.

    ``index`` is the index expression or its :class:`AffineForm` over
    (at least) the loop variables; ``loops`` is the enclosing serial
    loop nest as ``(var, extent)`` pairs, outermost first (the shape of
    ``AccessSite.serial``).  The innermost loop whose variable does not
    advance the address carries the temporal reuse; the distance is the
    product of the trip counts of the loops nested *inside* it that do
    advance it — i.e. how many distinct addresses stream past before the
    same one returns.  This is the working-set size a cache must hold to
    convert the re-reads into hits.  Returns None when no enclosing loop
    carries reuse, or when a stride or extent cannot be resolved under
    ``bindings``.
    """
    loop_vars = [var for var, _ in loops]
    if not isinstance(index, AffineForm):
        index = affine_form(index, loop_vars)
    strides = index.strides(loop_vars, bindings)
    if None in strides or 0 not in strides:
        return None
    carrier = len(strides) - 1 - strides[::-1].index(0)
    distance = 1
    for (_var, extent), s in zip(loops[carrier + 1:], strides[carrier + 1:]):
        if s == 0:
            continue
        e = extent if isinstance(extent, _e.Expr) else _e.IntImm(extent)
        n = eval_int(e, bindings)
        if n is None:
            return None
        distance *= max(1, n)
    return distance


#: node types that can count as a flop (arithmetic only when float)
_FLOP_TYPES = frozenset({_e.Add, _e.Sub, _e.Mul, _e.Div, _e.Min, _e.Max, _e.Call})


def _is_flop(e: _e.Expr) -> bool:
    """A float add/sub/mul/div/min/max node, or any call (exp, ...)."""
    t = type(e)
    return t in _FLOP_TYPES and (t is _e.Call or e.dtype == _e.FLOAT32)


def count_flops_expr(e: _e.Expr) -> int:
    """Count floating-point add/sub/mul/div/min/max/exp ops in an expression."""
    return int(_is_flop(e)) + sum(count_flops_expr(c) for c in e.children())
