"""IR interpreter: reference semantics and alias-profiling substrate.

Memory model
------------
Memory is **word-addressed**: one address unit holds one 8-byte scalar.
Pointer arithmetic in the IR is therefore in word units (the frontend
scales array indices and field offsets accordingly).  Address space
layout (all in words):

* globals   — from ``GLOBAL_BASE`` upward;
* stack     — frames from ``STACK_BASE`` upward (grows up, popped LIFO);
* heap      — allocations from ``HEAP_BASE`` upward, never freed.

All storage is zero-initialised (MiniC defines deterministic zero init
so that every compilation mode observes identical values).

Decoded execution
-----------------
An :class:`Interpreter` lowers each :class:`Function` once, on its first
call, into closures: one per expression and one per statement.  Each
basic block becomes a tuple of statement closures plus a decoded
terminator, and one loop runs them.  Decoding settles what a tree walker
would look up on every visit:

* **variables** — a temporary becomes an index into the frame's register
  file (a zero-filled list whose slot 0 holds the frame's base address),
  a local or parameter with a memory home becomes ``base + offset``, and
  a global becomes a constant address;
* **operators** — each operator kind and result type has its own closure;
* **hooks** — only a traced interpreter compiles :class:`MemoryTracer`
  calls into its load and store closures (and keeps the address owner
  map they report), and only a host-profiled one times its statement
  closures, so an unhooked run makes no hook test per statement.

Decoded functions are cached on the interpreter, not on the
:class:`Function`: passes rewrite functions and blocks in place after
the alias-profiling run, and a cache on the IR would serve stale code.
Steps are charged one statement at a time (a callee reads the counter),
so the step budget always trips at the same statement.  Every runtime
error is raised when the offending code runs, never while decoding, with
the message and type a statement-by-statement reading of the IR implies.

Translated tier
---------------
Unless a host profiler is attached, the interpreter also counts taken
back edges per loop header (in :meth:`Interpreter._run`) and calls per
function (in :meth:`Interpreter._call`).  When a count reaches
:data:`THRESHOLD`, the header's natural loop, or a function of at most
:data:`MAX_FUNCTION` statements as a whole, is translated into one
generated Python function (:mod:`repro.ir.translate`, imported on the
first tier-up) and entered from then on.  The translation gives the same
results, statistics, errors, memory and tracer events as the closures;
the closures stay the cold path and the only path of a host-profiled
interpreter.

Speculation annotations (:class:`SpecFlag`) do not change IR semantics:
a check statement re-executes its load, which is exactly the reload the
hardware would perform on an ALAT miss.  The interpreter is thus the
oracle for differential testing against the machine simulator.

Profiling
---------
A :class:`MemoryTracer` passed to the interpreter receives one event per
dynamic indirect load/store with the *owner* of the accessed address —
a global/local variable or a heap allocation site.  The speculation
package builds the alias profile (paper section 3.1) from these events.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Union

from repro.errors import InterpError, InterpLimitExceeded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> ir)
    from repro.obs.telemetry import HostProfiler
from repro.ir.cfg import BasicBlock
from repro.ir.expr import (
    AddrOf,
    BinOp,
    BinOpKind,
    ConstFloat,
    ConstInt,
    Expr,
    Load,
    UnOp,
    UnOpKind,
    VarRead,
)
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    EvalStmt,
    InvalidateCheck,
    Jump,
    Print,
    Return,
    SpecFlag,
    Stmt,
    Store,
)
from repro.ir.symbols import Variable
from repro.ir.types import FloatType

#: taken back edges to a loop header, or calls of a function, before it
#: is translated.  Translating costs about 120 us per statement on a
#: 2-vCPU x86_64 VM (two thirds of it in ``compile()``), and a
#: translated statement runs about 0.6 us faster, so a statement breaks
#: even after about 200 executions.  Generated test programs stay far
#: below (at most 76); the paper kernels' hot loops run 300 to 27,200
#: times (DESIGN section 7, item 12).
THRESHOLD = 256

#: largest function (in statements) translated whole when it gets hot:
#: a function is translated whole only if most of it runs per call
MAX_FUNCTION = 32

GLOBAL_BASE = 0x1000
STACK_BASE = 0x10_0000
HEAP_BASE = 0x100_0000

Value = Union[int, float]

_INT_MASK = (1 << 64) - 1
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1


def wrap_int(v: int) -> int:
    """Wrap to signed 64-bit (two's complement)."""
    v &= _INT_MASK
    return v - (1 << 64) if v >= (1 << 63) else v


def int_div(a: int, b: int) -> int:
    """C-style integer division (truncates toward zero)."""
    if 0 <= a <= _INT_MAX and b > 0:
        return a // b  # C and Python quotients agree here
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return wrap_int(-q if (a < 0) != (b < 0) else q)


def int_mod(a: int, b: int) -> int:
    """C-style remainder: ``a == int_div(a,b)*b + int_mod(a,b)``."""
    if 0 <= a <= _INT_MAX and b > 0:
        return a % b  # C and Python remainders agree here
    if b == 0:
        raise InterpError("integer modulo by zero")
    r = abs(a) % abs(b)  # the remainder takes the dividend's sign
    return wrap_int(-r if a < 0 else r)


def float_to_int(v: Value) -> int:
    """C-style ``(int)``: truncates toward zero, wrapped; inf and nan
    have no integer value."""
    if not -inf < v < inf:
        raise InterpError(f"float-to-int conversion of {v}")
    return wrap_int(int(v))


def _as_int(v: Value) -> int:
    """``wrap_int(int(v))``: the value a non-float variable holds."""
    if v.__class__ is int and _INT_MIN <= v <= _INT_MAX:
        return v  # type: ignore[return-value]
    return wrap_int(int(v))


def format_value(value: Union[int, float]) -> str:
    """Canonical print formatting shared by interpreter and simulator."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def layout_globals(module: Module) -> tuple[dict[int, int], dict[int, Value]]:
    """Assign every global a word address (declaration order, starting
    at ``GLOBAL_BASE``) and build the initial data image.

    The interpreter and the code generator both lay globals out with
    this, so their data images are interchangeable.
    """
    addrs: dict[int, int] = {}
    data: dict[int, Value] = {}
    addr = GLOBAL_BASE
    for g in module.globals:
        addrs[g.id] = addr
        init = module.global_inits.get(g.id)
        if init is not None:
            if isinstance(init, list):
                for i, v in enumerate(init):
                    data[addr + i] = v
            else:
                data[addr] = init
        addr += max(1, g.type.size_words())
    return addrs, data


#: Owner tags attributed to addresses: ("var", variable_id, variable) for
#: globals/locals/params, ("heap", alloc_stmt_sid) for heap objects.
OwnerTag = tuple


class MemoryTracer(Protocol):
    """Observer of dynamic indirect memory accesses (for profiling)."""

    def on_indirect_load(self, load: Load, stmt: Stmt, addr: int, owner: Optional[OwnerTag]) -> None: ...

    def on_indirect_store(self, stmt: Store, addr: int, owner: Optional[OwnerTag]) -> None: ...


class InterpStats:
    """Dynamic operation counts."""

    def __init__(self) -> None:
        self.steps = 0
        self.direct_loads = 0
        self.indirect_loads = 0
        self.stores = 0
        self.calls = 0

    def __repr__(self) -> str:
        return (
            f"InterpStats(steps={self.steps}, direct_loads={self.direct_loads}, "
            f"indirect_loads={self.indirect_loads}, stores={self.stores}, "
            f"calls={self.calls})"
        )


class InterpResult:
    """Outcome of a program run."""

    def __init__(self, exit_value: int, output: list[str], stats: InterpStats) -> None:
        self.exit_value = exit_value
        self.output = output
        self.stats = stats

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)

    def __repr__(self) -> str:
        return f"InterpResult(exit={self.exit_value}, {len(self.output)} lines)"


# -- decoded form ---------------------------------------------------------

#: A decoded expression or statement: called with the frame's register
#: file (slot 0 = frame base address, then one slot per temporary).
Op = Callable[[list], Any]

# terminator kinds of a decoded block
_JUMP, _BRANCH, _RETURN, _FALL, _LOOP = range(5)


class _Block:
    """A decoded basic block: statement closures, then the terminator.

    ``kind`` selects the terminator: ``_JUMP`` goes to ``then``;
    ``_BRANCH`` calls ``value`` and goes to ``then`` or ``orelse``;
    ``_RETURN`` returns ``value(r)``; ``_FALL`` (no terminator) raises
    ``value()``.  ``_LOOP`` is a jump or branch with an edge into a loop
    header (``value`` is ``_true`` and ``orelse`` is ``then`` for a
    jump); ``back`` holds the headers it reaches by a back edge.

    ``source`` keeps the statements and terminator the block was decoded
    from, for the translator.  At a loop header, ``heat`` counts taken
    back edges and ``region`` is the header's translation once made.
    """

    __slots__ = ("body", "kind", "value", "then", "orelse", "source",
                 "back", "heat", "region")

    def __init__(self) -> None:
        self.body: tuple[Op, ...] = ()
        self.kind = _FALL
        self.value: Any = None
        self.then: Optional[_Block] = None
        self.orelse: Optional[_Block] = None
        self.source: tuple[tuple[Stmt, ...], Optional[Stmt]] = ((), None)
        self.back: tuple[_Block, ...] = ()
        self.heat = 0
        self.region: Optional[Callable] = None


def _successors(blk: _Block) -> tuple[_Block, ...]:
    kind = blk.kind
    if kind == _JUMP:
        return (blk.then,)  # type: ignore[return-value]
    if kind == _BRANCH or kind == _LOOP:
        return (blk.then, blk.orelse)  # type: ignore[return-value]
    return ()


class _Code:
    """A decoded function.

    ``calls`` counts its calls, ``region`` is its translation as a whole
    once made, and ``decoder`` is what the translator reads its blocks,
    slots and frame offsets from."""

    __slots__ = ("entry", "size", "nregs", "params", "owner", "decoder",
                 "statements", "calls", "region")

    def __init__(self, entry: _Block, size: int, nregs: int,
                 params: tuple, owner: Optional[list],
                 decoder: "_Decoder", statements: int) -> None:
        self.entry = entry
        #: words of memory-home locals and parameters in one frame
        self.size = size
        #: register-file length (slot 0 is the frame base)
        self.nregs = nregs
        #: one ``write(r, value)`` per parameter
        self.params = params
        #: owner tag per frame word (traced interpreters only)
        self.owner = owner
        self.decoder = decoder
        #: statements and terminators decoded
        self.statements = statements
        self.calls = 0
        self.region: Optional[Callable] = None


def _fault(error: Callable[[], Exception]) -> Op:
    """An operation that raises ``error()`` when it runs."""

    def fault(r):
        raise error()

    return fault


def _nop(r) -> None:
    return None


def _true(r) -> int:
    return 1


# Operator closures.  Arithmetic on a non-float result type wraps an int
# result to 64 bits (a float result passes through); comparisons and
# logicals give 0 or 1; division and modulo are C-style.


def _add(a: Op, b: Op, wrap: bool) -> Op:
    if not wrap:
        return lambda r: a(r) + b(r)

    def add(r):
        v = a(r) + b(r)
        if _INT_MIN <= v <= _INT_MAX or v.__class__ is not int:
            return v
        return wrap_int(v)

    return add


def _sub(a: Op, b: Op, wrap: bool) -> Op:
    if not wrap:
        return lambda r: a(r) - b(r)

    def sub(r):
        v = a(r) - b(r)
        if _INT_MIN <= v <= _INT_MAX or v.__class__ is not int:
            return v
        return wrap_int(v)

    return sub


def _mul(a: Op, b: Op, wrap: bool) -> Op:
    if not wrap:
        return lambda r: a(r) * b(r)

    def mul(r):
        v = a(r) * b(r)
        if _INT_MIN <= v <= _INT_MAX or v.__class__ is not int:
            return v
        return wrap_int(v)

    return mul


def _div(a: Op, b: Op, wrap: bool) -> Op:
    def div(r):
        x = a(r)
        y = b(r)
        if isinstance(x, float) or isinstance(y, float):
            if y == 0:
                raise InterpError("float division by zero")
            return x / y
        return int_div(x, y)

    return div


def _mod(a: Op, b: Op, wrap: bool) -> Op:
    def mod(r):
        x = a(r)
        y = b(r)
        if isinstance(x, float) or isinstance(y, float):
            raise InterpError("modulo on float operands")
        return int_mod(x, y)

    return mod


_BINOPS: dict[BinOpKind, Callable[[Op, Op, bool], Op]] = {
    BinOpKind.ADD: _add,
    BinOpKind.SUB: _sub,
    BinOpKind.MUL: _mul,
    BinOpKind.DIV: _div,
    BinOpKind.MOD: _mod,
    BinOpKind.AND: lambda a, b, w: lambda r: 1 if (a(r) and b(r)) else 0,
    BinOpKind.OR: lambda a, b, w: lambda r: 1 if (a(r) or b(r)) else 0,
    BinOpKind.EQ: lambda a, b, w: lambda r: 1 if a(r) == b(r) else 0,
    BinOpKind.NE: lambda a, b, w: lambda r: 1 if a(r) != b(r) else 0,
    BinOpKind.LT: lambda a, b, w: lambda r: 1 if a(r) < b(r) else 0,
    BinOpKind.LE: lambda a, b, w: lambda r: 1 if a(r) <= b(r) else 0,
    BinOpKind.GT: lambda a, b, w: lambda r: 1 if a(r) > b(r) else 0,
    BinOpKind.GE: lambda a, b, w: lambda r: 1 if a(r) >= b(r) else 0,
}


def _neg(a: Op) -> Op:
    def neg(r):
        v = a(r)
        return -v if isinstance(v, float) else wrap_int(-v)

    return neg


_UNOPS: dict[UnOpKind, Callable[[Op], Op]] = {
    UnOpKind.NEG: _neg,
    UnOpKind.NOT: lambda a: lambda r: 0 if a(r) else 1,
    UnOpKind.I2F: lambda a: lambda r: float(a(r)),
    UnOpKind.F2I: lambda a: lambda r: float_to_int(a(r)),
}


class _Decoder:
    """Lowers one function into closures for one interpreter."""

    def __init__(self, interp: "Interpreter", fn: Function) -> None:
        self.interp = interp
        self.fn = fn
        self.mem = interp.mem
        self.stats = interp.stats
        self.tracer = interp.tracer
        self.host = interp.host
        #: var id -> word offset of its memory home in the frame
        self.offsets: dict[int, int] = {}
        #: owner tag per frame word, kept only for a tracer
        self.owner: Optional[list[OwnerTag]] = (
            [] if interp.tracer is not None else None
        )
        size = 0
        for var in fn.all_variables():
            if var.has_memory_home:
                words = max(1, var.type.size_words())
                self.offsets[var.id] = size
                if self.owner is not None:
                    self.owner.extend([("var", var.id, var)] * words)
                size += words
        self.size = size
        #: temporary var id -> register-file slot
        self.slots: dict[int, int] = {}
        self.blocks: dict[BasicBlock, _Block] = {}
        self.pending: list[tuple[BasicBlock, _Block]] = []

    def function(self) -> _Code:
        fn = self.fn
        if fn.blocks:
            entry = self.block(fn.blocks[0])
        else:
            entry = _Block()
            entry.value = lambda: fn.entry  # raises: the function has no blocks
        while self.pending:
            self.fill(*self.pending.pop())
        if self.host is None:  # a host-profiled interpreter never tiers up
            self.mark_loops(entry)
        params = tuple(self.writer(p) for p in fn.params)
        statements = sum(
            len(body) + (term is not None)
            for body, term in (blk.source for blk in self.blocks.values())
        )
        return _Code(entry, self.size, len(self.slots) + 1, params,
                     self.owner, self, statements)

    def mark_loops(self, entry: _Block) -> None:
        """Find the back edges (edges to a block on the depth-first
        stack) and make every terminator with an edge into a loop header
        a ``_LOOP``, so the run loop counts the back edges and enters
        translated loops."""
        on_stack = {entry}
        seen = {entry}
        headers: set[_Block] = set()
        stack = [(entry, iter(_successors(entry)))]
        while stack:
            blk, succs = stack[-1]
            for succ in succs:
                if succ in on_stack:
                    if succ not in blk.back:
                        blk.back += (succ,)
                    headers.add(succ)
                elif succ not in seen:
                    seen.add(succ)
                    on_stack.add(succ)
                    stack.append((succ, iter(_successors(succ))))
                    break
            else:
                on_stack.discard(blk)
                stack.pop()
        if not headers:
            return
        for blk in self.blocks.values():
            if blk.kind == _JUMP and blk.then in headers:
                blk.kind, blk.value, blk.orelse = _LOOP, _true, blk.then
            elif blk.kind == _BRANCH and (
                blk.then in headers or blk.orelse in headers
            ):
                blk.kind = _LOOP

    # -- blocks and statements ------------------------------------------

    def block(self, b: BasicBlock) -> _Block:
        """The decoded form of ``b``, filled in later (blocks form cycles)."""
        blk = self.blocks.get(b)
        if blk is None:
            blk = self.blocks[b] = _Block()
            self.pending.append((b, blk))
        return blk

    def fill(self, b: BasicBlock, blk: _Block) -> None:
        body = []
        term: Optional[Stmt] = None
        for stmt in b.stmts:
            if isinstance(stmt, (Return, Jump, CondBranch)):
                term = stmt
                break
            op = self.stmt(stmt, stmt)
            if self.host is not None:
                op = self.timed(op, stmt)
            body.append(op)
        blk.body = tuple(body)
        blk.source = (tuple(b.stmts[:len(body)]), term)
        if term is None:
            label, name = b.label, self.fn.name
            blk.value = lambda: InterpError(f"fell off end of block {label} in {name}")
        elif isinstance(term, Return):
            blk.kind = _RETURN
            blk.value = self.expr(term.expr, term) if term.expr is not None else _nop
        elif isinstance(term, Jump):
            blk.kind = _JUMP
            blk.then = self.block(term.target)
            if self.host is not None:
                # a profiled jump is a branch on a timed constant
                blk.kind, blk.value, blk.orelse = _BRANCH, _true, blk.then
        else:
            blk.kind = _BRANCH
            blk.value = self.expr(term.cond, term)
            blk.then = self.block(term.then_block)
            blk.orelse = self.block(term.else_block)
        if self.host is not None and term is not None:
            blk.value = self.timed(blk.value, term)

    def timed(self, op: Op, stmt: Stmt) -> Op:
        """``op`` charging its host time, less the time its calls
        account for themselves, to ``interp.op.<statement class>``."""
        hp = self.host
        key = hp.op_key(stmt.__class__, "interp.op.")
        now, add, take_sub = hp.now, hp.add, hp.take_sub

        def timed_op(r):
            t0 = now()
            v = op(r)
            add(key, now() - t0 - take_sub())
            return v

        return timed_op

    def stmt(self, stmt: Stmt, ctx: Stmt) -> Op:
        """Decode one statement.  ``ctx`` is the statement a load inside
        it reports: itself, or the ``chk.a`` whose recovery it is."""
        if isinstance(stmt, Assign):
            return self.assign(stmt, ctx)
        if isinstance(stmt, Store):
            return self.store(stmt, ctx)
        if isinstance(stmt, Call):
            return self.call(stmt, ctx)
        if isinstance(stmt, Alloc):
            return self.alloc(stmt, ctx)
        if isinstance(stmt, Print):
            return self.print(stmt, ctx)
        if isinstance(stmt, EvalStmt):
            return self.expr(stmt.expr, ctx)
        if isinstance(stmt, InvalidateCheck):
            return _nop  # ALAT-only effect; no IR-level semantics
        if isinstance(stmt, ConditionalReload):
            return self.reload(stmt, ctx)
        return _fault(lambda: InterpError(f"cannot execute statement {stmt!r}"))

    def assign(self, stmt: Assign, ctx: Stmt) -> Op:
        if stmt.spec_flag.is_branching_check and stmt.recovery:
            # chk.a: the interpreter models the always-fail case — the
            # recovery reloads address and value from memory, which is
            # idempotent and therefore also correct when hardware would
            # have skipped it.
            ops = tuple(self.stmt(s, ctx) for s in stmt.recovery)

            def recover(r):
                for op in ops:
                    op(r)

            return recover
        ev = self.expr(stmt.expr, ctx)
        write = self.writer(stmt.target)
        if stmt.spec_flag in (SpecFlag.LD_SA, SpecFlag.LD_C, SpecFlag.LD_C_NC):
            # Speculative loads must not fault on paths where the
            # original never loaded: ld.sa defers exceptions, and a
            # check reached before any advanced load executed may see a
            # garbage (zero) address register.  The dummy value is dead
            # on every such path.
            dummy = 0.0 if stmt.target.type.is_float else 0

            def speculative(r):
                try:
                    v = ev(r)
                except InterpError:
                    v = dummy
                write(r, v)

            return speculative
        return lambda r: write(r, ev(r))

    def store(self, stmt: Store, ctx: Stmt) -> Op:
        ea = self.expr(stmt.addr, ctx)
        ev = self.expr(stmt.value, ctx)
        mem, stats = self.mem, self.stats
        if self.tracer is None:
            def store(r):
                a = ea(r)
                if isinstance(a, float):
                    raise InterpError(f"float used as address in {stmt}")
                if a == 0:
                    raise InterpError(f"null dereference in {stmt}")
                v = ev(r)
                if a <= 0:
                    raise InterpError(f"store to invalid address {a}")
                mem[a] = v
                stats.stores += 1
            return store
        on_store, owner = self.tracer.on_indirect_store, self.interp.owner

        def traced_store(r):
            a = ea(r)
            if isinstance(a, float):
                raise InterpError(f"float used as address in {stmt}")
            if a == 0:
                raise InterpError(f"null dereference in {stmt}")
            v = ev(r)
            if a <= 0:
                raise InterpError(f"store to invalid address {a}")
            mem[a] = v
            stats.stores += 1
            on_store(stmt, a, owner.get(a))

        return traced_store

    def call(self, stmt: Call, ctx: Stmt) -> Op:
        module = self.interp.module
        callee = module.functions.get(stmt.callee)
        if callee is None:
            return _fault(lambda: module.function(stmt.callee))  # raises IRError
        args = tuple(self.expr(a, ctx) for a in stmt.args)
        invoke = self.interp._invoke
        if stmt.result is None:
            return lambda r: invoke(callee, [a(r) for a in args])
        write = self.writer(stmt.result)

        def call(r):
            result = invoke(callee, [a(r) for a in args])
            if result is None:
                raise InterpError(f"void call used as value: {stmt}")
            write(r, result)

        return call

    def alloc(self, stmt: Alloc, ctx: Stmt) -> Op:
        count = self.expr(stmt.count, ctx)
        write = self.writer(stmt.target)
        interp = self.interp
        owner = interp.owner if self.tracer is not None else None
        tag = ("heap", stmt.sid)

        def alloc(r):
            n = int(count(r))
            if n < 0:
                raise InterpError(f"negative allocation count in {stmt}")
            words = max(1, stmt.elem_type.size_words() * n)
            base = interp._heap_top
            if owner is not None:
                owner.update(dict.fromkeys(range(base, base + words), tag))
            interp._heap_top = base + words
            write(r, base)

        return alloc

    def print(self, stmt: Print, ctx: Stmt) -> Op:
        ev = self.expr(stmt.expr, ctx)
        output, on_print = self.interp.output, self.interp.on_print
        if on_print is None:
            return lambda r: output.append(format_value(ev(r)))

        def print_(r):
            text = format_value(ev(r))
            output.append(text)
            on_print(stmt, text)

        return print_

    def reload(self, stmt: ConditionalReload, ctx: Stmt) -> Op:
        store_addr = self.expr(stmt.store_addr, ctx)
        home_addr = self.expr(stmt.home_addr, ctx)
        write, mem = self.writer(stmt.temp), self.mem

        def reload(r):
            s = store_addr(r)
            h = home_addr(r)
            if s == h:
                if isinstance(h, float):
                    raise InterpError(f"float used as address in {stmt}")
                if h == 0:
                    raise InterpError(f"null dereference in {stmt}")
                write(r, mem.get(h, 0))

        return reload

    # -- variables --------------------------------------------------------

    def slot(self, var: Variable) -> int:
        """The register-file slot of a temporary."""
        s = self.slots.get(var.id)
        if s is None:
            s = self.slots[var.id] = len(self.slots) + 1
        return s

    def home(self, var: Variable) -> tuple[Optional[int], Optional[int], Callable]:
        """``(address, offset, missing)`` of a variable with a memory home:
        a global's constant address or a frame offset.  When it has no
        home here, both are None and ``missing()`` is the error to raise
        when code naming it runs."""
        if var.is_global:
            addr = self.interp._global_addrs.get(var.id)
            return addr, None, lambda: KeyError(var.id)
        off = self.offsets.get(var.id)
        return None, off, lambda: InterpError(
            f"variable {var.name} has no address in frame"
        )

    def writer(self, var: Variable) -> Callable[[list, Value], None]:
        """``write(r, value)``: coerce ``value`` to ``var``'s type and
        store it in ``var``."""
        coerce = float if isinstance(var.type, FloatType) else _as_int
        mem = self.mem
        addr, off, missing = self.home(var)
        if not var.has_memory_home:
            s = self.slot(var)

            def write(r, v):
                r[s] = coerce(v)
        elif addr is not None:
            def write(r, v):
                mem[addr] = coerce(v)
        elif off is not None:
            def write(r, v):
                mem[r[0] + off] = coerce(v)
        else:
            def write(r, v):
                coerce(v)
                raise missing()
        return write

    # -- expressions ------------------------------------------------------

    def expr(self, e: Expr, ctx: Stmt) -> Op:
        if isinstance(e, (ConstInt, ConstFloat)):
            value = e.value
            return lambda r: value
        if isinstance(e, VarRead):
            return self.var_read(e.var)
        if isinstance(e, AddrOf):
            addr, off, missing = self.home(e.var)
            if addr is not None:
                return lambda r: addr
            if off is not None:
                return lambda r: r[0] + off
            return _fault(missing)
        if isinstance(e, Load):
            return self.load(e, ctx)
        if isinstance(e, BinOp):
            a = self.expr(e.left, ctx)
            b = self.expr(e.right, ctx)
            return _BINOPS[e.op](a, b, not e.type.is_float)
        if isinstance(e, UnOp):
            return _UNOPS[e.op](self.expr(e.operand, ctx))
        return _fault(lambda: InterpError(f"cannot evaluate expression {e!r}"))

    def var_read(self, var: Variable) -> Op:
        if not var.has_memory_home:
            s = self.slot(var)
            return lambda r: r[s]
        mem, stats = self.mem, self.stats
        addr, off, missing = self.home(var)
        if addr is not None:
            def read(r):
                stats.direct_loads += 1
                return mem.get(addr, 0)
        elif off is not None:
            def read(r):
                stats.direct_loads += 1
                return mem.get(r[0] + off, 0)
        else:
            def read(r):
                stats.direct_loads += 1
                raise missing()
        return read

    def load(self, e: Load, ctx: Stmt) -> Op:
        ea = self.expr(e.addr, ctx)
        mem, stats = self.mem, self.stats
        if self.tracer is None:
            def load(r):
                a = ea(r)
                if isinstance(a, float):
                    raise InterpError(f"float used as address in {ctx}")
                if a == 0:
                    raise InterpError(f"null dereference in {ctx}")
                stats.indirect_loads += 1
                return mem.get(a, 0)
            return load
        on_load, owner = self.tracer.on_indirect_load, self.interp.owner

        def traced_load(r):
            a = ea(r)
            if isinstance(a, float):
                raise InterpError(f"float used as address in {ctx}")
            if a == 0:
                raise InterpError(f"null dereference in {ctx}")
            stats.indirect_loads += 1
            on_load(e, ctx, a, owner.get(a))
            return mem.get(a, 0)

        return traced_load


class Interpreter:
    """Executes a :class:`Module` starting at ``main``."""

    def __init__(
        self,
        module: Module,
        tracer: Optional[MemoryTracer] = None,
        max_steps: int = 50_000_000,
        on_print: Optional[Callable[[Print, str], None]] = None,
        host_profiler=None,
    ) -> None:
        self.module = module
        self.tracer = tracer
        self.max_steps = max_steps
        #: optional :class:`repro.obs.telemetry.HostProfiler` — buckets
        #: host wall-clock per statement class (``interp.op.Assign``, …),
        #: frame set-up (``interp.frame``) and decoding
        #: (``interp.decode``).  Purely observational.
        self.host = host_profiler
        #: observer invoked with (Print stmt, formatted text) per output
        #: line — translation validation uses it to attribute the first
        #: divergent print back to a source Loc.
        self.on_print = on_print
        self._global_addrs, self.mem = layout_globals(module)
        #: address -> owner tag; filled only when a tracer reads it
        self.owner: dict[int, OwnerTag] = {}
        if tracer is not None:
            for g in module.globals:
                base = self._global_addrs[g.id]
                for w in range(max(1, g.type.size_words())):
                    self.owner[base + w] = ("var", g.id, g)
        self.stats = InterpStats()
        self.output: list[str] = []
        self._stack_top = STACK_BASE
        self._heap_top = HEAP_BASE
        self._codes: dict[Function, _Code] = {}
        #: (region name, generated lines) per translation, in order
        self.translated: list[tuple[str, int]] = []
        # Decoding, frame push and pop, and the call a decoded Call
        # statement makes; a host profiler gets timed versions.
        self._decode, self._push, self._pop = (
            self._decode_function, self._push_frame, self._pop_frame
        )
        self._invoke = self._call
        if host_profiler is not None:
            hp = host_profiler
            self._decode = hp.timed(self._decode, "interp.decode", nested=False)
            self._push = hp.timed(self._push, "interp.frame", nested=False)
            self._pop = hp.timed(self._pop, "interp.frame", nested=False)
            self._invoke = _deferred(hp, self._call)

    def var_address(self, var: Variable) -> int:
        """Word address of a global variable."""
        if var.is_global:
            return self._global_addrs[var.id]
        raise InterpError(f"variable {var.name} has no address outside a frame")

    # -- running --------------------------------------------------------

    def run(self, args: Optional[list[Value]] = None) -> InterpResult:
        """Run ``main`` with the given arguments."""
        result = self._call(self.module.main, args or [])
        exit_value = int(result) if result is not None else 0
        return InterpResult(exit_value, self.output, self.stats)

    def _decode_function(self, fn: Function) -> _Code:
        code = self._codes[fn] = _Decoder(self, fn).function()
        return code

    def _call(self, fn: Function, args: list[Value]) -> Optional[Value]:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        code = self._codes.get(fn)
        if code is None:
            code = self._decode(fn)
        code.calls += 1
        if code.calls == THRESHOLD:
            self._tier_function(code)
        try:
            r = self._push(code, args)
            try:
                return self._run(code, r)
            finally:
                self._pop(code, r[0])
        except RecursionError:
            raise InterpError(
                f"call to {fn.name} overflowed the host stack"
            ) from None

    def _push_frame(self, code: _Code, args: list[Value]) -> list:
        """Push a frame: zero its memory, and return its register file
        with the parameters written."""
        base = self._stack_top
        top = base + code.size
        frame = range(base, top)
        self.mem.update(dict.fromkeys(frame, 0))  # deterministic zero init
        if code.owner is not None:
            self.owner.update(zip(frame, code.owner))
        self._stack_top = top
        self.stats.calls += 1
        r = [0] * code.nregs
        r[0] = base
        for write, value in zip(code.params, args):
            write(r, value)
        return r

    def _pop_frame(self, code: _Code, base: int) -> None:
        mem = self.mem
        frame = range(base, base + code.size)
        for addr in frame:
            mem.pop(addr, None)
        if code.owner is not None:
            for addr in frame:
                self.owner.pop(addr, None)
        self._stack_top = base

    def _tier_function(self, code: _Code) -> None:
        if self.host is None and code.statements <= MAX_FUNCTION:
            code.region = _translate(lambda t: t.function_region(self, code))

    def _tier_loop(self, code: _Code, header: _Block) -> None:
        header.region = _translate(lambda t: t.loop_region(self, code, header))

    def _run(self, code: _Code, r: list) -> Optional[Value]:
        stats = self.stats
        limit = self.max_steps
        if code.region is None:
            blk = code.entry
        else:
            blk, value = code.region(r)
            if blk is None:
                return value
        while True:
            for op in blk.body:
                stats.steps += 1
                if stats.steps > limit:
                    raise InterpLimitExceeded(f"interpreter exceeded {limit} steps")
                op(r)
            kind = blk.kind
            if kind == _FALL:
                raise blk.value()
            stats.steps += 1
            if stats.steps > limit:
                raise InterpLimitExceeded(f"interpreter exceeded {limit} steps")
            if kind == _BRANCH:
                blk = blk.then if blk.value(r) else blk.orelse
            elif kind == _JUMP:
                blk = blk.then
            elif kind == _RETURN:
                return blk.value(r)
            else:  # _LOOP: count a back edge; enter a translated loop
                nxt = blk.then if blk.value(r) else blk.orelse
                if nxt.region is None and nxt in blk.back:
                    nxt.heat += 1
                    if nxt.heat == THRESHOLD:
                        self._tier_loop(code, nxt)
                if nxt.region is None:
                    blk = nxt
                else:
                    blk, value = nxt.region(r)
                    if blk is None:
                        return value


def _translate(make: Callable[[Any], Callable]) -> Optional[Callable]:
    """``make(repro.ir.translate)``, or None when the host stack is too
    deep to translate here: the closures then go on running the region,
    as they would have without the tier."""
    from repro.ir import translate

    try:
        return make(translate)
    except RecursionError:
        return None


def _deferred(hp: "HostProfiler", call: Callable) -> Callable:
    """``call`` with its whole time deferred: the callee's statements and
    frame account for themselves, so the calling statement's bucket
    keeps only argument evaluation and result write-back."""
    now, take_sub, defer = hp.now, hp.take_sub, hp.defer

    def deferred_call(fn, args):
        t0 = now()
        result = call(fn, args)
        take_sub()
        defer(now() - t0)
        return result

    return deferred_call


def run_module(
    module: Module,
    args: Optional[list[Union[int, float]]] = None,
    tracer: Optional[MemoryTracer] = None,
    max_steps: int = 50_000_000,
    host_profiler: Optional["HostProfiler"] = None,
) -> InterpResult:
    """Convenience wrapper: interpret ``module.main(args)``."""
    return Interpreter(
        module, tracer, max_steps, host_profiler=host_profiler
    ).run(args)
