"""The tree-walking IR interpreter, kept as the reference for the decoded one.

This is ``repro.ir.interp`` as it stood before the interpreter was
lowered to closures: every statement and expression is dispatched by
``isinstance`` on each visit.  ``tests/test_interp_reference.py`` runs
it beside :class:`repro.ir.interp.Interpreter` and requires the same
output, exit value, statistics, errors, final memory and alias profile.
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol, Union

from repro.errors import InterpError, InterpLimitExceeded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> ir)
    from repro.obs.telemetry import HostProfiler
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
from repro.ir.types import FloatType, Type

GLOBAL_BASE = 0x1000
STACK_BASE = 0x10_0000
HEAP_BASE = 0x100_0000

_INT_MASK = (1 << 64) - 1


def wrap_int(v: int) -> int:
    """Wrap to signed 64-bit (two's complement)."""
    v &= _INT_MASK
    return v - (1 << 64) if v >= (1 << 63) else v


def int_div(a: int, b: int) -> int:
    """C-style integer division (truncates toward zero)."""
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return wrap_int(-q if (a < 0) != (b < 0) else q)


def int_mod(a: int, b: int) -> int:
    """C-style remainder: ``a == int_div(a,b)*b + int_mod(a,b)``."""
    if b == 0:
        raise InterpError("integer modulo by zero")
    return wrap_int(a - int_div(a, b) * b)


def format_value(value: Union[int, float]) -> str:
    """Canonical print formatting shared by interpreter and simulator."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


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
            f"indirect_loads={self.indirect_loads}, stores={self.stores})"
        )


class _Frame:
    """One activation record."""

    def __init__(self, fn: Function, base: int) -> None:
        self.fn = fn
        self.base = base
        self.regs: dict[int, Union[int, float]] = {}  # temp var id -> value
        self.var_addrs: dict[int, int] = {}  # var id -> word address
        self.size = 0


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
        #: host wall-clock per dispatched statement class
        #: (``interp.op.Assign``, …).  Purely observational.
        self.host = host_profiler
        #: observer invoked with (Print stmt, formatted text) per output
        #: line — translation validation uses it to attribute the first
        #: divergent print back to a source Loc.
        self.on_print = on_print
        self.mem: dict[int, Union[int, float]] = {}
        self.owner: dict[int, OwnerTag] = {}
        self.stats = InterpStats()
        self.output: list[str] = []
        self._stack_top = STACK_BASE
        self._heap_top = HEAP_BASE
        self._global_addrs: dict[int, int] = {}
        self._frames: list[_Frame] = []
        self._active_stmt: Optional[Stmt] = None
        self._layout_globals()

    # -- memory layout ------------------------------------------------

    def _layout_globals(self) -> None:
        addr = GLOBAL_BASE
        for g in self.module.globals:
            self._global_addrs[g.id] = addr
            words = max(1, g.type.size_words())
            for w in range(words):
                self.owner[addr + w] = ("var", g.id, g)
            init = self.module.global_inits.get(g.id)
            if init is not None:
                if isinstance(init, list):
                    for i, v in enumerate(init):
                        self.mem[addr + i] = v
                else:
                    self.mem[addr] = init
            addr += words

    def var_address(self, var: Variable) -> int:
        """Word address of a variable with a memory home."""
        if var.is_global:
            return self._global_addrs[var.id]
        frame = self._frames[-1]
        try:
            return frame.var_addrs[var.id]
        except KeyError:
            raise InterpError(f"variable {var.name} has no address in frame") from None

    def _read_mem(self, addr: int) -> Union[int, float]:
        return self.mem.get(addr, 0)

    def _write_mem(self, addr: int, value: Union[int, float]) -> None:
        if addr <= 0:
            raise InterpError(f"store to invalid address {addr}")
        self.mem[addr] = value

    # -- running --------------------------------------------------------

    def run(self, args: Optional[list[Union[int, float]]] = None) -> InterpResult:
        """Run ``main`` with the given arguments."""
        main = self.module.main
        result = self._call(main, args or [])
        exit_value = int(result) if result is not None else 0
        return InterpResult(exit_value, self.output, self.stats)

    def _call(self, fn: Function, args: list[Union[int, float]]) -> Optional[Union[int, float]]:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        hp = self.host
        _t0 = hp.now() if hp is not None else 0
        frame = _Frame(fn, self._stack_top)
        addr = self._stack_top
        for var in fn.all_variables():
            if not var.has_memory_home:
                continue
            frame.var_addrs[var.id] = addr
            words = max(1, var.type.size_words())
            for w in range(words):
                self.owner[addr + w] = ("var", var.id, var)
                self.mem[addr + w] = 0  # deterministic zero init
            addr += words
        frame.size = addr - self._stack_top
        self._stack_top = addr
        self._frames.append(frame)
        self.stats.calls += 1

        for p, a in zip(fn.params, args):
            self._write_var(p, a)
        if hp is not None:
            hp.add("interp.frame", hp.now() - _t0)

        try:
            return self._run_function(fn)
        finally:
            if hp is not None:
                _t0 = hp.now()
            popped = self._frames.pop()
            by_id = {v.id: v for v in popped.fn.all_variables()}
            for var_id, base in popped.var_addrs.items():
                for w in range(max(1, by_id[var_id].type.size_words())):
                    self.owner.pop(base + w, None)
                    self.mem.pop(base + w, None)
            self._stack_top = popped.base
            if hp is not None:
                hp.add("interp.frame", hp.now() - _t0)

    def _run_function(self, fn: Function) -> Optional[Union[int, float]]:
        block = fn.entry
        idx = 0
        # Host-profiling state: ``hp`` is None on unprofiled runs (one
        # falsy check per dispatched statement).  Timestamps chain so
        # attributed time tiles the dispatch loop without gaps.
        hp = self.host
        t_mark = hp.now() if hp is not None else 0
        while True:
            if idx >= len(block.stmts):
                raise InterpError(f"fell off end of block {block.label} in {fn.name}")
            stmt = block.stmts[idx]
            self._active_stmt = stmt
            self.stats.steps += 1
            if self.stats.steps > self.max_steps:
                raise InterpLimitExceeded(
                    f"interpreter exceeded {self.max_steps} steps"
                )
            if isinstance(stmt, Return):
                result = (
                    self._eval(stmt.expr) if stmt.expr is not None else None
                )
                if hp is not None:
                    hp.add(
                        "interp.op.Return",
                        hp.now() - t_mark - hp.take_sub(),
                    )
                return result
            if isinstance(stmt, Jump):
                block, idx = stmt.target, 0
                if hp is not None:
                    t_now = hp.now()
                    hp.add("interp.op.Jump", t_now - t_mark - hp.take_sub())
                    t_mark = t_now
                continue
            if isinstance(stmt, CondBranch):
                taken = self._eval(stmt.cond)
                block = stmt.then_block if taken else stmt.else_block
                idx = 0
                if hp is not None:
                    t_now = hp.now()
                    hp.add(
                        "interp.op.CondBranch",
                        t_now - t_mark - hp.take_sub(),
                    )
                    t_mark = t_now
                continue
            self._exec(stmt)
            idx += 1
            if hp is not None:
                t_now = hp.now()
                hp.add(
                    hp.op_key(stmt.__class__, "interp.op."),
                    t_now - t_mark - hp.take_sub(),
                )
                t_mark = t_now

    # -- statement execution ---------------------------------------------

    def _exec(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            if stmt.spec_flag.is_branching_check and stmt.recovery:
                # chk.a: the interpreter models the always-fail case —
                # the recovery reloads address and value from memory,
                # which is idempotent and therefore also correct when
                # hardware would have skipped it.
                for recovery_stmt in stmt.recovery:
                    self._exec(recovery_stmt)
                return
            if stmt.spec_flag in (SpecFlag.LD_SA, SpecFlag.LD_C, SpecFlag.LD_C_NC):
                # Speculative loads must not fault on paths where the
                # original never loaded: ld.sa defers exceptions, and a
                # check reached before any advanced load executed may
                # see a garbage (zero) address register.  The dummy
                # value is dead on every such path.
                try:
                    value = self._eval(stmt.expr)
                except InterpError:
                    value = 0.0 if stmt.target.type.is_float else 0
                self._write_var(stmt.target, value)
                return
            self._write_var(stmt.target, self._eval(stmt.expr))
        elif isinstance(stmt, Store):
            addr = self._as_addr(self._eval(stmt.addr), stmt)
            value = self._eval(stmt.value)
            self._write_mem(addr, value)
            self.stats.stores += 1
            if self.tracer is not None:
                self.tracer.on_indirect_store(stmt, addr, self.owner.get(addr))
        elif isinstance(stmt, Call):
            callee = self.module.function(stmt.callee)
            args = [self._eval(a) for a in stmt.args]
            hp = self.host
            if hp is None:
                result = self._call(callee, args)
            else:
                # The callee's dispatch loop accounts for its own time;
                # defer the whole call so the Call bucket only keeps
                # argument evaluation + frame bookkeeping residue.
                _t = hp.now()
                result = self._call(callee, args)
                hp.take_sub()
                hp.defer(hp.now() - _t)
            if stmt.result is not None:
                if result is None:
                    raise InterpError(f"void call used as value: {stmt}")
                self._write_var(stmt.result, result)
        elif isinstance(stmt, Alloc):
            count = int(self._eval(stmt.count))
            if count < 0:
                raise InterpError(f"negative allocation count in {stmt}")
            words = max(1, stmt.elem_type.size_words() * count)
            base = self._heap_top
            for w in range(words):
                self.owner[base + w] = ("heap", stmt.sid)
            self._heap_top += words
            self._write_var(stmt.target, base)
        elif isinstance(stmt, Print):
            text = format_value(self._eval(stmt.expr))
            self.output.append(text)
            if self.on_print is not None:
                self.on_print(stmt, text)
        elif isinstance(stmt, EvalStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, InvalidateCheck):
            pass  # ALAT-only effect; no IR-level semantics
        elif isinstance(stmt, ConditionalReload):
            store_addr = self._eval(stmt.store_addr)
            home_addr = self._eval(stmt.home_addr)
            if store_addr == home_addr:
                addr = self._as_addr(home_addr, stmt)
                self._write_var(stmt.temp, self._read_mem(addr))
        else:
            raise InterpError(f"cannot execute statement {stmt!r}")

    def _write_var(self, var: Variable, value: Union[int, float]) -> None:
        value = self._coerce(var.type, value)
        if var.has_memory_home:
            self._write_mem(self.var_address(var), value)
        else:
            self._frames[-1].regs[var.id] = value

    @staticmethod
    def _coerce(ty: Type, value: Union[int, float]) -> Union[int, float]:
        if isinstance(ty, FloatType):
            return float(value)
        if isinstance(value, float):
            return wrap_int(int(value))
        return wrap_int(int(value))

    @staticmethod
    def _as_addr(value: Union[int, float], stmt: Stmt) -> int:
        if isinstance(value, float):
            raise InterpError(f"float used as address in {stmt}")
        if value == 0:
            raise InterpError(f"null dereference in {stmt}")
        return int(value)

    # -- expression evaluation ---------------------------------------------

    def _eval(self, expr: Expr) -> Union[int, float]:
        if isinstance(expr, ConstInt):
            return expr.value
        if isinstance(expr, ConstFloat):
            return expr.value
        if isinstance(expr, VarRead):
            var = expr.var
            if var.has_memory_home:
                self.stats.direct_loads += 1
                return self._read_mem(self.var_address(var))
            frame = self._frames[-1]
            return frame.regs.get(var.id, 0)
        if isinstance(expr, AddrOf):
            return self.var_address(expr.var)
        if isinstance(expr, Load):
            addr_val = self._eval(expr.addr)
            addr = self._as_addr(addr_val, self._active_stmt)
            self.stats.indirect_loads += 1
            if self.tracer is not None:
                self.tracer.on_indirect_load(
                    expr, self._active_stmt, addr, self.owner.get(addr)
                )
            return self._read_mem(addr)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, UnOp):
            return self._eval_unop(expr)
        raise InterpError(f"cannot evaluate expression {expr!r}")

    def _eval_binop(self, expr: BinOp) -> Union[int, float]:
        op = expr.op
        if op is BinOpKind.AND:
            return 1 if (self._eval(expr.left) and self._eval(expr.right)) else 0
        if op is BinOpKind.OR:
            return 1 if (self._eval(expr.left) or self._eval(expr.right)) else 0
        lhs = self._eval(expr.left)
        rhs = self._eval(expr.right)
        if op is BinOpKind.ADD:
            r = lhs + rhs
        elif op is BinOpKind.SUB:
            r = lhs - rhs
        elif op is BinOpKind.MUL:
            r = lhs * rhs
        elif op is BinOpKind.DIV:
            if isinstance(lhs, float) or isinstance(rhs, float):
                if rhs == 0:
                    raise InterpError("float division by zero")
                r = lhs / rhs
            else:
                r = int_div(lhs, rhs)
        elif op is BinOpKind.MOD:
            if isinstance(lhs, float) or isinstance(rhs, float):
                raise InterpError("modulo on float operands")
            r = int_mod(lhs, rhs)
        elif op is BinOpKind.EQ:
            r = 1 if lhs == rhs else 0
        elif op is BinOpKind.NE:
            r = 1 if lhs != rhs else 0
        elif op is BinOpKind.LT:
            r = 1 if lhs < rhs else 0
        elif op is BinOpKind.LE:
            r = 1 if lhs <= rhs else 0
        elif op is BinOpKind.GT:
            r = 1 if lhs > rhs else 0
        elif op is BinOpKind.GE:
            r = 1 if lhs >= rhs else 0
        else:
            raise InterpError(f"unknown binop {op}")
        if isinstance(r, int) and not expr.type.is_float:
            r = wrap_int(r)
        return r

    def _eval_unop(self, expr: UnOp) -> Union[int, float]:
        v = self._eval(expr.operand)
        if expr.op is UnOpKind.NEG:
            return -v if isinstance(v, float) else wrap_int(-v)
        if expr.op is UnOpKind.NOT:
            return 0 if v else 1
        if expr.op is UnOpKind.I2F:
            return float(v)
        if expr.op is UnOpKind.F2I:
            return wrap_int(int(v))
        raise InterpError(f"unknown unop {expr.op}")


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
