"""The IR interpreter's translated tier: hot regions as generated Python.

:class:`repro.ir.interp.Interpreter` runs a function's decoded closures
and counts taken back edges per loop header and calls per function; when
a count reaches :data:`repro.ir.interp.THRESHOLD` it asks this module
for a translation of that *region* and enters it from then on.  A region
is a set of decoded blocks entered at one block: the natural loop of a
header (every block that reaches one of its back edges without passing
the header), or, for a function of at most
:data:`repro.ir.interp.MAX_FUNCTION` statements, every block of the
function.  This module is imported on the first tier-up.

A region becomes one Python function ``region(r)`` of the activation's
register file.  Temporaries are locals, global addresses are literals,
frame addresses are locals computed once per entry, and a memory word
read or stored along a straight path stays in a local until a write may
alias it.  Every expression is inline code with the address, wrap and
coercion checks the closures make, dropped only where the value's class
is known (a constant, an integer temporary, an address, a word the path
stored).  The step and access counters stay in locals, their increments
added up along each path, until the region exits, calls or raises.

The region is exact because it does what the closures do, statement by
statement and in the same order:

* each statement (and terminator) checks the step budget against the
  steps its path has charged so far, so
  :class:`repro.errors.InterpLimitExceeded` fires at the same statement;
* a failing statement raises in place, with the closures' type and
  message.  Each generated line is tagged with the counter increments
  still pending there; the region's handler adds those of the line an
  exception left from, and a ``finally`` writes the counters back (the
  register file is dead once an error leaves the activation);
* a call writes the step count back first and reads it back after the
  callee, even when the callee raises, and goes through
  ``Interpreter._call``, so a guest activation costs the host stack the
  same three frames on both tiers;
* tracer and ``on_print`` calls are made where the closures make them.

A branch to a block outside the region writes the temporaries back and
returns ``(block, None)``; the closures continue there.  A guest return
returns ``(None, value)``.

Translations live on the interpreter (on the decoded header block or
function), never on the IR: passes rewrite functions in place after the
alias-profiling run.  DESIGN section 7, item 12 has the break-even
behind the threshold.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Optional

from repro.errors import InterpError, InterpLimitExceeded
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
from repro.ir.interp import (
    _INT_MAX,
    _INT_MIN,
    STACK_BASE,
    Interpreter,
    _as_int,
    _Block,
    _Code,
    _successors,
    float_to_int,
    format_value,
    int_div,
    int_mod,
    wrap_int,
)
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

#: deepest chain of blocks emitted inline into their one predecessor
_MAX_INLINE = 12


def loop_region(interp: Interpreter, code: _Code, header: _Block) -> Callable:
    """Translate the natural loop of ``header``."""
    preds: dict[_Block, list[_Block]] = {}
    for blk in code.decoder.blocks.values():
        for succ in _successors(blk):
            preds.setdefault(succ, []).append(blk)
    body = {header}
    work = [b for b in preds.get(header, ()) if header in b.back and b is not header]
    body.update(work)
    while work:
        for pred in preds.get(work.pop(), ()):
            if pred not in body:
                body.add(pred)
                work.append(pred)
    return _Generator(interp, code, header, body).build()


def function_region(interp: Interpreter, code: _Code) -> Callable:
    """Translate every block reachable from the entry."""
    body = {code.entry}
    work = [code.entry]
    while work:
        for succ in _successors(work.pop()):
            if succ not in body:
                body.add(succ)
                work.append(succ)
    return _Generator(interp, code, code.entry, body).build()


# -- errors, made only on the raising path -------------------------------


def _address_error(a, ctx: Stmt) -> InterpError:
    if isinstance(a, float):
        return InterpError(f"float used as address in {ctx}")
    return InterpError(f"null dereference in {ctx}")


def _null_error(ctx: Stmt) -> InterpError:
    return InterpError(f"null dereference in {ctx}")


def _store_error(a) -> InterpError:
    return InterpError(f"store to invalid address {a}")


def _void_error(stmt: Stmt) -> InterpError:
    return InterpError(f"void call used as value: {stmt}")


def _negative_error(stmt: Stmt) -> InterpError:
    return InterpError(f"negative allocation count in {stmt}")


def _neg(v):
    return -v if isinstance(v, float) else wrap_int(-v)


# what is known of a value's class: an int in the signed 64-bit range,
# such an int that is also a valid address (positive), a float, or
# either a float or an int in range (a wrapped result)
_INT, _ADDR, _FLOAT, _NUM = "int", "addr", "float", "num"
_INTS = (_INT, _ADDR)

#: no constant value
_NO = object()

_SYMBOLS = {
    BinOpKind.ADD: "+", BinOpKind.SUB: "-", BinOpKind.MUL: "*",
    BinOpKind.EQ: "==", BinOpKind.NE: "!=", BinOpKind.LT: "<",
    BinOpKind.LE: "<=", BinOpKind.GT: ">", BinOpKind.GE: ">=",
}

_FOLD = {
    BinOpKind.ADD: lambda x, y: x + y,
    BinOpKind.SUB: lambda x, y: x - y,
    BinOpKind.MUL: lambda x, y: x * y,
}

#: what a region binds to locals on entry, by local name
_HOT: dict[str, Callable[[Interpreter], object]] = {
    "mem_get": lambda i: i.mem.get,
    "mem": lambda i: i.mem,
    "call": lambda i: i._invoke,
    "out_append": lambda i: i.output.append,
    "on_print": lambda i: i.on_print,
    "on_load": lambda i: i.tracer.on_indirect_load,  # type: ignore[union-attr]
    "on_store": lambda i: i.tracer.on_indirect_store,  # type: ignore[union-attr]
    "owner_get": lambda i: i.owner.get,
    "owner_update": lambda i: i.owner.update,
}


class _V:
    """A generated value: Python source that computes it without side
    effects (a name, a literal, or an expression over them), what is
    known of its class, and its value when it is a constant."""

    __slots__ = ("text", "kind", "const")

    def __init__(self, text: str, kind: Optional[str] = None, const=_NO) -> None:
        self.text = text
        self.kind = kind
        self.const = const


def _float_test(a: _V, x: str, b: _V, y: str) -> Optional[str]:
    """Source testing whether either operand (``a`` as ``x``, ``b`` as
    ``y``, not both known ints) is a float; None when one is known to
    be."""
    if _FLOAT in (a.kind, b.kind):
        return None
    return " or ".join(
        f"{name}.__class__ is float"
        for v, name in ((a, x), (b, y)) if v.kind not in _INTS
    )


def _constant(value) -> _V:
    if value.__class__ is int:
        kind = (
            _ADDR if 0 < value <= _INT_MAX
            else _INT if _INT_MIN <= value <= _INT_MAX else None
        )
        return _V(repr(value) if value >= 0 else f"({value!r})", kind, value)
    return _V(_literal(value), _FLOAT, value)


def _literal(value: float) -> str:
    if not isfinite(value):
        return f"float({str(value)!r})"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


#: the counters a region keeps in locals: the step count, then the access
#: counters (by the ``InterpStats`` field they add to)
_COUNTERS = {
    "n": "steps", "c_dl": "direct_loads", "c_il": "indirect_loads",
    "c_st": "stores",
}

#: the comment that marks an emitted line with its pending increments
_MARK = "  #@"

#: ``known`` was cleared inside an arm
_ALL = "*"


def _may_alias(a: str, b: str) -> bool:
    """Whether two address keys (a literal, or a frame address local
    ``a<offset>``) may name the same word.  Frames lie at or above
    ``STACK_BASE``."""
    if a == b:
        return True
    if (a[0] == "a") == (b[0] == "a"):
        return False
    return int(b if a[0] == "a" else a) >= STACK_BASE


class _Generator:
    """Emits one region as the source of one Python function.

    A block with exactly one edge into it from inside the region (other
    than the entry) is emitted inline at the end of its predecessor;
    every other block is a leaf of a binary dispatch tree on ``pc``
    inside ``while True`` (with one leaf, the loop body is the leaf).

    Counter increments (steps included) are *pending* along a path and
    emitted where the path leaves: at a jump to a leaf, an exit, a
    return and before a call.  Each step check compares against the
    limit less the steps pending.  A line emitted while increments are
    pending is marked with them; when an exception leaves the region,
    its handler adds the increments of the line it left (the ``FIX``
    table), so the counters are exact wherever a statement raised.  In
    an arm that runs conditionally (a speculative load's ``try``, the
    right operand of ``&&``/``||``, a reload) increments are emitted in
    place.

    ``known`` maps an address key (a literal address, or a frame
    address local ``a<offset>``) to a local that holds the word along
    the current path: read once, or stored there, until a write that may
    alias it (a store through a pointer, a call) or a join.
    """

    def __init__(
        self, interp: Interpreter, code: _Code, entry: _Block, body: set[_Block]
    ) -> None:
        self.interp = interp
        self.decoder = code.decoder
        self.fn = code.decoder.fn
        self.nregs = code.nregs
        self.entry = entry
        self.body = body
        edges: dict[_Block, int] = {}
        for blk in body:
            for succ in _successors(blk):
                if succ in body:
                    edges[succ] = edges.get(succ, 0) + 1
        self.inlinable = {
            blk for blk, count in edges.items() if count == 1 and blk is not entry
        }
        self.limit = interp.max_steps
        self.traced = interp.tracer is not None
        self.ns: dict[str, object] = {
            "InterpError": InterpError, "Limit": InterpLimitExceeded,
            "LIMIT": f"interpreter exceeded {self.limit} steps",
            "wrap": wrap_int, "int_div": int_div, "int_mod": int_mod,
            "as_int": _as_int, "fmt": format_value, "neg": _neg,
            "f2i": float_to_int,
            "address_error": _address_error, "null_error": _null_error,
            "store_error": _store_error, "void_error": _void_error,
            "negative_error": _negative_error, "STATS": interp.stats,
            "I": interp,
        }
        self.bound: dict[int, str] = {}
        self.hot: set[str] = set()
        self.counters: set[str] = set()
        self.temps: set[int] = set()
        self.written: set[int] = set()
        self.frame: set[int] = set()
        self.exits = False
        self.fresh = 0
        self.lines: list[str] = []
        self.indent = ""
        self.leaves: dict[_Block, int] = {entry: 0}
        self.wanted: list[_Block] = [entry]
        self.pending: dict[str, int] = {}
        self.marks: dict[tuple, int] = {}
        #: nesting depth of conditional arms (increments in place)
        self.eager = 0
        self.known: dict[str, _V] = {}
        #: keys written in the current arm (``_ALL``: everything)
        self.clobbered: Optional[set[str]] = None

    # -- output -----------------------------------------------------------

    def emit(self, line: str) -> None:
        if self.pending:
            key = tuple(sorted(self.pending.items()))
            line = f"{line}{_MARK}{self.marks.setdefault(key, len(self.marks))}"
        self.lines.append(self.indent + line)

    def nested(self, body: Callable[[], None]) -> None:
        saved = self.indent
        self.indent += "    "
        body()
        self.indent = saved

    def arm(self, body: Callable[[], None], nest: bool = True) -> None:
        """Emit ``body`` as code that runs conditionally: its increments
        in place, and what it learns of memory dropped after it (with
        what it may have overwritten)."""
        known, outer = dict(self.known), self.clobbered
        self.clobbered = set()
        self.eager += 1
        if nest:
            self.nested(body)
        else:
            body()
        self.eager -= 1
        clobbered, self.clobbered = self.clobbered, outer
        if outer is not None:
            outer |= clobbered
        self.known = {} if _ALL in clobbered else {
            k: v for k, v in known.items()
            if not any(_may_alias(k, c) for c in clobbered)
        }

    def bind(self, value: object, prefix: str) -> str:
        """A global name for ``value`` (one per object)."""
        name = self.bound.get(id(value))
        if name is None:
            name = self.bound[id(value)] = f"{prefix}{len(self.ns)}"
            self.ns[name] = value
        return name

    def use(self, name: str) -> str:
        """A hot local bound on entry."""
        self.hot.add(name)
        return name

    def local(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def stable(self, v: _V) -> str:
        """``v`` as a name or literal, binding its source to a local."""
        if v.const is not _NO or v.text.isidentifier():
            return v.text
        name = self.local()
        self.emit(f"{name} = {v.text}")
        return name

    def bump(self, counter: str) -> None:
        self.counters.add(counter)
        if self.eager:
            self.emit(f"{counter} += 1")
        else:
            self.pending[counter] = self.pending.get(counter, 0) + 1

    def flush(self) -> None:
        pending, self.pending = self.pending, {}
        for counter, amount in sorted(pending.items()):
            self.emit(f"{counter} += {amount}")

    def step(self) -> None:
        """Charge one step and check the budget."""
        steps = self.pending["n"] = self.pending.get("n", 0) + 1
        self.emit(f"if n > {self.limit - steps}: raise Limit(LIMIT)")

    def slot(self, var: Variable) -> str:
        s = self.decoder.slots[var.id]
        self.temps.add(s)
        return f"t{s}"

    def frame_address(self, off: int) -> str:
        self.frame.add(off)
        return f"a{off}"

    # -- memory words known along the path ----------------------------------

    def read(self, key: str) -> _V:
        v = self.known.get(key)
        if v is None:
            name = self.local()
            self.emit(f"{name} = {self.use('mem_get')}({key}, 0)")
            v = self.known[key] = _V(name)
        return v

    def remember(self, key: str, v: Optional[_V]) -> None:
        """``key`` now holds ``v`` (None: unknown)."""
        for k in [k for k in self.known if _may_alias(k, key)]:
            del self.known[k]
        if v is not None:
            self.known[key] = v
        if self.clobbered is not None:
            self.clobbered.add(key)

    def forget(self) -> None:
        """Any word may have been written."""
        self.known = {}
        if self.clobbered is not None:
            self.clobbered.add(_ALL)

    # -- blocks -----------------------------------------------------------

    def block(self, blk: _Block, depth: int) -> None:
        stmts, term = blk.source
        for stmt in stmts:
            self.step()
            self.stmt(stmt, stmt)
        if term is None:
            self.emit(f"raise {self.bind(blk.value, 'F')}()")
            return
        self.step()
        if isinstance(term, Return):
            value = "None"
            if term.expr is not None:
                value = self.expr(term.expr, term).text
            self.flush()
            self.emit(f"return None, {value}")
        elif isinstance(term, Jump):
            self.goto(blk.then, depth)  # type: ignore[arg-type]
        else:
            assert isinstance(term, CondBranch)
            self.emit(f"if {self.cond(term.cond, term)}:")
            pending, known = dict(self.pending), dict(self.known)
            self.nested(lambda: self.goto(blk.then, depth))  # type: ignore[arg-type]
            self.pending, self.known = pending, known
            self.emit("else:")
            self.nested(lambda: self.goto(blk.orelse, depth))  # type: ignore[arg-type]

    def goto(self, target: _Block, depth: int) -> None:
        if target not in self.body:
            self.exits = True
            self.flush()
            self.emit(f"x = {self.bind(target, 'B')}")
            self.emit("break")
        elif target in self.inlinable and depth < _MAX_INLINE:
            self.block(target, depth + 1)
        else:
            leaf = self.leaves.get(target)
            if leaf is None:
                leaf = self.leaves[target] = len(self.leaves)
                self.wanted.append(target)
            self.flush()
            self.emit(f"@goto {leaf}")

    # -- statements -------------------------------------------------------

    def stmt(self, stmt: Stmt, ctx: Stmt) -> None:
        """One statement, as ``_Decoder.stmt`` decodes it; ``ctx`` is the
        statement its loads report."""
        if isinstance(stmt, Assign):
            self.assign(stmt, ctx)
        elif isinstance(stmt, Store):
            self.store(stmt, ctx)
        elif isinstance(stmt, Call):
            self.call(stmt, ctx)
        elif isinstance(stmt, Alloc):
            self.alloc(stmt, ctx)
        elif isinstance(stmt, Print):
            self.print(stmt, ctx)
        elif isinstance(stmt, EvalStmt):
            self.expr(stmt.expr, ctx)
        elif isinstance(stmt, InvalidateCheck):
            pass  # ALAT-only effect; no IR-level semantics
        elif isinstance(stmt, ConditionalReload):
            self.reload(stmt, ctx)
        else:
            error = self.bind(
                lambda: InterpError(f"cannot execute statement {stmt!r}"), "E"
            )
            self.emit(f"raise {error}()")

    def assign(self, stmt: Assign, ctx: Stmt) -> None:
        if stmt.spec_flag.is_branching_check and stmt.recovery:
            for s in stmt.recovery:  # chk.a: the always-fail case
                self.stmt(s, ctx)
            return
        if stmt.spec_flag in (SpecFlag.LD_SA, SpecFlag.LD_C, SpecFlag.LD_C_NC):
            # a speculative load that faults yields a dead dummy value
            dummy = 0.0 if stmt.target.type.is_float else 0
            name = self.local()
            self.emit("try:")
            self.arm(lambda: self.emit(
                f"{name} = {self.expr(stmt.expr, ctx).text}"
            ))
            self.emit("except InterpError:")
            self.emit(f"    {name} = {dummy!r}")
            self.write(stmt.target, _V(name))
            return
        self.write(stmt.target, self.expr(stmt.expr, ctx))

    def store(self, stmt: Store, ctx: Stmt) -> None:
        a = self.expr(stmt.addr, ctx)
        addr = self.stable(a)
        self.check_address(a.kind, addr, stmt)
        value = self.expr(stmt.value, ctx).text
        if a.kind != _ADDR:
            self.emit(f"if {addr} < 0: raise store_error({addr})")
        self.emit(f"{self.use('mem')}[{addr}] = {value}")
        self.forget()
        self.bump("c_st")
        if self.traced:
            self.emit(
                f"{self.use('on_store')}({self.bind(stmt, 'S')}, {addr}, "
                f"{self.use('owner_get')}({addr}))"
            )

    def call(self, stmt: Call, ctx: Stmt) -> None:
        module = self.interp.module
        callee = module.functions.get(stmt.callee)
        if callee is None:
            # the closures raise IRError here, with no argument evaluated
            missing = self.bind(lambda: module.function(stmt.callee), "E")
            self.emit(f"{missing}()")
            return
        args = ", ".join(self.expr(a, ctx).text for a in stmt.args)
        result = self.local()
        self.flush()
        self.emit("stats.steps = n")
        self.emit("try:")
        self.emit(f"    {result} = {self.use('call')}({self.bind(callee, 'G')}, [{args}])")
        self.emit("finally:")
        self.emit("    n = stats.steps")
        self.forget()
        if stmt.result is not None:
            self.emit(
                f"if {result} is None: raise void_error({self.bind(stmt, 'S')})"
            )
            self.write(stmt.result, _V(result))

    def alloc(self, stmt: Alloc, ctx: Stmt) -> None:
        count = self.expr(stmt.count, ctx).text
        words, base = self.local(), self.local()
        self.emit(f"{words} = int({count})")
        self.emit(
            f"if {words} < 0: raise negative_error({self.bind(stmt, 'S')})"
        )
        self.emit(f"{words} = max(1, {stmt.elem_type.size_words()} * {words})")
        self.emit(f"{base} = I._heap_top")
        if self.traced:
            tag = self.bind(("heap", stmt.sid), "H")
            self.emit(
                f"{self.use('owner_update')}(dict.fromkeys("
                f"range({base}, {base} + {words}), {tag}))"
            )
        self.emit(f"I._heap_top = {base} + {words}")
        self.write(stmt.target, _V(base))

    def print(self, stmt: Print, ctx: Stmt) -> None:
        value = self.expr(stmt.expr, ctx).text
        if self.interp.on_print is None:
            self.emit(f"{self.use('out_append')}(fmt({value}))")
            return
        text = self.local()
        self.emit(f"{text} = fmt({value})")
        self.emit(f"{self.use('out_append')}({text})")
        self.emit(f"{self.use('on_print')}({self.bind(stmt, 'S')}, {text})")

    def reload(self, stmt: ConditionalReload, ctx: Stmt) -> None:
        s = self.stable(self.expr(stmt.store_addr, ctx))
        h = self.expr(stmt.home_addr, ctx)
        home = self.stable(h)

        def reload() -> None:
            self.check_address(h.kind, home, stmt)
            self.write(stmt.temp, _V(f"{self.use('mem_get')}({home}, 0)"))

        self.emit(f"if {s} == {home}:")
        self.arm(reload)

    def check_address(self, kind: Optional[str], addr: str, ctx: Stmt) -> None:
        """Raise the closures' error for a float or null address."""
        if kind == _ADDR:
            return
        where = self.bind(ctx, "S")
        if kind == _FLOAT:
            self.emit(f"raise address_error({addr}, {where})")
        elif kind == _INT:
            self.emit(f"if {addr} == 0: raise null_error({where})")
        else:
            self.emit(
                f"if {addr}.__class__ is float or {addr} == 0: "
                f"raise address_error({addr}, {where})"
            )

    # -- variables ----------------------------------------------------------

    def write(self, var: Variable, v: _V) -> None:
        """Coerce ``v`` to ``var``'s type and store it in ``var``."""
        is_float = isinstance(var.type, FloatType)
        kind = _FLOAT if is_float else _INT
        if not var.has_memory_home:
            name = self.slot(var)
            self.written.add(self.decoder.slots[var.id])
            self.emit(f"{name} = {v.text}")
            self.coerce(name, v.kind, is_float)
            return
        addr, off, missing = self.decoder.home(var)
        if addr is None and off is None:
            name = self.local()
            self.emit(f"{name} = {v.text}")
            self.coerce(name, v.kind, is_float)
            self.emit(f"raise {self.bind(missing, 'E')}()")
            return
        key = repr(addr) if addr is not None else self.frame_address(off)  # type: ignore[arg-type]
        if v.kind == kind or (kind == _INT and v.kind == _ADDR):
            value = v if v.const is not _NO else _V(self.stable(v), v.kind)
        else:
            name = v.text
            if not _is_local(name) or any(
                k.text == name for k in self.known.values()
            ):
                name = self.local()
                self.emit(f"{name} = {v.text}")
            self.coerce(name, v.kind, is_float)
            value = _V(name, kind)
        self.emit(f"{self.use('mem')}[{key}] = {value.text}")
        # a temporary's local changes when the temporary is written
        self.remember(key, None if _is_temp(value.text) else value)

    def coerce(self, name: str, kind: Optional[str], is_float: bool) -> None:
        if is_float:
            if kind != _FLOAT:
                self.emit(f"if {name}.__class__ is not float: {name} = float({name})")
        elif kind == _NUM:
            self.emit(f"if {name}.__class__ is not int: {name} = as_int({name})")
        elif kind not in _INTS:
            self.emit(
                f"if {name}.__class__ is not int or not "
                f"{_INT_MIN} <= {name} <= {_INT_MAX}: {name} = as_int({name})"
            )

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr, ctx: Stmt) -> _V:
        """Emit what evaluating ``e`` does (checks, counters, tracer
        calls, and every operation that may raise, in the closures'
        order) and return its value."""
        if isinstance(e, (ConstInt, ConstFloat)):
            return _constant(e.value)
        if isinstance(e, VarRead):
            return self.var_read(e.var)
        if isinstance(e, AddrOf):
            addr, off, missing = self.decoder.home(e.var)
            if addr is not None:
                return _constant(addr)
            if off is not None:
                return _V(self.frame_address(off), _ADDR)
            self.emit(f"raise {self.bind(missing, 'E')}()")
            return _V("0")
        if isinstance(e, Load):
            return self.load(e, ctx)
        if isinstance(e, BinOp):
            return self.binop(e, ctx)
        if isinstance(e, UnOp):
            return self.unop(e, ctx)
        error = self.bind(
            lambda: InterpError(f"cannot evaluate expression {e!r}"), "E"
        )
        self.emit(f"raise {error}()")
        return _V("0")

    def cond(self, e: Expr, ctx: Stmt) -> str:
        """Source whose truth is that of ``e``'s value."""
        if isinstance(e, BinOp) and e.op.is_comparison:
            a = self.expr(e.left, ctx)
            b = self.expr(e.right, ctx)
            return f"{a.text} {_SYMBOLS[e.op]} {b.text}"
        return self.expr(e, ctx).text

    def var_read(self, var: Variable) -> _V:
        if not var.has_memory_home:
            kind = None if isinstance(var.type, FloatType) else _INT
            return _V(self.slot(var), kind)
        addr, off, missing = self.decoder.home(var)
        self.bump("c_dl")
        if addr is not None:
            return self.read(repr(addr))
        if off is not None:
            return self.read(self.frame_address(off))
        self.emit(f"raise {self.bind(missing, 'E')}()")
        return _V("0")

    def load(self, e: Load, ctx: Stmt) -> _V:
        a = self.expr(e.addr, ctx)
        addr = self.stable(a)
        self.check_address(a.kind, addr, ctx)
        self.bump("c_il")
        if self.traced:
            self.emit(
                f"{self.use('on_load')}({self.bind(e, 'L')}, "
                f"{self.bind(ctx, 'S')}, {addr}, {self.use('owner_get')}({addr}))"
            )
        if a.kind == _ADDR and a.const is not _NO:
            return self.read(addr)
        return _V(f"{self.use('mem_get')}({addr}, 0)")

    def binop(self, e: BinOp, ctx: Stmt) -> _V:
        op = e.op
        if op is BinOpKind.AND or op is BinOpKind.OR:
            return self.logical(e, ctx)
        a = self.expr(e.left, ctx)
        b = self.expr(e.right, ctx)
        kinds = (a.kind, b.kind)
        if op.is_comparison:
            return _V(f"(1 if {a.text} {_SYMBOLS[op]} {b.text} else 0)", _INT)
        if op is BinOpKind.DIV:
            return self.divide(a, b)
        if op is BinOpKind.MOD:
            return self.modulo(a, b)
        sym = _SYMBOLS[op]
        wrap = not e.type.is_float
        if wrap and a.kind in _INTS and b.kind in _INTS and (
            a.const is not _NO and b.const is not _NO
        ):
            return _constant(wrap_int(_FOLD[op](a.const, b.const)))
        result = _FLOAT if _FLOAT in kinds else None
        if not wrap:
            if a.kind is not None and b.kind is not None:
                return _V(f"({a.text} {sym} {b.text})", result)
            name = self.local()  # an unknown operand may make it raise
            self.emit(f"{name} = {a.text} {sym} {b.text}")
            return _V(name, result)
        name = self.local()
        self.emit(f"{name} = {a.text} {sym} {b.text}")
        if result == _FLOAT:
            return _V(name, _FLOAT)
        if a.kind in _INTS and b.kind in _INTS:
            self.emit(
                f"if not {_INT_MIN} <= {name} <= {_INT_MAX}: {name} = wrap({name})"
            )
            return _V(name, _INT)
        self.emit(
            f"if not {_INT_MIN} <= {name} <= {_INT_MAX} and "
            f"{name}.__class__ is int: {name} = wrap({name})"
        )
        return _V(name, _NUM)

    def logical(self, e: BinOp, ctx: Stmt) -> _V:
        """``&&``/``||``: the right operand runs only when it decides."""
        a = self.expr(e.left, ctx)
        outer, self.lines = self.lines, []
        b = _V("0")

        def right() -> None:
            nonlocal b
            b = self.expr(e.right, ctx)

        self.arm(right, nest=False)
        right_lines, self.lines = self.lines, outer
        is_and = e.op is BinOpKind.AND
        if not right_lines:
            word = "and" if is_and else "or"
            return _V(f"(1 if ({a.text} {word} {b.text}) else 0)", _INT)
        name = self.local()
        if is_and:
            self.emit(f"{name} = 0")
            self.emit(f"if {a.text}:")
        else:
            self.emit(f"{name} = 1")
            self.emit(f"if not ({a.text}):")
        self.lines.extend("    " + line for line in right_lines)
        test = f"{b.text}" if is_and else f"not ({b.text})"
        self.emit(f"    if {test}: {name} = {1 if is_and else 0}")
        return _V(name, _INT)

    def divide(self, a: _V, b: _V) -> _V:
        x, y = self.stable(a), self.stable(b)
        name = self.local()
        integer = f"{x} // {y} if {_fast(a, x, b, y)} else int_div({x}, {y})"
        if a.kind in _INTS and b.kind in _INTS:
            self.emit(f"{name} = {integer}")
            return _V(name, _INT)
        zero = f"if {y} == 0: raise InterpError('float division by zero')"
        test = _float_test(a, x, b, y)
        if test is None:  # a float operand: the float path
            if b.const is _NO or b.const == 0:
                self.emit(zero)
            self.emit(f"{name} = {x} / {y}")
            return _V(name, _FLOAT)
        self.emit(f"if {test}:")
        self.emit(f"    {zero}")
        self.emit(f"    {name} = {x} / {y}")
        self.emit("else:")
        self.emit(f"    {name} = {integer}")
        return _V(name)

    def modulo(self, a: _V, b: _V) -> _V:
        x, y = self.stable(a), self.stable(b)
        name = self.local()
        if not (a.kind in _INTS and b.kind in _INTS):
            error = "raise InterpError('modulo on float operands')"
            test = _float_test(a, x, b, y)
            self.emit(error if test is None else f"if {test}: {error}")
        self.emit(
            f"{name} = {x} % {y} if {_fast(a, x, b, y)} else int_mod({x}, {y})"
        )
        return _V(name, _INT)

    def unop(self, e: UnOp, ctx: Stmt) -> _V:
        a = self.expr(e.operand, ctx)
        op = e.op
        if op is UnOpKind.NOT:
            return _V(f"(0 if {a.text} else 1)", _INT)
        if op is UnOpKind.NEG:
            if a.const is not _NO:
                return _constant(_neg(a.const))
            if a.kind == _FLOAT:
                return _V(f"(-{a.text})", _FLOAT)
            x = self.stable(a)
            name = self.local()
            if a.kind in _INTS:
                self.emit(f"{name} = -{x}")
                self.emit(f"if {name} > {_INT_MAX}: {name} = wrap({name})")
                return _V(name, _INT)
            self.emit(f"{name} = neg({x})")
            return _V(name)
        if op is UnOpKind.I2F:
            if a.kind is not None:
                return _V(f"float({a.text})", _FLOAT)
            name = self.local()  # float() of an unbounded int may raise
            self.emit(f"{name} = float({a.text})")
            return _V(name, _FLOAT)
        name = self.local()  # F2I: inf and nan raise
        self.emit(f"{name} = f2i({a.text})")
        return _V(name, _INT)

    # -- assembly -----------------------------------------------------------

    def build(self) -> Callable:
        leaves: dict[int, list[str]] = {}
        while self.wanted:
            blk = self.wanted.pop()
            self.lines, self.pending, self.known = [], {}, {}
            self.block(blk, 0)
            leaves[self.leaves[blk]] = self.lines
        single = len(leaves) == 1
        body: list[str] = []
        pad = "            "
        if single:
            body.extend(pad + line for line in leaves[0])
        else:
            self._tree(leaves, sorted(leaves), body, pad)
        counters = ["n"] + sorted(self.counters)
        out = ["def region(r):"]
        add = out.append
        add("    stats = STATS")
        add("    n = stats.steps")
        if self.counters:
            add(f"    {' = '.join(sorted(self.counters))} = 0")
        for name in sorted(self.hot):
            add(f"    {name} = {name.upper()}")
            self.ns[name.upper()] = _HOT[name](self.interp)
        slots = self.temps | self.written
        if self.frame:
            slots.add(0)
        self._load(sorted(slots), out)
        for off in sorted(self.frame):
            add(f"    a{off} = base + {off}")
        add("    try:")
        if not single:
            add("        pc = 0")
        add("        while True:")
        marks = {index: dict(key) for key, index in self.marks.items()}
        fix: dict[int, tuple[int, ...]] = {}
        for line in body:
            if _MARK in line:
                line, index = line.rsplit(_MARK, 1)
                fix[len(out) + 1] = tuple(
                    marks[int(index)].get(c, 0) for c in counters
                )
            stripped = line.lstrip()
            if stripped.startswith("@goto "):
                indent = line[: len(line) - len(stripped)]
                if not single:
                    add(f"{indent}pc = {stripped[6:]}")
                add(f"{indent}continue")
            else:
                add(line)
        if self.exits:
            for s in sorted(self.written):
                add(f"        r[{s}] = t{s}")
            add("        return x, None")
        if fix:
            self.ns["FIX"] = fix
            add("    except BaseException as e:")
            add("        fix = FIX.get(e.__traceback__.tb_lineno)")
            add("        if fix is not None:")
            out.extend(
                f"            {c} += fix[{j}]" for j, c in enumerate(counters)
            )
            add("        raise")
        add("    finally:")
        for c in counters:
            add(f"        stats.{_COUNTERS[c]} {'=' if c == 'n' else '+='} {c}")
        source = "\n".join(out) + "\n"
        name = f"{self.fn.name}@{self._label(self.entry)}"
        exec(compile(source, f"<translated {name}>", "exec"), self.ns)
        self.interp.translated.append((name, len(out)))
        return self.ns["region"]  # type: ignore[return-value]

    def _load(self, slots: list[int], out: list[str]) -> None:
        """Source that loads the region's temporaries (and, in slot 0,
        the frame base) into locals."""
        if not slots:
            return
        names = {s: (f"t{s}" if s else "base") for s in slots}
        if 2 * len(slots) >= self.nregs:
            targets = ", ".join(names.get(s, "_") for s in range(self.nregs))
            out.append(f"    {targets}, = r")
        else:
            out.extend(f"    {names[s]} = r[{s}]" for s in slots)

    def _label(self, blk: _Block) -> str:
        for b, decoded in self.decoder.blocks.items():
            if decoded is blk:
                return b.label
        return "entry"

    def _tree(
        self, leaves: dict[int, list[str]], ids: list[int], out: list[str],
        pad: str,
    ) -> None:
        if len(ids) == 1:
            out.extend(pad + line for line in leaves[ids[0]])
            return
        mid = len(ids) // 2
        out.append(f"{pad}if pc < {ids[mid]}:")
        self._tree(leaves, ids[:mid], out, pad + "    ")
        out.append(f"{pad}else:")
        self._tree(leaves, ids[mid:], out, pad + "    ")


def _is_local(text: str) -> bool:
    """A fresh local of the generator (``v<k>``): assigned once."""
    return text[0] == "v" and text[1:].isdigit()


def _is_temp(text: str) -> bool:
    """The local of a temporary (``t<slot>``)."""
    return text[0] == "t" and text[1:].isdigit()


def _fast(a: _V, x: str, b: _V, y: str) -> str:
    """The test under which C and Python agree on ``x // y`` and
    ``x % y`` for ints (``int_div``'s and ``int_mod``'s fast path)."""
    low = (
        f"{x} >= 0" if a.kind in (_INT, _ADDR, _NUM)
        else f"0 <= {x} <= {_INT_MAX}"
    )
    return low if b.kind == _ADDR else f"{low} and {y} > 0"
