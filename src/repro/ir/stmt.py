"""IR statements, including the speculation annotations the paper's
CodeMotion step attaches (section 3.4).

Register promotion rewrites loads into assignments to compiler
temporaries.  The speculative variant marks those assignments with a
:class:`SpecFlag` that the code generator lowers to IA-64 data-speculation
instructions:

* ``LD_A`` / ``LD_SA`` — the leading (advanced / speculative-advanced)
  load that allocates an ALAT entry (Figure 1a, Figure 3b);
* ``LD_C`` / ``LD_C_NC`` — a check statement after a may-aliasing store:
  free when the ALAT entry survived, a reload otherwise (Figure 1a, 1c);
* ``CHK_A`` / ``CHK_A_NC`` — a branching check with attached recovery
  statements, required for cascaded pointer promotions (Figure 4).

:class:`InvalidateCheck` models ``invala.e`` (Figure 2b) and
:class:`ConditionalReload` models the software run-time disambiguation of
Nicolau [30] used by the -O3 baseline.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import IRError
from repro.ir.expr import (
    AddrOf,
    BinOp,
    ConstFloat,
    ConstInt,
    Expr,
    Load,
    UnOp,
    VarRead,
    expr_nodes,
    walk_exprs_of,
)
from repro.ir.loc import Loc
from repro.ir.symbols import Variable
from repro.ir.types import Type

if TYPE_CHECKING:
    from repro.ir.cfg import BasicBlock

_stmt_ids = itertools.count(1)


class SpecFlag(enum.Enum):
    """Data-speculation annotation on an :class:`Assign` (section 3.4)."""

    NONE = "none"
    LD_A = "ld.a"  # advanced load: allocate ALAT entry
    LD_SA = "ld.sa"  # speculative advanced load (control + data spec)
    LD_C = "ld.c"  # check, clear ALAT entry on success
    LD_C_NC = "ld.c.nc"  # check, keep ALAT entry (multiple reuse, Fig 1c)
    CHK_A = "chk.a"  # branching check with recovery code
    CHK_A_NC = "chk.a.nc"  # branching check, keep entry (loops, Fig 3b)

    @property
    def is_advanced_load(self) -> bool:
        return self in _ADVANCED_LOADS

    @property
    def is_check(self) -> bool:
        return self in _CHECKS

    @property
    def is_branching_check(self) -> bool:
        return self in _BRANCHING_CHECKS

    @property
    def keeps_entry(self) -> bool:
        """True for the ``.nc`` (not-clear) completers."""
        return self in _KEEPS_ENTRY


# The flag classes, built once (a property reads one of them).
_ADVANCED_LOADS = frozenset((SpecFlag.LD_A, SpecFlag.LD_SA))
_CHECKS = frozenset(
    (SpecFlag.LD_C, SpecFlag.LD_C_NC, SpecFlag.CHK_A, SpecFlag.CHK_A_NC)
)
_BRANCHING_CHECKS = frozenset((SpecFlag.CHK_A, SpecFlag.CHK_A_NC))
_KEEPS_ENTRY = frozenset((SpecFlag.LD_C_NC, SpecFlag.CHK_A_NC, SpecFlag.NONE))


class Stmt:
    """Base statement.

    Attributes:
        sid: unique statement id, used to key analysis/profile facts.
        block: back-pointer to the owning basic block (set on insertion).
        mu_list / chi_list: HSSA may-use / may-def annotations, filled by
            SSA construction (empty before it runs).
        loc: source debug location, stamped by the frontend and inherited
            across rewrites (see :mod:`repro.ir.loc`); ``None`` for IR
            built without source (hand-built tests).
    """

    def __init__(self) -> None:
        self.sid = next(_stmt_ids)
        self.block: Optional["BasicBlock"] = None
        self.mu_list: list = []
        self.chi_list: list = []
        self.loc: Optional[Loc] = None

    @property
    def is_terminator(self) -> bool:
        return False

    def exprs(self) -> tuple[Expr, ...]:
        """Top-level expressions evaluated by this statement, in
        evaluation order."""
        return ()

    def walk_exprs(self) -> Iterator[Expr]:
        """All expression nodes in this statement, pre-order."""
        return walk_exprs_of(self.exprs())

    def expr_nodes(self) -> list[Expr]:
        """:meth:`walk_exprs` as a list, for a caller that does not
        rewrite the statement while it reads the nodes."""
        return expr_nodes(self.exprs())


class Assign(Stmt):
    """``target = expr``.

    If ``target`` has a memory home this is a direct store; if it is a
    temporary it is a pure register write.  ``spec_flag`` and ``recovery``
    carry the paper's CodeMotion annotations; ``recovery`` is the list of
    statements the chk.a recovery routine must execute (section 2.4/3.5)
    and is only meaningful for branching checks.
    """

    def __init__(
        self,
        target: Variable,
        expr: Expr,
        spec_flag: SpecFlag = SpecFlag.NONE,
        recovery: Optional[list["Stmt"]] = None,
    ) -> None:
        super().__init__()
        self.target = target
        self.expr = expr
        self.spec_flag = spec_flag
        self.recovery = recovery
        if recovery is not None and not spec_flag.is_branching_check:
            raise IRError("recovery code requires a chk.a-style flag")

    def exprs(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __str__(self) -> str:
        flag = f"  <{self.spec_flag.value}>" if self.spec_flag is not SpecFlag.NONE else ""
        return f"{self.target} = {self.expr}{flag}"


class Store(Stmt):
    """Indirect store ``*addr = value`` (the operation the ALAT snoops)."""

    def __init__(self, addr: Expr, value: Expr) -> None:
        super().__init__()
        if not addr.type.is_pointer:
            raise IRError(f"Store address has non-pointer type {addr.type}")
        self.addr = addr
        self.value = value

    def exprs(self) -> tuple[Expr, ...]:
        return (self.addr, self.value)

    def __str__(self) -> str:
        return f"*({self.addr}) = {self.value}"


class Call(Stmt):
    """Direct call ``result = callee(args...)`` (result optional)."""

    def __init__(self, result: Optional[Variable], callee: str, args: list[Expr]) -> None:
        super().__init__()
        self.result = result
        self.callee = callee
        self.args = list(args)

    def exprs(self) -> tuple[Expr, ...]:
        return tuple(self.args)

    def __str__(self) -> str:
        argstr = ", ".join(str(a) for a in self.args)
        if self.result is not None:
            return f"{self.result} = call {self.callee}({argstr})"
        return f"call {self.callee}({argstr})"


class Alloc(Stmt):
    """Heap allocation: ``target = alloc(elem_type, count)``.

    Zero-initialised, like ``calloc``.  Each syntactic Alloc is an
    allocation site for the alias analyses.
    """

    def __init__(self, target: Variable, elem_type: Type, count: Expr) -> None:
        super().__init__()
        if not target.type.is_pointer:
            raise IRError("alloc target must be pointer-typed")
        self.target = target
        self.elem_type = elem_type
        self.count = count

    def exprs(self) -> tuple[Expr, ...]:
        return (self.count,)

    def __str__(self) -> str:
        return f"{self.target} = alloc({self.elem_type}, {self.count})"


class Print(Stmt):
    """Observable output (models ``printf``); the anchor of differential
    testing — every compilation mode must produce the same print stream."""

    def __init__(self, expr: Expr) -> None:
        super().__init__()
        self.expr = expr

    def exprs(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __str__(self) -> str:
        return f"print {self.expr}"


class EvalStmt(Stmt):
    """Evaluate an expression and discard the result (expression
    statements such as a bare call-free computation)."""

    def __init__(self, expr: Expr) -> None:
        super().__init__()
        self.expr = expr

    def exprs(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __str__(self) -> str:
        return f"eval {self.expr}"


class InvalidateCheck(Stmt):
    """``invala.e t`` — explicitly invalidate the ALAT entry backing the
    promoted temporary ``t`` (used at dominating points for partial
    redundancy, Figure 2b)."""

    def __init__(self, temp: Variable) -> None:
        super().__init__()
        if not temp.is_temp:
            raise IRError("invala.e operates on promoted temporaries")
        self.temp = temp

    def __str__(self) -> str:
        return f"invala.e {self.temp}"


class ConditionalReload(Stmt):
    """Software run-time disambiguation (Nicolau [30], paper section 5).

    Placed after a store ``*store_addr = ...`` that may alias the
    promoted location at ``home_addr`` held in ``temp``: if at run time
    the two addresses are equal, the temporary is refreshed from memory.
    Lowered to a compare plus a predicated load.
    """

    def __init__(self, temp: Variable, home_addr: Expr, store_addr: Expr) -> None:
        super().__init__()
        if not home_addr.type.is_pointer:
            raise IRError("ConditionalReload home_addr must be a pointer")
        self.temp = temp
        self.home_addr = home_addr
        self.store_addr = store_addr

    def exprs(self) -> tuple[Expr, ...]:
        return (self.home_addr, self.store_addr)

    def __str__(self) -> str:
        return (
            f"if ({self.store_addr} == {self.home_addr}) "
            f"{self.temp} = *({self.home_addr})"
        )


# --------------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------------


class Terminator(Stmt):
    @property
    def is_terminator(self) -> bool:
        return True

    def targets(self) -> tuple["BasicBlock", ...]:
        return ()


class Return(Terminator):
    """Return from the function, optionally with a value."""

    def __init__(self, expr: Optional[Expr] = None) -> None:
        super().__init__()
        self.expr = expr

    def exprs(self) -> tuple[Expr, ...]:
        return (self.expr,) if self.expr is not None else ()

    def __str__(self) -> str:
        return f"return {self.expr}" if self.expr is not None else "return"


class Jump(Terminator):
    """Unconditional branch."""

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__()
        self.target = target

    def targets(self) -> tuple["BasicBlock", ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"goto {self.target.label}"


class CondBranch(Terminator):
    """Two-way conditional branch on a boolean expression."""

    def __init__(self, cond: Expr, then_block: "BasicBlock", else_block: "BasicBlock") -> None:
        super().__init__()
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block

    def exprs(self) -> tuple[Expr, ...]:
        return (self.cond,)

    def targets(self) -> tuple["BasicBlock", ...]:
        return (self.then_block, self.else_block)

    def __str__(self) -> str:
        return f"if {self.cond} goto {self.then_block.label} else {self.else_block.label}"


def stmt_defines(stmt: Stmt) -> Optional[Variable]:
    """The variable directly (must-)defined by ``stmt``, if any."""
    kind = type(stmt)  # no statement class is subclassed
    if kind is Assign or kind is Alloc:
        return stmt.target
    if kind is Call:
        return stmt.result
    if kind is ConditionalReload:
        return stmt.temp  # may-def, but treat as def for liveness safety
    return None


def stmt_loads_and_reads(stmt: Stmt) -> tuple[list[Load], list[VarRead]]:
    """``stmt``'s indirect loads and its variable reads, each in
    pre-order: one walk for a pass that wants both."""
    loads: list[Load] = []
    reads: list[VarRead] = []
    # the walk of expr_nodes, sorting the nodes as they are taken
    stack = list(stmt.exprs())
    stack.reverse()
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        kind = type(e)
        if kind is VarRead:
            reads.append(e)
        elif kind is BinOp:
            push(e.right)
            push(e.left)
        elif kind is Load:
            loads.append(e)
            push(e.addr)
        elif kind is UnOp:
            push(e.operand)
        elif kind is not ConstInt and kind is not ConstFloat and kind is not AddrOf:
            stack.extend(e.children()[::-1])
    return loads, reads
