"""IR expression trees.

Expressions are *almost* immutable trees: passes that rewrite code build
new statements rather than mutating shared expressions.  Two loads are
first-class expression kinds so register promotion can target them:

* :class:`VarRead` — a **direct load** of a named variable.  When the
  variable has a memory home this is a real memory access; when it is a
  temporary it reads a register.
* :class:`Load` — an **indirect load** through a computed address
  (``*p``, ``p->f``, ``a[i]`` all lower to this).

Every expression node carries a ``type``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator

from repro.errors import IRError
from repro.ir.symbols import Variable
from repro.ir.types import BOOL, FLOAT, INT, BoolType, FloatType, IntType, PointerType, Type

_expr_ids = itertools.count(1)


class Expr:
    """Base class of expression nodes.

    Each node has a unique ``eid`` used by analyses to key per-occurrence
    facts (e.g. the alias profile records target sets per Load eid).
    """

    type: Type

    def __init__(self) -> None:
        self.eid = next(_expr_ids)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:  # overridden by every subclass
        return f"<expr {self.eid}>"


class ConstInt(Expr):
    """Integer literal."""

    def __init__(self, value: int, type: Type = INT) -> None:
        super().__init__()
        self.value = int(value)
        self.type = type

    def __str__(self) -> str:
        return str(self.value)


class ConstFloat(Expr):
    """Floating-point literal."""

    def __init__(self, value: float) -> None:
        super().__init__()
        self.value = float(value)
        self.type = FLOAT

    def __str__(self) -> str:
        return repr(self.value)


class VarRead(Expr):
    """Direct load of a variable (a register-promotion candidate when the
    variable is aliased/address-taken)."""

    def __init__(self, var: Variable) -> None:
        super().__init__()
        self.var = var
        self.type = var.type

    def __str__(self) -> str:
        return self.var.name


class Load(Expr):
    """Indirect load of ``type`` through ``addr`` (which must be pointer-
    typed).  The central register-promotion candidate of the paper."""

    def __init__(self, addr: Expr, type: Type) -> None:
        super().__init__()
        if not addr.type.is_pointer:
            raise IRError(f"Load address has non-pointer type {addr.type}")
        self.addr = addr
        self.type = type

    def children(self) -> tuple[Expr, ...]:
        return (self.addr,)

    def __str__(self) -> str:
        return f"*({self.addr})"


class AddrOf(Expr):
    """Address of a variable with a memory home (``&v``)."""

    def __init__(self, var: Variable) -> None:
        super().__init__()
        if not var.has_memory_home:
            raise IRError(f"cannot take address of register temp {var.name}")
        self.var = var
        self.type = PointerType(var.type)

    def __str__(self) -> str:
        return f"&{self.var.name}"


class BinOpKind(enum.Enum):
    """Binary operators.  Comparison operators produce BOOL."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&&"
    OR = "||"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def is_comparison(self) -> bool:
        return self in _COMPARISONS

    @property
    def is_logical(self) -> bool:
        return self in (BinOpKind.AND, BinOpKind.OR)


_COMPARISONS = {
    BinOpKind.EQ,
    BinOpKind.NE,
    BinOpKind.LT,
    BinOpKind.LE,
    BinOpKind.GT,
    BinOpKind.GE,
}


class BinOp(Expr):
    """Binary operation.  The result type is computed from the operand
    types: comparisons/logicals give BOOL, pointer arithmetic gives the
    pointer type, mixed int/float arithmetic gives float."""

    def __init__(self, op: BinOpKind, left: Expr, right: Expr) -> None:
        super().__init__()
        self.op = op
        self.left = left
        self.right = right
        self.type = _binop_result_type(op, left.type, right.type)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


def _binop_result_type(op: BinOpKind, lt: Type, rt: Type) -> Type:
    if op.is_comparison or op.is_logical:
        return BOOL
    if isinstance(lt, PointerType) and isinstance(rt, (IntType, BoolType)):
        if op not in (BinOpKind.ADD, BinOpKind.SUB):
            raise IRError(f"invalid pointer arithmetic {lt} {op.value} {rt}")
        return lt
    if isinstance(lt, PointerType) and isinstance(rt, PointerType):
        if op is BinOpKind.SUB:
            return INT
        raise IRError(f"invalid pointer arithmetic {lt} {op.value} {rt}")
    if isinstance(lt, FloatType) or isinstance(rt, FloatType):
        return FLOAT
    if isinstance(lt, (IntType, BoolType)) and isinstance(rt, (IntType, BoolType)):
        return INT
    raise IRError(f"invalid operand types {lt} {op.value} {rt}")


class UnOpKind(enum.Enum):
    NEG = "-"
    NOT = "!"
    I2F = "(float)"
    F2I = "(int)"


class UnOp(Expr):
    """Unary operation (negation, logical not, int<->float conversion)."""

    def __init__(self, op: UnOpKind, operand: Expr) -> None:
        super().__init__()
        self.op = op
        self.operand = operand
        if op is UnOpKind.NOT:
            self.type = BOOL
        elif op is UnOpKind.I2F:
            self.type = FLOAT
        elif op is UnOpKind.F2I:
            self.type = INT
        else:
            self.type = operand.type

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op.value}({self.operand})"


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    return walk_exprs_of((expr,))


def walk_exprs_of(roots: tuple[Expr, ...]) -> Iterator[Expr]:
    """Pre-order traversal of several expression trees in turn.

    One generator with an explicit stack instead of a recursive
    ``yield from`` per node.  A node's children are read when the
    walk resumes after yielding it, as the recursive walk read them, so
    a caller that rewrites a node's children before resuming sees the
    same nodes."""
    stack = list(roots)
    stack.reverse()
    pop, extend = stack.pop, stack.extend
    while stack:
        node = pop()
        yield node
        children = node.children()
        if children:
            extend(children[::-1])


#: expression kinds with no children
_LEAF_KINDS = frozenset((ConstInt, ConstFloat, VarRead, AddrOf))


def expr_nodes(roots: tuple[Expr, ...]) -> list[Expr]:
    """The nodes of several expression trees, pre-order, as one list.

    The same nodes in the same order as :func:`walk_exprs_of`, built
    without a generator resume per node: for read-only consumers.  A
    node's children are read when the node is taken, so a caller that
    rewrites children while it walks uses :func:`walk_exprs_of`."""
    out: list[Expr] = []
    append = out.append
    stack = list(roots)
    stack.reverse()
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        append(node)
        kind = type(node)
        if kind is BinOp:
            push(node.right)
            push(node.left)
        elif kind is Load:
            push(node.addr)
        elif kind is UnOp:
            push(node.operand)
        elif kind not in _LEAF_KINDS:
            stack.extend(node.children()[::-1])
    return out


def clone_expr(expr: Expr) -> Expr:
    """Deep-copy an expression tree, giving every node a fresh eid.

    Used by passes that duplicate code (e.g. recovery-block generation),
    where occurrence-keyed analyses must not confuse the copy with the
    original.
    """
    if isinstance(expr, ConstInt):
        return ConstInt(expr.value, expr.type)
    if isinstance(expr, ConstFloat):
        return ConstFloat(expr.value)
    if isinstance(expr, VarRead):
        return VarRead(expr.var)
    if isinstance(expr, AddrOf):
        clone = AddrOf(expr.var)
        clone.type = expr.type  # preserve array-decay retyping
        return clone
    if isinstance(expr, Load):
        return Load(clone_expr(expr.addr), expr.type)
    if isinstance(expr, BinOp):
        clone = BinOp(expr.op, clone_expr(expr.left), clone_expr(expr.right))
        clone.type = expr.type  # preserve pointer retyping from lowering
        return clone
    if isinstance(expr, UnOp):
        return UnOp(expr.op, clone_expr(expr.operand))
    raise IRError(f"clone_expr: unknown expression {expr!r}")


def exprs_syntactically_equal(a: Expr, b: Expr) -> bool:
    """Structural equality ignoring eids — the 'same lexical expression'
    relation used to group PRE candidate occurrences."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ConstInt):
        return a.value == b.value  # type: ignore[attr-defined]
    if isinstance(a, ConstFloat):
        return a.value == b.value  # type: ignore[attr-defined]
    if isinstance(a, VarRead):
        return a.var is b.var  # type: ignore[attr-defined]
    if isinstance(a, AddrOf):
        return a.var is b.var  # type: ignore[attr-defined]
    if isinstance(a, Load):
        assert isinstance(b, Load)
        return a.type == b.type and exprs_syntactically_equal(a.addr, b.addr)
    if isinstance(a, BinOp):
        assert isinstance(b, BinOp)
        return (
            a.op is b.op
            and exprs_syntactically_equal(a.left, b.left)
            and exprs_syntactically_equal(a.right, b.right)
        )
    if isinstance(a, UnOp):
        assert isinstance(b, UnOp)
        return a.op is b.op and exprs_syntactically_equal(a.operand, b.operand)
    raise IRError(f"exprs_syntactically_equal: unknown expression {a!r}")


def expr_lexical_key(expr: Expr) -> tuple:
    """A hashable key such that two expressions are syntactically equal
    iff their keys compare equal.  Used to bucket PRE candidates."""
    if isinstance(expr, ConstInt):
        return ("ci", expr.value)
    if isinstance(expr, ConstFloat):
        return ("cf", expr.value)
    if isinstance(expr, VarRead):
        return ("vr", expr.var.id)
    if isinstance(expr, AddrOf):
        return ("ao", expr.var.id)
    if isinstance(expr, Load):
        return ("ld", str(expr.type), expr_lexical_key(expr.addr))
    if isinstance(expr, BinOp):
        return ("bo", expr.op.value, expr_lexical_key(expr.left), expr_lexical_key(expr.right))
    if isinstance(expr, UnOp):
        return ("uo", expr.op.value, expr_lexical_key(expr.operand))
    raise IRError(f"expr_lexical_key: unknown expression {expr!r}")
