"""Constant folding and algebraic simplification.

Folds pure operator trees over literals using exactly the interpreter's
semantics (wrapping 64-bit ints, C division), plus the safe algebraic
identities (``x+0``, ``x*1``, ``x*0`` — expressions are side-effect
free in this IR, so dropping an operand is always sound).
"""

from __future__ import annotations

from math import inf
from typing import Optional, Union

from repro.errors import InterpError
from repro.ir.expr import (
    BinOp,
    BinOpKind,
    ConstFloat,
    ConstInt,
    Expr,
    Load,
    UnOp,
    UnOpKind,
)
from repro.ir.function import Function
from repro.ir.interp import int_div, int_mod, wrap_int
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    EvalStmt,
    Print,
    Return,
    Stmt,
    Store,
)
from repro.ir.types import BoolType, IntType, PointerType


def _const_value(expr: Expr) -> Optional[Union[int, float]]:
    if isinstance(expr, ConstInt):
        return expr.value
    if isinstance(expr, ConstFloat):
        return expr.value
    return None


def _make_const(value: Union[int, float], like: Expr) -> Expr:
    if isinstance(value, float):
        return ConstFloat(value)
    const = ConstInt(wrap_int(value))
    const.type = like.type  # preserve pointer/bool result typing
    return const


def _fold_binop(expr: BinOp) -> Optional[Expr]:
    lhs = _const_value(expr.left)
    rhs = _const_value(expr.right)
    op = expr.op

    if lhs is not None and rhs is not None:
        try:
            if op is BinOpKind.ADD:
                result: Union[int, float] = lhs + rhs
            elif op is BinOpKind.SUB:
                result = lhs - rhs
            elif op is BinOpKind.MUL:
                result = lhs * rhs
            elif op is BinOpKind.DIV:
                if isinstance(lhs, float) or isinstance(rhs, float):
                    if rhs == 0:
                        return None  # preserve the runtime fault
                    result = lhs / rhs
                else:
                    result = int_div(lhs, rhs)
            elif op is BinOpKind.MOD:
                if isinstance(lhs, float) or isinstance(rhs, float):
                    return None
                result = int_mod(int(lhs), int(rhs))
            elif op is BinOpKind.EQ:
                result = 1 if lhs == rhs else 0
            elif op is BinOpKind.NE:
                result = 1 if lhs != rhs else 0
            elif op is BinOpKind.LT:
                result = 1 if lhs < rhs else 0
            elif op is BinOpKind.LE:
                result = 1 if lhs <= rhs else 0
            elif op is BinOpKind.GT:
                result = 1 if lhs > rhs else 0
            elif op is BinOpKind.GE:
                result = 1 if lhs >= rhs else 0
            else:
                return None
        except InterpError:
            return None  # division by zero etc.: keep the fault at runtime
        if isinstance(result, int) and not expr.type.is_float:
            result = wrap_int(result)
        return _make_const(result, expr)

    # Algebraic identities (expressions are pure, so dropping an operand
    # never loses a side effect; loads are NOT dropped to keep counter
    # semantics honest — x*0 only folds for load-free operands).  An
    # operand may only replace the whole operation when its type matches:
    # lowering retypes pointer arithmetic (e.g. `&s->field` is a
    # struct-pointer plus 0 retyped to a field pointer), and that
    # annotation must survive.
    def _same_type(replacement: Expr) -> Optional[Expr]:
        return replacement if replacement.type == expr.type else None

    int_like = isinstance(expr.type, (IntType, BoolType, PointerType))
    if op is BinOpKind.ADD:
        if rhs == 0:
            return _same_type(expr.left)
        if lhs == 0 and not expr.left.type.is_pointer:
            return _same_type(expr.right)
    elif op is BinOpKind.SUB and rhs == 0:
        return _same_type(expr.left)
    elif op is BinOpKind.MUL and int_like:
        if rhs == 1:
            return _same_type(expr.left)
        if lhs == 1:
            return _same_type(expr.right)
        if (rhs == 0 and _is_load_free(expr.left)) or (
            lhs == 0 and _is_load_free(expr.right)
        ):
            return _make_const(0, expr)
    elif op is BinOpKind.DIV and rhs == 1 and int_like:
        return _same_type(expr.left)
    return None


def _is_load_free(expr: Expr) -> bool:
    from repro.ir.expr import VarRead, walk_expr

    for node in walk_expr(expr):
        if isinstance(node, Load):
            return False
        if isinstance(node, VarRead) and node.var.has_memory_home:
            return False
    return True


def _fold_unop(expr: UnOp) -> Optional[Expr]:
    value = _const_value(expr.operand)
    if value is None:
        # --x => x
        if expr.op is UnOpKind.NEG and isinstance(expr.operand, UnOp) and expr.operand.op is UnOpKind.NEG:
            return expr.operand.operand
        return None
    if expr.op is UnOpKind.NEG:
        return _make_const(-value, expr)
    if expr.op is UnOpKind.NOT:
        return _make_const(0 if value else 1, expr)
    if expr.op is UnOpKind.I2F:
        return ConstFloat(float(value))
    if expr.op is UnOpKind.F2I and -inf < value < inf:
        # inf and nan have no integer: left to run time, like a
        # division by zero
        return _make_const(wrap_int(int(value)), expr)
    return None


def fold_expr(expr: Expr) -> Expr:
    """Recursively fold one expression tree (in place where possible)."""
    kind = type(expr)  # no expression class is subclassed
    if kind is BinOp:
        expr.left = fold_expr(expr.left)
        expr.right = fold_expr(expr.right)
        folded = _fold_binop(expr)
        return folded if folded is not None else expr
    if kind is Load:
        expr.addr = fold_expr(expr.addr)
        return expr
    if kind is UnOp:
        expr.operand = fold_expr(expr.operand)
        folded = _fold_unop(expr)
        return folded if folded is not None else expr
    return expr


def fold_constants_in_stmt(stmt: Stmt) -> None:
    """Fold each of ``stmt``'s expression slots in place."""
    kind = type(stmt)  # no statement class is subclassed
    if kind is Assign:
        stmt.expr = fold_expr(stmt.expr)
    elif kind is Store:
        stmt.addr = fold_expr(stmt.addr)
        stmt.value = fold_expr(stmt.value)
    elif kind is Call:
        stmt.args = [fold_expr(a) for a in stmt.args]
    elif kind is Alloc:
        stmt.count = fold_expr(stmt.count)
    elif kind is Print or kind is EvalStmt:
        stmt.expr = fold_expr(stmt.expr)
    elif kind is Return:
        if stmt.expr is not None:
            stmt.expr = fold_expr(stmt.expr)
    elif kind is CondBranch:
        stmt.cond = fold_expr(stmt.cond)
    elif kind is ConditionalReload:
        stmt.home_addr = fold_expr(stmt.home_addr)
        stmt.store_addr = fold_expr(stmt.store_addr)


def fold_constants_in_function(fn: Function) -> None:
    """Fold every statement's expressions (and recovery code)."""
    for stmt in fn.iter_stmts():
        fold_constants_in_stmt(stmt)
        recovery = getattr(stmt, "recovery", None)
        if recovery:
            for r in recovery:
                fold_constants_in_stmt(r)
