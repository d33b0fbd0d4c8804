"""Expression rewriting utilities used by CodeMotion.

The IR keeps expressions as trees inside statements; CodeMotion must
replace individual occurrence *nodes* (identity, not structure) with
temporary reads.  ``replace_exprs_in_stmt`` rebuilds the statement's
expression trees, substituting the requested nodes.
"""

from __future__ import annotations


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
)
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


def rewrite_expr(expr: Expr, mapping: dict[int, Expr]) -> Expr:
    """Substitute nodes whose eid is in ``mapping`` within ``expr``.

    Substitution is *outside-in*: a mapped node is replaced wholesale
    (its children are not searched further).  Interior nodes are mutated
    **in place** rather than rebuilt, so unmapped nodes keep their
    identity (and eid) — later promotion rounds and other candidates'
    eid-keyed decisions stay valid across rewrites.
    """
    replacement = mapping.get(expr.eid)
    if replacement is not None:
        return replacement
    kind = type(expr)  # no expression class is subclassed
    if kind is Load:
        expr.addr = rewrite_expr(expr.addr, mapping)
    elif kind is BinOp:
        expr.left = rewrite_expr(expr.left, mapping)
        expr.right = rewrite_expr(expr.right, mapping)
    elif kind is UnOp:
        expr.operand = rewrite_expr(expr.operand, mapping)
    elif kind not in _LEAVES:
        raise IRError(f"rewrite_expr: unknown expression {expr!r}")
    return expr


_LEAVES = (ConstInt, ConstFloat, VarRead, AddrOf)


def replace_exprs_in_stmt(stmt: Stmt, mapping: dict[int, Expr]) -> None:
    """Replace occurrence nodes (by eid) across all of ``stmt``'s
    expression slots, in place."""
    if isinstance(stmt, Assign):
        stmt.expr = rewrite_expr(stmt.expr, mapping)
    elif isinstance(stmt, Store):
        stmt.addr = rewrite_expr(stmt.addr, mapping)
        stmt.value = rewrite_expr(stmt.value, mapping)
    elif isinstance(stmt, Call):
        stmt.args = [rewrite_expr(a, mapping) for a in stmt.args]
    elif isinstance(stmt, Alloc):
        stmt.count = rewrite_expr(stmt.count, mapping)
    elif isinstance(stmt, (Print, EvalStmt)):
        stmt.expr = rewrite_expr(stmt.expr, mapping)
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            stmt.expr = rewrite_expr(stmt.expr, mapping)
    elif isinstance(stmt, CondBranch):
        stmt.cond = rewrite_expr(stmt.cond, mapping)
    elif isinstance(stmt, ConditionalReload):
        stmt.home_addr = rewrite_expr(stmt.home_addr, mapping)
        stmt.store_addr = rewrite_expr(stmt.store_addr, mapping)
    # Jump / InvalidateCheck carry no expressions.
