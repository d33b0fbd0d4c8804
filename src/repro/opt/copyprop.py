"""Block-local copy and constant propagation over register temporaries.

Bindings are created only by plain (unflagged) assignments whose RHS is
a literal or a read of another register temporary; reads of memory
variables are loads and are never propagated (that would change the
program's memory traffic, which is precisely what the experiments
measure).  Speculation-flagged assignments never create bindings —
their value is decided at run time by the ALAT — but their address
operands may consume bindings (the address lives in a register either
way).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.expr import (
    BinOp,
    ConstFloat,
    ConstInt,
    Expr,
    Load,
    UnOp,
    VarRead,
)
from repro.ir.function import Function
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    EvalStmt,
    Print,
    Return,
    SpecFlag,
    Stmt,
    Store,
    stmt_defines,
)
from repro.ir.symbols import Variable

Binding = Expr  # ConstInt | ConstFloat | VarRead(register temp)


class _Env:
    def __init__(self) -> None:
        self.bindings: dict[int, Binding] = {}
        # var id -> binding-target var ids that read it
        self.readers: dict[int, set[int]] = {}
        #: substitutions made so far that changed what a statement reads
        self.substituted = 0

    def bind(self, target: Variable, value: Binding) -> None:
        self.kill(target.id)
        self.bindings[target.id] = value
        if isinstance(value, VarRead):
            self.readers.setdefault(value.var.id, set()).add(target.id)

    def kill(self, var_id: int) -> None:
        self.bindings.pop(var_id, None)
        for reader in self.readers.pop(var_id, ()):  # bindings reading var die
            self.bindings.pop(reader, None)

    def lookup(self, var: Variable) -> Optional[Binding]:
        return self.bindings.get(var.id)


def _is_register_read(expr: Expr) -> bool:
    return isinstance(expr, VarRead) and not expr.var.has_memory_home


def _copy_binding(value: Binding) -> Binding:
    # each use site needs a fresh node (eids must stay unique per tree)
    if isinstance(value, ConstInt):
        clone = ConstInt(value.value)
        clone.type = value.type
        return clone
    if isinstance(value, ConstFloat):
        return ConstFloat(value.value)
    assert isinstance(value, VarRead)
    return VarRead(value.var)


def _rewrite(expr: Expr, env: _Env) -> Expr:
    kind = type(expr)  # no expression class is subclassed
    if kind is VarRead:
        if not expr.var.has_memory_home:
            binding = env.lookup(expr.var)
            if binding is not None:
                new = _copy_binding(binding)
                # A temp bound to a same-named variable (a source local
                # named like a compiler temp) reads the same afterwards;
                # the pass has never counted that as a change.
                if str(new) != expr.var.name:
                    env.substituted += 1
                return new
        return expr
    if kind is BinOp:
        expr.left = _rewrite(expr.left, env)
        expr.right = _rewrite(expr.right, env)
    elif kind is Load:
        expr.addr = _rewrite(expr.addr, env)
    elif kind is UnOp:
        expr.operand = _rewrite(expr.operand, env)
    return expr


def _rewrite_stmt(stmt: Stmt, env: _Env) -> None:
    kind = type(stmt)  # no statement class is subclassed
    if kind is Assign:
        stmt.expr = _rewrite(stmt.expr, env)
    elif kind is Store:
        stmt.addr = _rewrite(stmt.addr, env)
        stmt.value = _rewrite(stmt.value, env)
    elif kind is Call:
        stmt.args = [_rewrite(a, env) for a in stmt.args]
    elif kind is Alloc:
        stmt.count = _rewrite(stmt.count, env)
    elif kind is Print or kind is EvalStmt:
        stmt.expr = _rewrite(stmt.expr, env)
    elif kind is Return:
        if stmt.expr is not None:
            stmt.expr = _rewrite(stmt.expr, env)
    elif kind is CondBranch:
        stmt.cond = _rewrite(stmt.cond, env)
    elif kind is ConditionalReload:
        stmt.home_addr = _rewrite(stmt.home_addr, env)
        stmt.store_addr = _rewrite(stmt.store_addr, env)


def propagate_copies_in_function(fn: Function) -> int:
    """Run block-local propagation; returns the number of replacements
    performed (0 means convergence)."""
    replaced = 0
    for block in fn.blocks:
        env = _Env()
        for stmt in block.stmts:
            recovery = getattr(stmt, "recovery", None)
            # With no binding in force a rewrite returns every node as
            # it is: skip it.
            if env.bindings:
                before = env.substituted
                _rewrite_stmt(stmt, env)
                if env.substituted != before:
                    replaced += 1
                if recovery:
                    # recovery executes exactly at this program point,
                    # so the same bindings hold (its rewrites are not
                    # counted)
                    for r in recovery:
                        _rewrite_stmt(r, env)

            target = stmt_defines(stmt)
            if target is not None:
                env.kill(target.id)
                if (
                    isinstance(stmt, Assign)
                    and stmt.spec_flag is SpecFlag.NONE
                    and target.is_temp
                    and (
                        isinstance(stmt.expr, (ConstInt, ConstFloat))
                        or _is_register_read(stmt.expr)
                    )
                    and not (
                        isinstance(stmt.expr, VarRead)
                        and stmt.expr.var is target
                    )
                ):
                    env.bind(target, stmt.expr)
            if recovery:
                for r in recovery:
                    rt = stmt_defines(r)
                    if rt is not None:
                        env.kill(rt.id)
    return replaced
