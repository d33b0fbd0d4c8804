"""IR structural verifier.

Run after construction and after every pass; any violation is a compiler
bug, reported as :class:`VerificationError`.  Checks:

* every block ends in exactly one terminator, and terminators appear
  only in final position;
* CFG edges are consistent (successor targets exist in the function,
  predecessor lists match successor lists);
* conditional branches have distinct targets (the frontend collapses
  degenerate branches so phi operands map 1:1 to predecessors);
* expressions are well-typed at statement boundaries (assign target type
  compatible with RHS, store through pointer, branch condition boolean);
* every variable referenced is a param, local, or global of the module;
* speculation flags are used consistently (checks only on temporaries,
  recovery only on chk.a).

A function's blocks are checked in layout order, each block's shape
before its statements, so the first defect in that order is the one
reported.  Statements and expressions are told apart by their exact
class (no IR class is subclassed outside :mod:`repro.ir`), and each
statement's expressions are read as one list.
"""

from __future__ import annotations

from repro.errors import VerificationError
from repro.ir.expr import AddrOf, BinOp, ConstFloat, ConstInt, Load, UnOp, VarRead
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    InvalidateCheck,
    Return,
    SpecFlag,
    Stmt,
    Store,
    Terminator,
)
from repro.ir.types import BoolType, IntType, types_compatible


def _fail(fn: Function, msg: str) -> None:
    raise VerificationError(f"{fn.name}: {msg}")


def verify_function(fn: Function, module: Module | None = None) -> None:
    if not fn.blocks:
        _fail(fn, "function has no blocks")

    known_vars = {v.id for v in fn.all_variables()}
    if module is not None:
        known_vars |= {g.id for g in module.globals}
    block_ids = {b.bid for b in fn.blocks}

    for block in fn.blocks:
        _verify_block_shape(fn, block, block_ids)
        for stmt in block.stmts:
            _verify_stmt(fn, stmt, known_vars, module)

    _verify_preds(fn)


def _verify_block_shape(fn: Function, block, block_ids: set[int]) -> None:
    stmts = block.stmts
    if not stmts:
        _fail(fn, f"block {block.label} is empty")
    last = len(stmts) - 1
    for i, stmt in enumerate(stmts):
        if isinstance(stmt, Terminator) != (i == last):
            _fail(fn, f"block {block.label}: terminator position violated at {stmt}")
        if stmt.block is not block:
            _fail(fn, f"block {block.label}: statement {stmt} has stale block pointer")
    term = stmts[-1]
    for target in term.targets():
        if target.bid not in block_ids:
            _fail(fn, f"block {block.label} branches to foreign block {target.label}")
    if isinstance(term, CondBranch) and term.then_block is term.else_block:
        _fail(fn, f"block {block.label}: conditional branch with identical targets")


def _verify_stmt(
    fn: Function,
    stmt: Stmt,
    known_vars: set[int],
    module: Module | None = None,
) -> None:
    # The statement's expression nodes in pre-order, checked as they
    # are taken (the walk of :func:`repro.ir.expr.expr_nodes`).
    stack = list(stmt.exprs())
    stack.reverse()
    pop, push = stack.pop, stack.append
    while stack:
        expr = pop()
        kind = type(expr)
        if kind is BinOp:
            push(expr.right)
            push(expr.left)
        elif kind is VarRead or kind is AddrOf:
            if expr.var.id not in known_vars:
                _fail(fn, f"unknown variable {expr.var.name} in {stmt}")
        elif kind is Load:
            if not expr.addr.type.is_pointer:
                _fail(fn, f"load through non-pointer in {stmt}")
            push(expr.addr)
        elif kind is UnOp:
            push(expr.operand)
        elif kind is not ConstInt and kind is not ConstFloat:
            stack.extend(expr.children()[::-1])

    kind = type(stmt)
    if kind is Assign:
        if stmt.target.id not in known_vars:
            _fail(fn, f"unknown assign target {stmt.target.name} in {stmt}")
        if not _assignable(stmt.target.type, stmt.expr.type):
            _fail(
                fn,
                f"type mismatch in {stmt}: {stmt.target.type} = {stmt.expr.type}",
            )
        flag = stmt.spec_flag
        if flag is not SpecFlag.NONE and flag.is_check and not stmt.target.is_temp:
            _fail(fn, f"check flag on non-temporary in {stmt}")
        if stmt.recovery is not None and not flag.is_branching_check:
            _fail(fn, f"recovery code without chk.a flag in {stmt}")
    elif kind is Store:
        if not stmt.addr.type.is_pointer:
            _fail(fn, f"store through non-pointer in {stmt}")
    elif kind is Call and module is not None:
        callee = module.functions.get(stmt.callee)
        if callee is None:
            _fail(fn, f"call to unknown function {stmt.callee} in {stmt}")
        if len(stmt.args) != len(callee.params):
            _fail(
                fn,
                f"call to {stmt.callee} passes {len(stmt.args)} argument(s), "
                f"expected {len(callee.params)} in {stmt}",
            )
        for param, arg in zip(callee.params, stmt.args):
            if not _assignable(param.type, arg.type):
                _fail(
                    fn,
                    f"argument type mismatch in {stmt}: parameter "
                    f"{param.name} is {param.type}, got {arg.type}",
                )
        if stmt.result is not None and not _assignable(
            stmt.result.type, callee.return_type
        ):
            _fail(
                fn,
                f"call result type mismatch in {stmt}: {stmt.result.type} "
                f"= {callee.return_type}",
            )
    elif kind is Alloc:
        if stmt.target.id not in known_vars:
            _fail(fn, f"unknown alloc target in {stmt}")
        if not isinstance(stmt.count.type, (IntType, BoolType)):
            _fail(fn, f"alloc count must be integer in {stmt}")
    elif kind is CondBranch:
        if not isinstance(stmt.cond.type, (BoolType, IntType)):
            _fail(fn, f"branch condition has type {stmt.cond.type} in {stmt}")
    elif kind is Return:
        if stmt.expr is not None and not _assignable(fn.return_type, stmt.expr.type):
            _fail(fn, f"return type mismatch in {stmt}")
    elif kind is InvalidateCheck:
        if stmt.temp.id not in known_vars:
            _fail(fn, f"unknown temp in {stmt}")
    elif kind is ConditionalReload:
        if stmt.temp.id not in known_vars:
            _fail(fn, f"unknown variable in {stmt}")
        if not stmt.home_addr.type.is_pointer or not stmt.store_addr.type.is_pointer:
            _fail(fn, f"non-pointer address in {stmt}")


def _assignable(target_type, value_type) -> bool:
    # bool results may be stored into ints and vice versa (comparisons
    # feeding arithmetic); everything else must be compatible.
    if target_type is value_type:
        return True
    if isinstance(target_type, (IntType, BoolType)) and isinstance(
        value_type, (IntType, BoolType)
    ):
        return True
    return types_compatible(target_type, value_type)


def _verify_preds(fn: Function) -> None:
    expected: dict[int, list[int]] = {b.bid: [] for b in fn.blocks}
    for b in fn.blocks:
        for s in b.successors():
            expected[s.bid].append(b.bid)
    for b in fn.blocks:
        # compute_preds lists the predecessors in this order, so the
        # lists are compared as multisets only when they differ
        actual = [p.bid for p in b.preds]
        want = expected[b.bid]
        if actual != want and sorted(actual) != sorted(want):
            _fail(fn, f"stale predecessor list on {b.label} (run compute_preds)")


def verify_module(module: Module) -> None:
    """Verify every function in the module."""
    if "main" not in module.functions:
        raise VerificationError("module has no main function")
    for fn in module.iter_functions():
        verify_function(fn, module)
