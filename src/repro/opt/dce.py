"""Dead-code elimination.

Three conservative ingredients:

* fold conditional branches on constants into jumps and drop the
  unreachable blocks;
* remove plain assignments to register temporaries that are dead after
  the statement (expressions are pure, so this is always sound; removed
  loads are *dead loads* — real eliminations, counted like any other);
* never touch speculation-flagged statements, ``invala.e``,
  conditional reloads of live temps, or ``alloc`` (allocation order is
  observable through printed pointer values).
"""

from __future__ import annotations

from repro.analysis.liveness import compute_liveness, stmt_uses
from repro.ir.expr import ConstInt
from repro.ir.function import Function
from repro.ir.stmt import (
    Assign,
    CondBranch,
    ConditionalReload,
    Jump,
    SpecFlag,
    Stmt,
    stmt_defines,
)


def _fold_constant_branches(fn: Function) -> int:
    folded = 0
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, CondBranch) and isinstance(term.cond, ConstInt):
            target = term.then_block if term.cond.value else term.else_block
            block.replace(term, Jump(target))
            folded += 1
    if folded:
        fn.compute_preds()
        fn.remove_unreachable_blocks()
    return folded


def _removable(stmt: Stmt, live_after: set[int]) -> bool:
    if isinstance(stmt, Assign):
        return (
            stmt.spec_flag is SpecFlag.NONE
            and stmt.target.is_temp
            and stmt.target.id not in live_after
        )
    if isinstance(stmt, ConditionalReload):
        return stmt.temp.id not in live_after
    return False


def _sweep_dead_assigns(fn: Function) -> int:
    # Each statement's uses, read once: by the liveness solve and again
    # by the sweep below.
    uses_of = {stmt.sid: stmt_uses(stmt) for stmt in fn.iter_stmts()}
    liveness = compute_liveness(fn, uses_of)
    removed = 0
    for block in fn.blocks:
        live: set[int] = set(liveness.live_outof(block))
        # backward scan, deciding each statement against the liveness
        # state *after* it
        for stmt in reversed(list(block.stmts)):
            if _removable(stmt, live):
                block.remove(stmt)
                removed += 1
                continue
            target = stmt_defines(stmt)
            if target is not None:
                live.discard(target.id)
            live.update(uses_of[stmt.sid])
    return removed


def eliminate_dead_code_in_function(fn: Function) -> int:
    """One DCE round; returns the number of changes (0 = converged)."""
    changes = _fold_constant_branches(fn)
    changes += _sweep_dead_assigns(fn)
    if changes:
        fn.compute_preds()
    return changes
