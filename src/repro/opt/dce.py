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

from repro.analysis.liveness import compute_liveness, stmt_use_mask
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


def _sweep_dead_assigns(fn: Function) -> int:
    # Each statement's uses, read once as a bit set over the function's
    # variables: by the liveness solve and again by the sweep below.
    bits: dict[int, int] = {}
    uses_of = {
        stmt.sid: stmt_use_mask(stmt, bits)
        for block in fn.blocks
        for stmt in block.stmts
    }
    liveness = compute_liveness(fn, uses_of, bits)
    removed = 0
    for block in fn.blocks:
        live = liveness.live_out_mask(block)
        stmts = block.stmts
        kept: list[Stmt] = []
        # backward scan, deciding each statement against the liveness
        # state *after* it: a plain assignment to a register temporary,
        # or a conditional reload, whose target is dead is removed
        for stmt in reversed(stmts):
            target = stmt_defines(stmt)
            if target is not None:
                bit = bits.get(target.id, 0)
                if not live & bit:
                    kind = type(stmt)
                    if kind is ConditionalReload or (
                        kind is Assign
                        and stmt.spec_flag is SpecFlag.NONE
                        and target.is_temp
                    ):
                        stmt.block = None
                        removed += 1
                        continue
                live &= ~bit
            live |= uses_of[stmt.sid]
            kept.append(stmt)
        if len(kept) != len(stmts):
            kept.reverse()
            stmts[:] = kept
    return removed


def eliminate_dead_code_in_function(fn: Function) -> int:
    """One DCE round; returns the number of changes (0 = converged)."""
    changes = _fold_constant_branches(fn)
    changes += _sweep_dead_assigns(fn)
    if changes:
        fn.compute_preds()
    return changes
