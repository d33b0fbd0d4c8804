"""Backward liveness of variables over the CFG.

Used by codegen to size register frames (which feeds the RSE model) and
by tests as an independent oracle on promoted temporaries (a temporary
introduced by PRE must be live from its def to every check/use).

An instance of the generic :mod:`repro.analysis.dataflow` solver:
backward direction, union meet, classic ``use ∪ (out − def)`` transfer.
Unreachable blocks contribute nothing — their uses are phantoms that
would otherwise leak into predecessors' live-out sets — and the
accessors report them as having empty live sets.
"""

from __future__ import annotations

from repro.analysis import dataflow
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function
from repro.ir.stmt import ConditionalReload, stmt_defines
from repro.ir.expr import VarRead
from repro.ir.symbols import Variable


class LivenessInfo:
    """live_in / live_out sets of variable ids per block."""

    def __init__(
        self,
        live_in: dict[int, frozenset[int]],
        live_out: dict[int, frozenset[int]],
        use_sets: dict[int, frozenset[int]],
        def_sets: dict[int, frozenset[int]],
    ) -> None:
        self.live_in = live_in
        self.live_out = live_out
        self.use_sets = use_sets
        self.def_sets = def_sets

    def live_into(self, block: BasicBlock) -> frozenset[int]:
        return self.live_in.get(block.bid, frozenset())

    def live_outof(self, block: BasicBlock) -> frozenset[int]:
        return self.live_out.get(block.bid, frozenset())

    def is_live_into(self, var: Variable, block: BasicBlock) -> bool:
        return var.id in self.live_into(block)


def _block_use_def(block: BasicBlock) -> tuple[set[int], set[int]]:
    """Upward-exposed uses and defs of one block.

    Only register-resident reads count as uses here: a VarRead of a
    memory variable is a load, not a register use, but we still track all
    variables so liveness can serve the promotion tests (a promoted
    temp's VarRead is a register use by construction).
    """
    uses: set[int] = set()
    defs: set[int] = set()
    for stmt in block.stmts:
        for expr in stmt.walk_exprs():
            if isinstance(expr, VarRead) and expr.var.id not in defs:
                uses.add(expr.var.id)
        recovery = getattr(stmt, "recovery", None)
        if recovery:
            # chk.a recovery executes at this statement's position
            for r in recovery:
                for expr in r.walk_exprs():
                    if isinstance(expr, VarRead) and expr.var.id not in defs:
                        uses.add(expr.var.id)
        # ConditionalReload reads its temp implicitly (may keep old value)
        if isinstance(stmt, ConditionalReload) and stmt.temp.id not in defs:
            uses.add(stmt.temp.id)
        target = stmt_defines(stmt)
        if target is not None:
            defs.add(target.id)
    return uses, defs


def compute_liveness(fn: Function) -> LivenessInfo:
    """Backward may-analysis on the generic worklist solver.

    Only blocks reachable from the entry participate: use/def sets are
    not even computed for dead blocks, so a ``VarRead`` sitting in
    unreachable code cannot manufacture a live range."""
    use_sets: dict[int, frozenset[int]] = {}
    def_sets: dict[int, frozenset[int]] = {}
    rpo = fn.reachable_blocks()
    for block in rpo:
        uses, defs = _block_use_def(block)
        use_sets[block.bid] = frozenset(uses)
        def_sets[block.bid] = frozenset(defs)

    result = dataflow.solve(
        fn,
        dataflow.BACKWARD,
        dataflow.gen_kill_transfer(use_sets, def_sets),
        rpo=rpo,
    )
    return LivenessInfo(result.in_facts, result.out_facts, use_sets, def_sets)
