"""Backward liveness of variables over the CFG.

Used by dead-code elimination, and by tests as an independent oracle on
promoted temporaries (a temporary introduced by PRE must be live from
its def to every check/use).

A union gen/kill problem on :func:`repro.analysis.dataflow.solve_bits`:
backward direction, classic ``use ∪ (out − def)`` transfer, one bit per
variable.  Unreachable blocks contribute nothing — their uses are
phantoms that would otherwise leak into predecessors' live-out sets —
and the accessors report them as having empty live sets.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from repro.analysis import dataflow
from repro.ir.cfg import BasicBlock
from repro.ir.expr import _LEAF_KINDS, BinOp, Load, UnOp, VarRead
from repro.ir.function import Function
from repro.ir.stmt import ConditionalReload, Stmt, stmt_defines
from repro.ir.symbols import Variable

#: variable id -> its bit (a one-bit int), numbered on first sight
VarBits = dict[int, int]


class LivenessInfo:
    """live_in / live_out sets of variable ids per block.

    The solve works on bit sets, one bit per variable (``bits`` maps a
    variable id to its bit); dead-code elimination reads the masks, and
    the frozensets are made from them on first read."""

    def __init__(
        self,
        bits: VarBits,
        masks: tuple[dict[int, int], dict[int, int], dict[int, int], dict[int, int]],
    ) -> None:
        self.bits = bits
        self.in_masks, self.out_masks, self.use_masks, self.def_masks = masks

    def live_out_mask(self, block: BasicBlock) -> int:
        return self.out_masks.get(block.bid, 0)

    def _sets(self, masks: dict[int, int]) -> dict[int, frozenset[int]]:
        order = list(self.bits)
        return {bid: dataflow.mask_set(m, order) for bid, m in masks.items()}

    @cached_property
    def live_in(self) -> dict[int, frozenset[int]]:
        return self._sets(self.in_masks)

    @cached_property
    def live_out(self) -> dict[int, frozenset[int]]:
        return self._sets(self.out_masks)

    @cached_property
    def use_sets(self) -> dict[int, frozenset[int]]:
        return self._sets(self.use_masks)

    @cached_property
    def def_sets(self) -> dict[int, frozenset[int]]:
        return self._sets(self.def_masks)

    def live_into(self, block: BasicBlock) -> frozenset[int]:
        return self.live_in.get(block.bid, frozenset())

    def live_outof(self, block: BasicBlock) -> frozenset[int]:
        return self.live_out.get(block.bid, frozenset())

    def is_live_into(self, var: Variable, block: BasicBlock) -> bool:
        return var.id in self.live_into(block)


def stmt_use_mask(stmt: Stmt, bits: VarBits) -> int:
    """The variables ``stmt`` reads, as a bit set over ``bits`` (which
    numbers each variable it has not seen yet).

    Every VarRead of its expressions counts, and of its chk.a recovery
    code, which executes at the statement's position; so does a
    ConditionalReload's own temp, which it may keep.  Only
    register-resident reads are uses in codegen's sense (a VarRead of a
    memory variable is a load), but every variable is tracked so
    liveness can serve the promotion tests (a promoted temp's VarRead
    is a register use by construction).
    """
    mask = 0
    stack = list(stmt.exprs())
    recovery = getattr(stmt, "recovery", None)
    if recovery:
        for r in recovery:
            stack.extend(r.exprs())
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        kind = type(e)
        if kind is VarRead:
            # dataflow.bit_of, written in: this is the hot loop
            bit = bits.get(e.var.id)
            if bit is None:
                bit = bits[e.var.id] = 1 << len(bits)
            mask |= bit
        elif kind is BinOp:
            push(e.left)
            push(e.right)
        elif kind is Load:
            push(e.addr)
        elif kind is UnOp:
            push(e.operand)
        elif kind not in _LEAF_KINDS:
            stack.extend(e.children())
    if type(stmt) is ConditionalReload:
        mask |= dataflow.bit_of(bits, stmt.temp.id)
    return mask


def _block_masks(
    block: BasicBlock, bits: VarBits, uses_of: Optional[dict[int, int]]
) -> tuple[int, int]:
    """Upward-exposed uses and defs of one block, as bit sets (a use
    counts unless an earlier statement of the block defines the
    variable)."""
    uses = defs = 0
    for stmt in block.stmts:
        read = uses_of[stmt.sid] if uses_of is not None else stmt_use_mask(stmt, bits)
        uses |= read & ~defs
        target = stmt_defines(stmt)
        if target is not None:
            defs |= dataflow.bit_of(bits, target.id)
    return uses, defs


def compute_liveness(
    fn: Function,
    uses_of: Optional[dict[int, int]] = None,
    bits: Optional[VarBits] = None,
) -> LivenessInfo:
    """Backward may-analysis over the reachable blocks.

    Only blocks reachable from the entry participate: use/def sets are
    not even computed for dead blocks, so a ``VarRead`` sitting in
    unreachable code cannot manufacture a live range.  ``uses_of``
    holds :func:`stmt_use_mask` over ``bits`` for every statement when
    the caller has them already (dead-code elimination reads them
    again)."""
    if bits is None:
        bits = {}
    use_masks: dict[int, int] = {}
    def_masks: dict[int, int] = {}
    rpo = fn.reachable_blocks()
    for block in rpo:
        use_masks[block.bid], def_masks[block.bid] = _block_masks(
            block, bits, uses_of
        )
    live_in, live_out, _ = dataflow.solve_bits(
        rpo, dataflow.BACKWARD, use_masks, def_masks
    )
    return LivenessInfo(bits, (live_in, live_out, use_masks, def_masks))
