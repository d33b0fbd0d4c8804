"""Liveness, its dataflow solver and the dead-code sweep, kept as the
reference for the leaner ones.

This is ``repro.analysis.dataflow.solve``, ``repro.analysis.liveness``
and the decision of ``repro.opt.dce._sweep_dead_assigns`` as they stood
before each statement's uses were read once per sweep and the solver
worked on block ids: every statement is walked by its generator, once
for the block's use/def sets and once more by the sweep.
``tests/test_pass_reference.py`` runs them beside the compiler and
requires the same live-in and live-out sets per block and the same
statements removed in each DCE round.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Optional

from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowDivergence,
    DataflowResult,
    Transfer,
)
from repro.ir.cfg import BasicBlock
from repro.ir.expr import VarRead
from repro.ir.function import Function
from repro.ir.stmt import (
    Assign,
    ConditionalReload,
    SpecFlag,
    Stmt,
    stmt_defines,
)


def _meet_values(values: list[frozenset], meet: str) -> frozenset:
    if meet == "union":
        out: frozenset = frozenset()
        for v in values:
            out |= v
        return out
    acc = values[0]
    for v in values[1:]:
        acc &= v
    return acc


def solve(
    fn: Function,
    direction: str,
    transfer: Transfer,
    *,
    meet: str = "union",
    boundary: frozenset = frozenset(),
    max_visits: Optional[int] = None,
    rpo: Optional[list[BasicBlock]] = None,
) -> DataflowResult:
    """Run the worklist algorithm to a fixpoint.

    ``boundary`` is the value flowing into the entry block (forward) or
    out of every exit block (backward).  ``meet`` is ``"union"`` for
    may-analyses or ``"intersect"`` for must-analyses; with intersection,
    edges from not-yet-visited blocks are skipped (optimistic top) so the
    greatest fixpoint is reached.

    ``max_visits`` bounds total block visits (default: generous multiple
    of the block count) and raises :class:`DataflowDivergence` when
    exhausted — a tripwire for non-monotone transfers.

    ``rpo`` is ``fn.reachable_blocks()`` when the caller already holds
    it, so a solve does not walk the CFG again.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown dataflow direction: {direction!r}")
    if meet not in ("union", "intersect"):
        raise ValueError(f"unknown meet operator: {meet!r}")

    if rpo is None:
        rpo = fn.reachable_blocks()
    if not rpo:
        return DataflowResult(direction)
    reachable = {b.bid for b in rpo}
    order = list(rpo) if direction == FORWARD else list(reversed(rpo))
    if max_visits is None:
        max_visits = max(4096, 64 * len(order) * len(order))

    # The "solved" side: out for forward, in for backward.  None means
    # not yet computed (top for intersection meets).
    solved: dict[int, Optional[frozenset]] = {b.bid: None for b in order}
    met: dict[int, frozenset] = {}

    # The CFG does not change during a solve, so each block's edges and
    # boundary test are taken once.  ``edges_in`` feed a block's meet;
    # ``edges_out`` lead to the blocks requeued when its value changes.
    preds = {b.bid: [p for p in b.preds if p.bid in reachable] for b in order}
    succs = {b.bid: [s for s in b.successors() if s.bid in reachable] for b in order}
    if direction == FORWARD:
        edges_in, edges_out = preds, succs
        boundary_bids = {rpo[0].bid}
    else:
        edges_in, edges_out = succs, preds
        boundary_bids = {bid for bid, out in succs.items() if not out}

    worklist: deque[BasicBlock] = deque(order)
    queued = {b.bid for b in order}
    visits = 0
    while worklist:
        block = worklist.popleft()
        queued.discard(block.bid)
        visits += 1
        if visits > max_visits:
            raise DataflowDivergence(
                f"{direction} dataflow in {fn.name!r} exceeded "
                f"{max_visits} block visits without converging"
            )
        incoming = [solved[e.bid] for e in edges_in[block.bid]]
        known = [v for v in incoming if v is not None]
        if block.bid in boundary_bids:
            known.append(boundary)
        value = _meet_values(known, meet) if known else frozenset()
        met[block.bid] = value
        new = transfer(block, value)
        if new != solved[block.bid]:
            solved[block.bid] = new
            for t in edges_out[block.bid]:
                if t.bid not in queued:
                    worklist.append(t)
                    queued.add(t.bid)

    in_facts: dict[int, frozenset] = {}
    out_facts: dict[int, frozenset] = {}
    for block in order:
        fixed = solved[block.bid]
        fixed = fixed if fixed is not None else frozenset()
        if direction == FORWARD:
            in_facts[block.bid] = met.get(block.bid, frozenset())
            out_facts[block.bid] = fixed
        else:
            in_facts[block.bid] = fixed
            out_facts[block.bid] = met.get(block.bid, frozenset())
    return DataflowResult(direction, in_facts, out_facts, visits)


def gen_kill_transfer(
    gen: Mapping[int, frozenset],
    kill: Mapping[int, frozenset],
) -> Transfer:
    """The classic bit-vector transfer ``gen ∪ (facts − kill)``.

    ``gen``/``kill`` map block ids to fact sets; missing blocks default
    to empty.  Always monotone, so safe for any direction/meet."""

    def transfer(block: BasicBlock, facts: frozenset) -> frozenset:
        g = gen.get(block.bid, frozenset())
        k = kill.get(block.bid, frozenset())
        return g | (facts - k)

    return transfer


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

    def live_outof(self, block: BasicBlock) -> frozenset[int]:
        return self.live_out.get(block.bid, frozenset())


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

    result = solve(
        fn,
        BACKWARD,
        gen_kill_transfer(use_sets, def_sets),
        rpo=rpo,
    )
    return LivenessInfo(result.in_facts, result.out_facts, use_sets, def_sets)


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


def dead_assigns(fn: Function) -> list[int]:
    """The sids one DCE sweep removes, in removal order.

    ``_sweep_dead_assigns`` as it stood, deciding the same statements
    without removing them: a removed statement contributes nothing to
    the live set, whether or not it has left its block yet."""
    liveness = compute_liveness(fn)
    removed: list[int] = []
    for block in fn.blocks:
        live: set[int] = set(liveness.live_outof(block))
        # backward scan, deciding each statement against the liveness
        # state *after* it
        for stmt in reversed(list(block.stmts)):
            if _removable(stmt, live):
                removed.append(stmt.sid)
                continue
            target = stmt_defines(stmt)
            if target is not None:
                live.discard(target.id)
            for expr in stmt.walk_exprs():
                if isinstance(expr, VarRead):
                    live.add(expr.var.id)
            recovery = getattr(stmt, "recovery", None)
            if recovery:
                for r in recovery:
                    for expr in r.walk_exprs():
                        if isinstance(expr, VarRead):
                            live.add(expr.var.id)
            if isinstance(stmt, ConditionalReload):
                live.add(stmt.temp.id)  # may keep its old value
    return removed
