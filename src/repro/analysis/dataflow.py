"""Generic forward/backward worklist dataflow solver over the IR CFG.

Every iterative analysis in this package is an instance of the same
fixpoint computation: facts are finite sets, the meet over CFG edges is
union (may-analyses) or intersection (must-analyses), and a monotone
per-block transfer function maps the met value across the block.  This
module provides that computation once, so clients (liveness, the ALAT
pressure model) only supply direction, transfer, and meet.

Conventions:

* Facts are ``frozenset`` values of hashable elements.
* Only blocks reachable from the entry participate.  Unreachable blocks
  get no facts; accessors on the result default to the empty set.  This
  is deliberate — facts flowing out of dead code are phantoms (see the
  regression tests for the pre-fix ``loops``/``liveness`` behaviour).
* ``in_facts[bid]`` is always the value at block *entry* and
  ``out_facts[bid]`` the value at block *exit*, regardless of direction.
  A forward transfer maps entry→exit; a backward transfer maps
  exit→entry.
* The solver visits blocks from a worklist seeded in reverse postorder
  (forward) or postorder (backward), so structured CFGs converge in a
  couple of passes; ``DataflowResult.visits`` records the actual visit
  count for the termination tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.ir.cfg import BasicBlock
from repro.ir.function import Function

FORWARD = "forward"
BACKWARD = "backward"

#: A block transfer: (block, facts at the met side) -> facts at the
#: other side.  Must be monotone in its second argument or the solver
#: will not converge.
Transfer = Callable[[BasicBlock, frozenset], frozenset]


class DataflowDivergence(RuntimeError):
    """The solver exceeded its visit budget without reaching a fixpoint.

    On a finite set lattice with a monotone transfer this cannot happen;
    seeing it means the supplied transfer is non-monotone (or the budget
    passed by a test is deliberately tiny)."""


@dataclass
class DataflowResult:
    """Fixpoint facts per reachable block plus convergence metadata."""

    direction: str
    in_facts: dict[int, frozenset] = field(default_factory=dict)
    out_facts: dict[int, frozenset] = field(default_factory=dict)
    #: total block visits the worklist performed before the fixpoint
    visits: int = 0

    def entry(self, block: BasicBlock) -> frozenset:
        return self.in_facts.get(block.bid, frozenset())

    def exit(self, block: BasicBlock) -> frozenset:
        return self.out_facts.get(block.bid, frozenset())


_EMPTY: frozenset = frozenset()


def _meet_values(values: list[frozenset], meet: str) -> frozenset:
    if meet == "union":
        return _EMPTY.union(*values)
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
    order = list(rpo) if direction == FORWARD else list(reversed(rpo))
    if max_visits is None:
        max_visits = max(4096, 64 * len(order) * len(order))
    block_of = {b.bid: b for b in order}

    # The "solved" side: out for forward, in for backward.  None means
    # not yet computed (top for intersection meets).
    solved: dict[int, Optional[frozenset]] = dict.fromkeys(block_of)
    met: dict[int, frozenset] = {}

    # The CFG does not change during a solve, so each block's edges and
    # boundary test are taken once, as block ids.  ``edges_in`` feed a
    # block's meet; ``edges_out`` lead to the blocks requeued when its
    # value changes.
    preds = {
        bid: [p.bid for p in b.preds if p.bid in block_of]
        for bid, b in block_of.items()
    }
    succs = {
        bid: [s.bid for s in b.successors() if s.bid in block_of]
        for bid, b in block_of.items()
    }
    if direction == FORWARD:
        edges_in, edges_out = preds, succs
        boundary_bids = {rpo[0].bid}
    else:
        edges_in, edges_out = succs, preds
        boundary_bids = {bid for bid, out in succs.items() if not out}
    union = meet == "union"

    worklist: deque[int] = deque(block_of)
    queued = set(block_of)
    visits = 0
    while worklist:
        bid = worklist.popleft()
        queued.discard(bid)
        visits += 1
        if visits > max_visits:
            raise DataflowDivergence(
                f"{direction} dataflow in {fn.name!r} exceeded "
                f"{max_visits} block visits without converging"
            )
        known = [v for v in map(solved.__getitem__, edges_in[bid]) if v is not None]
        if bid in boundary_bids:
            known.append(boundary)
        if not known:
            value = _EMPTY
        elif union:
            value = _EMPTY.union(*known)
        else:
            value = _meet_values(known, meet)
        met[bid] = value
        new = transfer(block_of[bid], value)
        if new != solved[bid]:
            solved[bid] = new
            for t in edges_out[bid]:
                if t not in queued:
                    worklist.append(t)
                    queued.add(t)

    in_facts: dict[int, frozenset] = {}
    out_facts: dict[int, frozenset] = {}
    for bid in block_of:
        fixed = solved[bid]
        fixed = fixed if fixed is not None else _EMPTY
        if direction == FORWARD:
            in_facts[bid] = met.get(bid, _EMPTY)
            out_facts[bid] = fixed
        else:
            in_facts[bid] = fixed
            out_facts[bid] = met.get(bid, _EMPTY)
    return DataflowResult(direction, in_facts, out_facts, visits)


def gen_kill_transfer(
    gen: Mapping[int, frozenset],
    kill: Mapping[int, frozenset],
) -> Transfer:
    """The classic bit-vector transfer ``gen ∪ (facts − kill)``.

    ``gen``/``kill`` map block ids to fact sets; missing blocks default
    to empty.  Always monotone, so safe for any direction/meet."""

    def transfer(block: BasicBlock, facts: frozenset) -> frozenset:
        bid = block.bid
        return gen.get(bid, _EMPTY) | (facts - kill.get(bid, _EMPTY))

    return transfer
