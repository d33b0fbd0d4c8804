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

:func:`solve_bits` runs the same worklist for a union gen/kill problem
on int bit sets, one bit per fact, with the transfer written in: the
compiler solves liveness and the armed facts speclint reads that way on
every compile.
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
    n = len(rpo)
    if not n:
        return DataflowResult(direction)
    if max_visits is None:
        max_visits = max(4096, 64 * n * n)
    # The CFG does not change during a solve, so each block's edges are
    # taken once, by position in ``rpo``.
    edges_in, edges_out, order = _position_edges(rpo, direction)
    union = meet == "union"
    # The boundary joins the meet at the entry (forward) or at every
    # exit (backward); an empty one adds nothing to a union.
    if union and not boundary:
        at_boundary = [False] * n
    elif direction == FORWARD:
        at_boundary = [i == 0 for i in range(n)]
    else:
        at_boundary = [not succs for succs in edges_in]

    # The "solved" side: out for forward, in for backward.  None means
    # not yet computed (top for intersection meets).
    solved: list[Optional[frozenset]] = [None] * n
    met: list[frozenset] = [_EMPTY] * n
    worklist = deque(order)
    queued = [True] * n
    visits = 0
    while worklist:
        i = worklist.popleft()
        queued[i] = False
        visits += 1
        if visits > max_visits:
            raise DataflowDivergence(
                f"{direction} dataflow in {fn.name!r} exceeded "
                f"{max_visits} block visits without converging"
            )
        known = [v for v in map(solved.__getitem__, edges_in[i]) if v is not None]
        if at_boundary[i]:
            known.append(boundary)
        if not known:
            value = _EMPTY
        elif union:
            value = _EMPTY.union(*known)
        else:
            value = _meet_values(known, meet)
        met[i] = value
        new = transfer(rpo[i], value)
        if new != solved[i]:
            solved[i] = new
            for j in edges_out[i]:
                if not queued[j]:
                    worklist.append(j)
                    queued[j] = True

    result = DataflowResult(direction, visits=visits)
    fixed_side = result.out_facts if direction == FORWARD else result.in_facts
    met_side = result.in_facts if direction == FORWARD else result.out_facts
    for i in order:
        bid = rpo[i].bid
        fixed = solved[i]
        met_side[bid] = met[i]
        fixed_side[bid] = fixed if fixed is not None else _EMPTY
    return result


def _position_edges(
    rpo: list[BasicBlock], direction: str
) -> tuple[list[list[int]], list[list[int]], range]:
    """The edges between the blocks of ``rpo`` by position, as
    :func:`solve` takes them: ``(edges_in, edges_out, order)``, where
    ``edges_in`` feed a block's meet, ``edges_out`` lead to the blocks
    requeued when its value changes, and ``order`` seeds the
    worklist."""
    index = {b.bid: i for i, b in enumerate(rpo)}
    succs = [[index[s.bid] for s in b.successors() if s.bid in index] for b in rpo]
    preds = [[index[p.bid] for p in b.preds if p.bid in index] for b in rpo]
    n = len(rpo)
    if direction == FORWARD:
        return preds, succs, range(n)
    return succs, preds, range(n - 1, -1, -1)


def solve_bits(
    rpo: list[BasicBlock],
    direction: str,
    gen: Mapping[int, int],
    kill: Mapping[int, int],
) -> tuple[dict[int, int], dict[int, int], int]:
    """:func:`solve` of a union gen/kill problem over int bit sets.

    A fact is a bit; ``gen``/``kill`` map block ids to masks (missing
    blocks: 0) and the boundary is empty.  The worklist is
    :func:`solve`'s (seeded in reverse postorder or postorder, first in
    first out, a block requeued when its solved value changes), so it
    reaches the same fixpoint in the same number of visits as
    :func:`solve` with :func:`gen_kill_transfer` over the same facts.
    A gen/kill transfer is monotone, so no visit budget is needed.

    ``rpo`` is ``fn.reachable_blocks()`` (predecessor lists up to
    date).  Returns ``(in_masks, out_masks, visits)`` by block id, with
    the conventions of :class:`DataflowResult`."""
    n = len(rpo)
    edges_in, edges_out, order = _position_edges(rpo, direction)
    gens = [gen.get(b.bid, 0) for b in rpo]
    keeps = [~kill.get(b.bid, 0) for b in rpo]
    solved: list[Optional[int]] = [None] * n
    met = [0] * n
    worklist = deque(order)
    queued = [True] * n
    visits = 0
    while worklist:
        i = worklist.popleft()
        queued[i] = False
        visits += 1
        value = 0
        for j in edges_in[i]:
            v = solved[j]
            if v is not None:
                value |= v
        met[i] = value
        new = gens[i] | (value & keeps[i])
        if new != solved[i]:
            solved[i] = new
            for j in edges_out[i]:
                if not queued[j]:
                    worklist.append(j)
                    queued[j] = True
    fixed = {b.bid: solved[i] for i, b in enumerate(rpo)}
    meets = {b.bid: met[i] for i, b in enumerate(rpo)}
    if direction == FORWARD:
        return meets, fixed, visits
    return fixed, meets, visits


def bit_of(bits: dict, key) -> int:
    """The bit (a one-bit int) ``bits`` gives ``key``, numbering a key
    it has not seen yet; ``list(bits)[i]`` is the key of bit ``i``."""
    bit = bits.get(key)
    if bit is None:
        bit = bits[key] = 1 << len(bits)
    return bit


def mask_set(mask: int, order: list) -> frozenset:
    """The elements of ``mask``, where bit ``i`` stands for ``order[i]``."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(order[i])
        mask >>= 1
        i += 1
    return frozenset(out)


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
