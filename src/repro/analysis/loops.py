"""Natural loop detection from back edges.

Used by the speculative promoter to recognise loop-invariant candidates
(paper Figure 3: hoist ``ld.sa`` above the loop, check with ``chk.a.nc``
inside) and by the benchmarks to report per-loop statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.dominators import DominatorTree
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function


@dataclass
class Loop:
    """One natural loop: header plus body blocks (header included)."""

    header: BasicBlock
    blocks: set[int] = field(default_factory=set)  # block ids
    back_edges: list[BasicBlock] = field(default_factory=list)  # latch blocks
    parent: Optional["Loop"] = None
    children: list["Loop"] = field(default_factory=list)

    def contains_block(self, block: BasicBlock) -> bool:
        return block.bid in self.blocks

    @property
    def depth(self) -> int:
        d = 1
        cur = self.parent
        while cur is not None:
            d += 1
            cur = cur.parent
        return d

    def __repr__(self) -> str:
        return f"Loop(header={self.header.label}, {len(self.blocks)} blocks)"


class LoopForest:
    """All natural loops of a function, nested by containment."""

    def __init__(self, loops: list[Loop]) -> None:
        self.loops = loops
        self.top_level = [l for l in loops if l.parent is None]
        self._by_header: dict[int, Loop] = {l.header.bid: l for l in loops}

    def loop_with_header(self, block: BasicBlock) -> Optional[Loop]:
        return self._by_header.get(block.bid)

    def innermost_containing(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop whose body contains ``block``."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if block.bid in loop.blocks:
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)


def find_natural_loops(fn: Function, domtree: DominatorTree) -> LoopForest:
    """Find natural loops: for each back edge latch→header (where the
    header dominates the latch), the loop body is every block that can
    reach the latch without passing through the header."""
    loops_by_header: dict[int, Loop] = {}
    # the dominator tree's reverse postorder: the reachable blocks
    blocks = domtree.rpo
    reachable = {b.bid for b in blocks}
    dominates = domtree.dominates
    for block in blocks:
        for succ in block.successors():
            if dominates(succ, block):
                loop = loops_by_header.setdefault(succ.bid, Loop(succ))
                loop.back_edges.append(block)
                _collect_body(loop, block, reachable)
    loops = list(loops_by_header.values())
    for loop in loops:
        loop.blocks.add(loop.header.bid)
    _nest_loops(loops)
    return LoopForest(loops)


def cyclic_blocks(fn: Function) -> set[int]:
    """Ids of the blocks that lie on a CFG cycle: the members of every
    strongly connected component with more than one block, plus each
    block that branches to itself.

    Unlike :func:`find_natural_loops` this needs no dominance, so it
    also sees the cycles of irreducible CFGs, which IR built through
    the builder API may have.  Tarjan's algorithm, iterative."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[BasicBlock] = []
    on_stack: set[int] = set()
    cyclic: set[int] = set()
    for root in fn.blocks:
        if root.bid in index:
            continue
        index[root.bid] = low[root.bid] = len(index)
        stack.append(root)
        on_stack.add(root.bid)
        frames = [(root, iter(root.successors()))]
        while frames:
            block, succs = frames[-1]
            for succ in succs:
                if succ.bid not in index:
                    index[succ.bid] = low[succ.bid] = len(index)
                    stack.append(succ)
                    on_stack.add(succ.bid)
                    frames.append((succ, iter(succ.successors())))
                    break
                if succ is block:
                    cyclic.add(block.bid)
                if succ.bid in on_stack:
                    low[block.bid] = min(low[block.bid], index[succ.bid])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent.bid] = min(low[parent.bid], low[block.bid])
                if low[block.bid] == index[block.bid]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member.bid)
                        component.append(member.bid)
                        if member is block:
                            break
                    if len(component) > 1:
                        cyclic.update(component)
    return cyclic


def _collect_body(loop: Loop, latch: BasicBlock, reachable: set[int]) -> None:
    # The walk follows predecessor edges, which dead blocks may also
    # point along; restricting to ``reachable`` keeps unreachable code
    # from being reported as loop body (phantom blocks inflate every
    # loop-weighted cost model downstream).
    stack = [latch]
    while stack:
        block = stack.pop()
        if (
            block.bid not in reachable
            or block.bid in loop.blocks
            or block is loop.header
        ):
            continue
        loop.blocks.add(block.bid)
        stack.extend(block.preds)


def _nest_loops(loops: list[Loop]) -> None:
    # Smaller loops nest inside the smallest strictly-containing loop.
    by_size = sorted(loops, key=lambda l: len(l.blocks))
    for i, inner in enumerate(by_size):
        for outer in by_size[i + 1 :]:
            if inner is not outer and inner.header.bid in outer.blocks and inner.blocks <= outer.blocks:
                inner.parent = outer
                outer.children.append(inner)
                break
