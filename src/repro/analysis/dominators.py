"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

"A Simple, Fast Dominance Algorithm" — near-linear in practice and far
simpler than Lengauer–Tarjan, which matters for a readable reproduction.
Operates on reachable blocks only.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import IRError
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function


class DominatorTree:
    """Immutable dominator information for one function.

    ``idom[b]`` is the immediate dominator of block ``b`` (the entry has
    none).  ``children`` gives the dominator-tree children, and
    ``dominates(a, b)`` answers ancestor queries in O(1) using a DFS
    interval numbering of the tree.  ``rpo`` is the reverse postorder
    of the reachable blocks the tree was computed over.
    """

    def __init__(
        self,
        fn: Function,
        idom: dict[int, Optional[BasicBlock]],
        rpo: Optional[list[BasicBlock]] = None,
    ) -> None:
        self.fn = fn
        self._idom = idom
        self.rpo = rpo if rpo is not None else fn.reachable_blocks()
        self.children: dict[int, list[BasicBlock]] = {b.bid: [] for b in fn.blocks}
        for block in self.rpo:
            parent = idom.get(block.bid)
            if parent is not None:
                self.children[parent.bid].append(block)
        # DFS interval numbering for O(1) dominance queries.
        self._pre: dict[int, int] = {}
        self._post: dict[int, int] = {}
        counter = 0
        stack: list[tuple[BasicBlock, bool]] = [(fn.entry, False)]
        while stack:
            block, done = stack.pop()
            if done:
                self._post[block.bid] = counter
                counter += 1
                continue
            self._pre[block.bid] = counter
            counter += 1
            stack.append((block, True))
            for child in self.children[block.bid]:
                stack.append((child, False))

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator (None for the entry block)."""
        return self._idom.get(block.bid)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        pre = self._pre
        if a.bid not in pre or b.bid not in pre:
            return False  # unreachable block dominates nothing
        return pre[a.bid] <= pre[b.bid] and self._post[a.bid] >= self._post[b.bid]

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def preorder(self) -> Iterator[BasicBlock]:
        """Dominator-tree preorder traversal (the order SSAPRE's Rename
        step walks)."""
        stack = [self.fn.entry]
        while stack:
            block = stack.pop()
            yield block
            # reversed so children come out in insertion order
            for child in reversed(self.children[block.bid]):
                stack.append(child)

    def depth(self, block: BasicBlock) -> int:
        """Distance from the entry in the dominator tree."""
        d = 0
        cur: Optional[BasicBlock] = block
        while cur is not None and cur is not self.fn.entry:
            cur = self.idom(cur)
            d += 1
        return d


def compute_dominators(
    fn: Function, rpo: Optional[list[BasicBlock]] = None
) -> DominatorTree:
    """Compute the dominator tree of ``fn`` (preds must be up to date).

    ``rpo`` is ``fn.reachable_blocks()`` when the caller holds it.  The
    iteration runs on reverse-postorder positions: a block's position
    is its number, so "earlier in reverse postorder" is ``<``."""
    if rpo is None:
        rpo = fn.reachable_blocks()  # reverse postorder
    if not rpo or rpo[0] is not fn.entry:
        raise IRError(f"{fn.name}: entry must head the reverse postorder")
    order = {b.bid: i for i, b in enumerate(rpo)}
    preds = [[order[p.bid] for p in b.preds if p.bid in order] for b in rpo]
    idom: list[Optional[int]] = [None] * len(rpo)
    idom[0] = 0

    changed = True
    while changed:
        changed = False
        for i in range(1, len(rpo)):
            new = None
            for p in preds[i]:
                if idom[p] is None:
                    continue  # not processed yet
                if new is None:
                    new = p
                    continue
                a = p
                while a != new:
                    while a > new:
                        a = idom[a]
                    while new > a:
                        new = idom[new]
            if new is not None and idom[i] != new:
                idom[i] = new
                changed = True

    result: dict[int, Optional[BasicBlock]] = {fn.entry.bid: None}
    for i in range(1, len(rpo)):
        if idom[i] is not None:
            result[rpo[i].bid] = rpo[idom[i]]
    return DominatorTree(fn, result, rpo)
