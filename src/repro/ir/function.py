"""Function: a CFG plus its symbol environment."""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.errors import IRError
from repro.ir.cfg import BasicBlock
from repro.ir.stmt import CondBranch, Jump, Stmt
from repro.ir.symbols import StorageClass, Variable
from repro.ir.types import Type, VOID


class Function:
    """A function under compilation.

    Attributes:
        name: function name (unique within a module).
        params: ordered parameter variables (storage PARAM).
        return_type: declared return type.
        locals: every non-param variable the function owns, including
            compiler temporaries.
        blocks: basic blocks in layout order; ``blocks[0]`` is the entry.
    """

    def __init__(self, name: str, params: list[Variable], return_type: Type = VOID) -> None:
        self.name = name
        self.params = list(params)
        self.return_type = return_type
        self.locals: list[Variable] = []
        self.blocks: list[BasicBlock] = []
        self._label_counter = itertools.count(1)
        self._temp_counter = itertools.count(1)

    # -- structure ----------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create a block and append it to the layout."""
        label = f"{hint}{next(self._label_counter)}"
        block = BasicBlock(label)
        self.blocks.append(block)
        return block

    def add_local(self, var: Variable) -> Variable:
        self.locals.append(var)
        return var

    def new_temp(self, type: Type, hint: str = "t") -> Variable:
        """Create a register-only compiler temporary."""
        var = Variable(f"{hint}{next(self._temp_counter)}", type, StorageClass.TEMP)
        self.locals.append(var)
        return var

    def new_local(self, name: str, type: Type) -> Variable:
        var = Variable(name, type, StorageClass.LOCAL)
        self.locals.append(var)
        return var

    def all_variables(self) -> list[Variable]:
        """Params followed by locals (no duplicates by construction)."""
        return self.params + self.locals

    # -- derived data ---------------------------------------------------

    def compute_preds(self) -> None:
        """Recompute predecessor lists from terminators."""
        for b in self.blocks:
            b.preds = []
        for b in self.blocks:
            for succ in b.successors():
                succ.preds.append(b)

    def reachable_blocks(self) -> list[BasicBlock]:
        """Blocks reachable from entry, in reverse-postorder (of a
        depth-first walk taking successors in branch order)."""
        if not self.blocks:
            return []
        entry = self.entry
        seen = {entry.bid}
        order: list[BasicBlock] = []
        frames = [(entry, iter(entry.successors()))]
        while frames:
            block, succs = frames[-1]
            for succ in succs:
                if succ.bid not in seen:
                    seen.add(succ.bid)
                    frames.append((succ, iter(succ.successors())))
                    break
            else:
                frames.pop()
                order.append(block)
        order.reverse()
        return order

    def remove_unreachable_blocks(self) -> int:
        """Drop blocks not reachable from entry; returns count removed."""
        reachable = {b.bid for b in self.reachable_blocks()}
        removed = [b for b in self.blocks if b.bid not in reachable]
        self.blocks = [b for b in self.blocks if b.bid in reachable]
        self.compute_preds()
        return len(removed)

    def iter_stmts(self) -> Iterator[Stmt]:
        """All statements in layout order."""
        for block in self.blocks:
            yield from block.stmts

    # -- CFG edits ------------------------------------------------------

    def split_edge(self, pred: BasicBlock, succ: BasicBlock) -> BasicBlock:
        """Insert a new empty block on the edge pred->succ.

        Needed by PRE's Finalize/CodeMotion to place insertions on
        critical edges.  Returns the new block (which jumps to succ).
        """
        term = pred.terminator
        if term is None:
            raise IRError(f"block {pred.label} has no terminator")
        mid = self.new_block("edge")
        mid.append(Jump(succ))
        if isinstance(term, Jump):
            if term.target is not succ:
                raise IRError("edge does not exist")
            term.target = mid
        elif isinstance(term, CondBranch):
            hit = False
            if term.then_block is succ:
                term.then_block = mid
                hit = True
            if term.else_block is succ:
                term.else_block = mid
                hit = True
            if not hit:
                raise IRError("edge does not exist")
        else:
            raise IRError(f"cannot split edge out of terminator {term}")
        self.compute_preds()
        return mid

    def __repr__(self) -> str:
        return f"Function({self.name!r}, {len(self.blocks)} blocks)"
