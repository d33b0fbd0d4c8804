"""Basic blocks and CFG edges.

A block owns an ordered statement list whose last element must be a
terminator.  Predecessor lists are maintained by :class:`Function` (they
are derived data recomputed after structural edits).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.errors import IRError
from repro.ir.stmt import Stmt, Terminator

_block_ids = itertools.count(1)


class BasicBlock:
    """A straight-line sequence of statements ending in a terminator."""

    def __init__(self, label: str) -> None:
        self.bid = next(_block_ids)
        self.label = label
        self.stmts: list[Stmt] = []
        self.preds: list["BasicBlock"] = []
        # SSA phi nodes (variable phis and PRE expression Phis) attach
        # here; they conceptually execute before the statements.
        self.phis: list = []

    # -- structure ----------------------------------------------------

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.stmts and isinstance(self.stmts[-1], Terminator):
            return self.stmts[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> tuple["BasicBlock", ...]:
        stmts = self.stmts
        if stmts and isinstance(stmts[-1], Terminator):
            return stmts[-1].targets()
        return ()

    # -- mutation -----------------------------------------------------

    def append(self, stmt: Stmt) -> Stmt:
        """Append a statement; terminators may only appear last."""
        if self.is_terminated:
            raise IRError(f"block {self.label} is already terminated")
        stmt.block = self
        self.stmts.append(stmt)
        return stmt

    def insert(self, index: int, stmt: Stmt) -> Stmt:
        """Insert a non-terminator statement at ``index``."""
        if stmt.is_terminator:
            raise IRError("cannot insert a terminator mid-block")
        stmt.block = self
        self.stmts.insert(index, stmt)
        return stmt

    def insert_before(self, anchor: Stmt, stmt: Stmt) -> Stmt:
        """Insert ``stmt`` immediately before ``anchor`` in this block."""
        idx = self._index_of(anchor)
        return self.insert(idx, stmt)

    def insert_after(self, anchor: Stmt, stmt: Stmt) -> Stmt:
        """Insert ``stmt`` immediately after ``anchor`` in this block."""
        idx = self._index_of(anchor)
        return self.insert(idx + 1, stmt)

    def replace(self, old: Stmt, new: Stmt) -> Stmt:
        """Replace ``old`` with ``new`` in place (same position)."""
        idx = self._index_of(old)
        if old.is_terminator != new.is_terminator:
            raise IRError("replacement must preserve terminator-ness")
        new.block = self
        self.stmts[idx] = new
        old.block = None
        return new

    def remove(self, stmt: Stmt) -> None:
        idx = self._index_of(stmt)
        del self.stmts[idx]
        stmt.block = None

    def _index_of(self, stmt: Stmt) -> int:
        for i, s in enumerate(self.stmts):
            if s is stmt:
                return i
        raise IRError(f"statement not in block {self.label}: {stmt}")

    # -- iteration ----------------------------------------------------

    def body(self) -> Iterator[Stmt]:
        """Statements excluding the terminator."""
        for s in self.stmts:
            if not s.is_terminator:
                yield s

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.stmts)} stmts)"

    def __str__(self) -> str:
        return self.label
