"""IR-level speculation-safety rules (SPEC001-SPEC006).

Each rule is a small pass over one function's CFG using
:mod:`repro.analysis.dominators` and :mod:`repro.analysis.loops`, plus
two pieces of promotion metadata when available:

* ``facts.targets_by_temp`` — for every promoted temporary, the ids of
  the memory objects its home location may occupy (direct candidates:
  the variable's own object; indirect candidates: the access's
  points-to set).  Supplied by the driver from the PRE statistics.
* the :class:`~repro.alias.manager.AliasManager` — to ask which
  objects a store or call may write.

The alias-aware rules (SPEC002, SPEC004) are skipped without that
metadata; the structural rules always run.

Key semantic point shared by SPEC001/SPEC002: a definition of a checked
temporary is harmless exactly when it leaves ``temp == mem[home]`` —
loads from memory do by construction, computed values (``&a``, copies)
only after a sync store of the temp's value, and anything else needs a
re-arm (``ld.a``) or a check before the next use.  The ALAT check
hardware verifies "memory still holds what the register holds", so a
register/memory mismatch at a surviving entry is the miscompile these
rules exist to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.loops import find_natural_loops
from repro.ir.cfg import BasicBlock
from repro.ir.expr import Load, VarRead, walk_expr
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    ConditionalReload,
    InvalidateCheck,
    SpecFlag,
    Stmt,
    Store,
)
from repro.speclint.diagnostics import Diagnostic, Severity

_NONE: frozenset = frozenset()


@dataclass
class PromotionFacts:
    """Optional promotion metadata handed to the alias-aware rules."""

    #: temp variable id -> ids of memory objects backing its home
    targets_by_temp: dict[int, frozenset[int]] = field(default_factory=dict)
    #: temp variable id -> id of the direct candidate variable it
    #: promotes; used to resolve the points-to set of store addresses
    #: that promotion rewrote into temp reads (cloned exprs have no
    #: entry in the points-to solution)
    var_by_temp: dict[int, int] = field(default_factory=dict)


def lint_module(
    module: Module,
    alias_manager=None,
    facts: Optional[PromotionFacts] = None,
    alat_entries: int = 32,
) -> list[Diagnostic]:
    """Run every IR-level rule over every function of ``module``."""
    diags: list[Diagnostic] = []
    for fn in module.iter_functions():
        diags.extend(
            _FunctionLint(fn, alias_manager, facts, alat_entries).run()
        )
    return diags


# -- per-function analysis ------------------------------------------------


class _FunctionLint:
    def __init__(
        self,
        fn: Function,
        am,
        facts: Optional[PromotionFacts],
        alat_entries: int,
    ) -> None:
        self.fn = fn
        self.am = am
        self.facts = facts or PromotionFacts()
        self.alat_entries = alat_entries
        self.diags: list[Diagnostic] = []

        # per-temp statement inventories (keyed by variable id)
        self.arming: dict[int, list[Assign]] = {}
        self.checks: dict[int, list[Assign]] = {}
        self.invalas: dict[int, list[InvalidateCheck]] = {}
        self.plain_defs: dict[int, list[Stmt]] = {}
        #: the other statements that repair a temp: conditional reloads
        #: of it and the chk.a whose recovery reloads it
        self.recovered: dict[int, list[Stmt]] = {}
        plain_defs = self.plain_defs
        for block in fn.blocks:
            for stmt in block.stmts:
                kind = type(stmt)
                if kind is Assign:
                    flag = stmt.spec_flag
                    if flag is SpecFlag.NONE:
                        inventory = plain_defs
                    elif flag.is_advanced_load:
                        inventory = self.arming
                    elif flag.is_check:
                        inventory = self.checks
                        if stmt.recovery and flag.is_branching_check:
                            for r in stmt.recovery:
                                if isinstance(r, Assign):
                                    self.recovered.setdefault(
                                        r.target.id, []
                                    ).append(stmt)
                    else:
                        inventory = plain_defs
                    inventory.setdefault(stmt.target.id, []).append(stmt)
                elif kind is InvalidateCheck:
                    self.invalas.setdefault(stmt.temp.id, []).append(stmt)
                elif kind is ConditionalReload:
                    self.recovered.setdefault(stmt.temp.id, []).append(stmt)
                elif kind is Alloc:
                    plain_defs.setdefault(stmt.target.id, []).append(stmt)
                elif kind is Call and stmt.result is not None:
                    plain_defs.setdefault(stmt.result.id, []).append(stmt)

        #: temps participating in the ALAT protocol
        self.web_temps: set[int] = (
            set(self.arming) | set(self.checks) | set(self.invalas)
        )
        self._dep_cache: dict[int, frozenset[int]] = {}
        self._combined_cache: dict[int, frozenset[int]] = {}
        #: sid -> temps the statement syncs (see :meth:`_is_sync_of`)
        self._synced: dict[int, frozenset[int]] = {}
        #: sid -> objects the statement may write (see :meth:`_writes`)
        self._writes_of: dict[int, frozenset[int]] = {}
        #: sid -> (variables the statement reads, temps it repairs),
        #: read off a statement the first time a rule asks
        self._facts: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        #: loop header id -> the loop's statements in layout order
        self._loop_stmts: dict[int, list[Stmt]] = {}

    # Positions, dominators and loops are computed on first use: a
    # function with no ALAT protocol statement needs none of them.

    @cached_property
    def pos(self) -> dict[int, tuple[BasicBlock, int]]:
        """sid -> (block, index) for every statement in a block."""
        return {
            stmt.sid: (block, i)
            for block in self.fn.blocks
            for i, stmt in enumerate(block.stmts)
        }

    @cached_property
    def domtree(self) -> DominatorTree:
        return compute_dominators(self.fn)

    @cached_property
    def loops(self):
        return find_natural_loops(self.fn, self.domtree)

    def _facts_of(self, stmt: Stmt) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(variables ``stmt`` reads, temps it repairs), computed once:
        the path walks and the loop rule ask about many (temp,
        statement) pairs."""
        facts = self._facts.get(stmt.sid)
        if facts is None:
            reads = tuple(
                e.var.id for e in stmt.expr_nodes() if type(e) is VarRead
            )
            kind = type(stmt)
            if kind is Assign:
                repairs: tuple[int, ...] = (stmt.target.id,)
                if stmt.recovery and stmt.spec_flag.is_branching_check:
                    # chk.a recovery redefines its reloads
                    repairs += tuple(
                        r.target.id for r in stmt.recovery
                        if isinstance(r, Assign)
                    )
            elif kind is ConditionalReload:
                repairs = (stmt.temp.id,)
            elif kind is Alloc:
                repairs = (stmt.target.id,)
            elif kind is Call and stmt.result is not None:
                repairs = (stmt.result.id,)
            else:
                repairs = ()
            facts = self._facts[stmt.sid] = (reads, repairs)
        return facts

    def _loop_body(self, loop) -> list[Stmt]:
        stmts = self._loop_stmts.get(loop.header.bid)
        if stmts is None:
            stmts = self._loop_stmts[loop.header.bid] = [
                s for b in self.fn.blocks if b.bid in loop.blocks
                for s in b.stmts
            ]
        return stmts

    # -- shared helpers --------------------------------------------------

    def _report(
        self,
        rule: str,
        severity: Severity,
        stmt: Optional[Stmt],
        message: str,
    ) -> None:
        self.diags.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                function=self.fn.name,
                loc=stmt.loc if stmt is not None else None,
                sid=stmt.sid if stmt is not None else None,
            )
        )

    def _dominates_stmt(self, a: Stmt, b: Stmt) -> bool:
        """Does statement ``a`` execute before ``b`` on every path
        (statement-level dominance)?"""
        ba, ia = self.pos[a.sid]
        bb, ib = self.pos[b.sid]
        if ba is bb:
            return ia < ib
        return self.domtree.strictly_dominates(ba, bb)

    def _walk_forward(
        self,
        block: BasicBlock,
        start: int,
        visit: Callable[[Stmt], Optional[str]],
    ) -> Optional[Stmt]:
        """DFS over all paths from ``block.stmts[start]`` (inclusive).

        ``visit`` returns ``"hit"`` to report the statement, ``"stop"``
        to cut the current path, ``None`` to continue.  Returns the
        first hit found on any path, or None.
        """
        seen: set[int] = set()
        work: list[tuple[BasicBlock, int]] = [(block, start)]
        while work:
            blk, idx = work.pop()
            cut = False
            for stmt in blk.stmts[idx:]:
                verdict = visit(stmt)
                if verdict == "hit":
                    return stmt
                if verdict == "stop":
                    cut = True
                    break
            if cut:
                continue
            for succ in blk.successors():
                if succ.bid not in seen:
                    seen.add(succ.bid)
                    work.append((succ, 0))
        return None

    def _repairs(self, stmt: Stmt, temp_id: int) -> bool:
        """Does executing ``stmt`` re-establish ``temp == mem[home]``
        (or redefine the temp, starting a new reasoning window)?  An
        assignment, conditional reload, alloc or call result of the
        temp does, and so does a chk.a whose recovery reloads it."""
        return temp_id in self._facts_of(stmt)[1]

    def _repairers(self, temp_id: int) -> list[Stmt]:
        """Every statement for which :meth:`_repairs` holds."""
        return (
            self.arming.get(temp_id, [])
            + self.checks.get(temp_id, [])
            + self.plain_defs.get(temp_id, [])
            + self.recovered.get(temp_id, [])
        )

    def _reads_temp(self, stmt: Stmt, temp_id: int) -> bool:
        return temp_id in self._facts_of(stmt)[0]

    def _is_sync_of(self, stmt: Stmt, temp_id: int) -> bool:
        """A write that leaves the stored location holding the temp's
        register value, so register and memory agree again.  Two
        left-save shapes qualify: a write of exactly ``VarRead(t)``, and
        a write of an expression ``e`` that ``t`` was assigned in the
        run of assignments just before it (the emitter writes ``t = e;
        home = e`` rather than reading the temp back, and SSAPRE
        forwards one stored value into every temp caching the location:
        ``t1 = e; t2 = e; *(q) = e``).  The run holds only assignments
        of ``e`` to temps ``e`` does not read, and self-copies."""
        synced = self._synced.get(stmt.sid)
        if synced is None:
            synced = self._synced[stmt.sid] = self._synced_temps(stmt)
        return temp_id in synced

    def _synced_temps(self, stmt: Stmt) -> frozenset[int]:
        """Every temp ``stmt`` syncs: the stored temp itself, and each
        temp assigned in the run before it (the walk of
        :meth:`_is_sync_of`, done once for all temps)."""
        if isinstance(stmt, Assign) and stmt.target.has_memory_home:
            value = stmt.expr
        elif isinstance(stmt, Store):
            value = stmt.value
        else:
            return _NONE
        synced: set[int] = set()
        if isinstance(value, VarRead):
            synced.add(value.var.id)
        text = None
        reads = {e.var.id for e in walk_expr(value) if isinstance(e, VarRead)}
        block, idx = self.pos[stmt.sid]
        for j in range(idx - 1, -1, -1):
            prev = block.stmts[j]
            if not isinstance(prev, Assign):
                break
            target = prev.target.id
            if isinstance(prev.expr, VarRead) and prev.expr.var.id == target:
                continue
            if target in reads:
                break
            if text is None:
                text = str(value)
            if str(prev.expr) != text:
                break
            synced.add(target)
        return frozenset(synced)

    def _after(self, stmt: Stmt) -> tuple[BasicBlock, int]:
        block, idx = self.pos[stmt.sid]
        return block, idx + 1

    # -- dependency chains (cascades) ------------------------------------

    def _addr_dep_closure(self, temp_id: int) -> frozenset[int]:
        """Web temps the reload address of ``temp_id`` transitively
        reads: the cascade chain pi7 -> pa6 -> pi5 makes pi7 depend on
        pi5.  Closure walks through plain copies of intermediary temps.
        """
        cached = self._dep_cache.get(temp_id)
        if cached is not None:
            return cached
        deps: set[int] = set()
        seeds: list[Stmt] = []
        seeds += self.arming.get(temp_id, [])
        seeds += self.checks.get(temp_id, [])
        worklist: list[int] = []
        seen_vars: set[int] = {temp_id}
        for stmt in seeds:
            for e in stmt.expr_nodes():
                if isinstance(e, VarRead) and e.var.is_temp:
                    worklist.append(e.var.id)
        while worklist:
            v = worklist.pop()
            if v in seen_vars:
                continue
            seen_vars.add(v)
            if v in self.web_temps:
                deps.add(v)
                continue
            for d in self.plain_defs.get(v, []):
                for e in d.expr_nodes():
                    if isinstance(e, VarRead) and e.var.is_temp:
                        worklist.append(e.var.id)
        result = frozenset(deps)
        self._dep_cache[temp_id] = result
        return result

    def _dependents_of(self, temp_id: int) -> list[int]:
        """Web temps whose address chain depends on ``temp_id``."""
        return [
            v
            for v in self.web_temps
            if v != temp_id and temp_id in self._addr_dep_closure(v)
        ]

    def _combined_targets(self, temp_id: int) -> frozenset[int]:
        """Memory objects whose mutation can stale ``temp_id``: its own
        home objects plus those of every temp its address depends on (a
        store redirecting the pointer invalidates the cached value)."""
        cached = self._combined_cache.get(temp_id)
        if cached is not None:
            return cached
        ids = set(self.facts.targets_by_temp.get(temp_id, frozenset()))
        for dep in self._addr_dep_closure(temp_id):
            ids |= self.facts.targets_by_temp.get(dep, frozenset())
        result = frozenset(ids)
        self._combined_cache[temp_id] = result
        return result

    def _invalidates(self, stmt: Stmt, temp_id: int) -> bool:
        """May executing ``stmt`` change memory the temp caches, without
        restoring register/memory agreement?  Both must hold, so the
        cheap question (may it write the temp's objects?) goes first."""
        if self.am is None:
            return False
        targets = self._combined_targets(temp_id)
        if not targets or not self._writes(stmt) & targets:
            return False
        return not self._is_sync_of(stmt, temp_id)

    @staticmethod
    def _may_write(stmt: Stmt) -> bool:
        """Is ``stmt`` a store, a call or a direct store (the only
        statements :meth:`_writes` can find objects for)?"""
        kind = type(stmt)
        return kind is Store or kind is Call or (
            kind is Assign and stmt.target.has_memory_home
        )

    def _writes(self, stmt: Stmt) -> frozenset[int]:
        """Objects ``stmt`` may write: a store's (with the
        rewritten-address fallback for promotion temps, see
        :meth:`repro.alias.manager.AliasManager.store_write_ids`), a
        direct store's variable, a call's mod set.  Asked once per
        statement."""
        writes = self._writes_of.get(stmt.sid)
        if writes is None:
            kind = type(stmt)
            if kind is Store:
                writes = self.am.store_write_ids(stmt, self.facts.var_by_temp)
            elif kind is Assign and stmt.target.has_memory_home:
                obj = self.am.object_of_var(stmt.target)
                writes = frozenset((obj.id,)) if obj is not None else _NONE
            elif kind is Call:
                writes = frozenset(o.id for o in self.am.call_mod(stmt.callee))
            else:
                writes = _NONE
            self._writes_of[stmt.sid] = writes
        return writes

    # -- rules ------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        self.rule_spec001()
        self.rule_spec002()
        self.rule_spec003()
        self.rule_spec004()
        self.rule_spec005()
        self.rule_spec006()
        return self.diags

    def rule_spec001(self) -> None:
        """A computed (non-load) redefinition of a checked temp must be
        synced to memory or re-armed before any check of the temp; and
        every check should be dominated by some ALAT-establishing
        statement of the same temp (warn)."""
        for t, checks in self.checks.items():
            for d in self.plain_defs.get(t, []):
                if not isinstance(d, Assign):
                    continue
                if isinstance(d.expr, Load) or (
                    isinstance(d.expr, VarRead)
                    and d.expr.var.has_memory_home
                ):
                    # reload from memory: register == memory at the def
                    continue

                def visit(stmt: Stmt, t=t, d=d) -> Optional[str]:
                    if stmt is d:
                        return None
                    if self._is_sync_of(stmt, t):
                        return "stop"
                    if (
                        isinstance(stmt, Assign)
                        and stmt.target.id == t
                        and stmt.spec_flag.is_check
                    ):
                        return "hit"
                    if self._repairs(stmt, t):
                        return "stop"
                    return None

                block, idx = self._after(d)
                hit = self._walk_forward(block, idx, visit)
                if hit is not None:
                    self._report(
                        "SPEC001",
                        Severity.ERROR,
                        hit,
                        f"check of {d.target.name} is reachable from the "
                        f"computed redefinition at "
                        f"{d.loc if d.loc else f'sid {d.sid}'} with no "
                        f"intervening sync store or re-arm",
                    )

            establishers: list[Stmt] = (
                list(self.arming.get(t, []))
                + list(self.invalas.get(t, []))
                + list(checks)
            )
            name = checks[0].target.name
            for c in checks:
                if not any(
                    e is not c and self._dominates_stmt(e, c)
                    for e in establishers
                ):
                    self._report(
                        "SPEC001",
                        Severity.WARN,
                        c,
                        f"check of {name} is not dominated by an advanced "
                        f"load, invala.e, or earlier check of the same temp",
                    )

    def rule_spec002(self) -> None:
        """Every statement that may write a promoted temp's underlying
        memory (a speculated-away chi_s in particular) must be followed
        by a check on every path to every reuse of the temp."""
        if (
            self.am is None
            or not self.facts.targets_by_temp
            or not self.web_temps
        ):
            return
        # Only a statement that may write the temp's objects can
        # invalidate it (see :meth:`_invalidates`).
        writers = []
        for block in self.fn.blocks:
            for i, stmt in enumerate(block.stmts):
                if self._may_write(stmt):
                    writes = self._writes(stmt)
                    if writes:
                        writers.append((block, i, stmt, writes))
        for t in sorted(self.web_temps):
            targets = self._combined_targets(t)
            if not targets:
                continue
            tname = self._temp_name(t)
            for block, i, stmt, writes in writers:
                if not writes & targets or self._is_sync_of(stmt, t):
                    continue

                def visit(s: Stmt, t=t) -> Optional[str]:
                    if self._repairs(s, t):
                        return "stop"
                    if self._reads_temp(s, t):
                        return "hit"
                    return None

                hit = self._walk_forward(block, i + 1, visit)
                if hit is not None:
                    self._report(
                        "SPEC002",
                        Severity.ERROR,
                        hit,
                        f"use of speculated temp {tname} is reachable "
                        f"from the may-aliasing write at "
                        f"{stmt.loc if stmt.loc else f'sid {stmt.sid}'} "
                        f"with no intervening check",
                    )

    def rule_spec003(self) -> None:
        """Branching checks carry well-formed recovery that re-executes
        the full cascade chain; non-branching checks must not have live
        dependent cascaded loads (they cannot repair them)."""
        for t, checks in self.checks.items():
            dependents = self._dependents_of(t)
            tname = self._temp_name(t)
            for c in checks:
                live_deps = [
                    v for v in dependents if self._dep_live_after(c, v)
                ]
                if not c.spec_flag.is_branching_check:
                    if live_deps:
                        names = ", ".join(
                            sorted(self._temp_name(v) for v in live_deps)
                        )
                        self._report(
                            "SPEC003",
                            Severity.ERROR,
                            c,
                            f"check of {tname} must be a branching chk.a "
                            f"with recovery: dependent cascaded load(s) "
                            f"{names} are reused after it without a reload",
                        )
                    continue
                self._check_recovery(c, tname, live_deps)

    def _check_recovery(
        self, c: Assign, tname: str, live_deps: list[int]
    ) -> None:
        recovery = c.recovery or []
        if not recovery:
            self._report(
                "SPEC003",
                Severity.ERROR,
                c,
                f"branching check of {tname} has no recovery code",
            )
            return
        if not (
            isinstance(recovery[0], Assign)
            and recovery[0].target.id == c.target.id
        ):
            self._report(
                "SPEC003",
                Severity.ERROR,
                c,
                f"recovery of {tname} does not start by reloading the "
                f"checked temp itself",
            )
        defined: set[int] = set()
        for r in recovery:
            if not isinstance(r, Assign):
                self._report(
                    "SPEC003",
                    Severity.ERROR,
                    c,
                    f"recovery of {tname} contains non-reexecutable "
                    f"statement '{r}' (must be side-effect-free reloads)",
                )
                continue
            later_defs = {
                s.target.id
                for s in recovery
                if isinstance(s, Assign) and s is not r
            }
            for e in r.walk_exprs():
                if (
                    isinstance(e, VarRead)
                    and e.var.is_temp
                    and e.var.id in later_defs
                    and e.var.id not in defined
                ):
                    self._report(
                        "SPEC003",
                        Severity.ERROR,
                        c,
                        f"recovery of {tname} reads {e.var.name} before "
                        f"re-executing its load (cascade chain out of "
                        f"order)",
                    )
            defined.add(r.target.id)
        missing = [v for v in live_deps if v not in defined]
        if missing:
            names = ", ".join(sorted(self._temp_name(v) for v in missing))
            self._report(
                "SPEC003",
                Severity.ERROR,
                c,
                f"recovery of {tname} does not re-execute dependent "
                f"cascaded load(s) {names}",
            )

    def _dep_live_after(self, c: Assign, dep: int) -> bool:
        """Is a stale use of ``dep`` reachable from check ``c`` without
        an intervening reload of ``dep``?"""

        def visit(s: Stmt) -> Optional[str]:
            if s is c:
                return None
            if self._repairs(s, dep):
                return "stop"
            if self._reads_temp(s, dep):
                return "hit"
            return None

        block, idx = self._after(c)
        return self._walk_forward(block, idx, visit) is not None

    def rule_spec004(self) -> None:
        """A temp armed only outside a loop, used inside it, and
        invalidated inside it must have an in-loop repair."""
        if self.am is None or not self.facts.targets_by_temp or not self.arming:
            return
        for loop in self.loops:
            in_loop = self._loop_body(loop)
            for t in sorted(self.arming):
                if any(
                    self.pos[a.sid][0].bid in loop.blocks
                    for a in self.arming[t]
                ):
                    continue  # armed inside: not hoisted past this loop
                # The three conditions, cheapest first: no in-loop
                # repair (from the inventories), an in-loop write that
                # invalidates, a use.
                if any(
                    self.pos[r.sid][0].bid in loop.blocks
                    for r in self._repairers(t)
                ):
                    continue
                if not any(
                    self._invalidates(s, t)
                    for s in in_loop
                    if self._may_write(s)
                ):
                    continue
                uses = [s for s in in_loop if self._reads_temp(s, t)]
                if not uses:
                    continue
                self._report(
                    "SPEC004",
                    Severity.ERROR,
                    uses[0],
                    f"temp {self._temp_name(t)} armed outside the loop at "
                    f"{loop.header.label} may be invalidated inside it "
                    f"but has no in-loop check",
                )

    def rule_spec005(self) -> None:
        """Every check reachable from an invala.e of the same temp must
        be dominated by it — the invala clears the entry precisely so
        those checks conservatively reload."""
        for t, invalas in self.invalas.items():
            for inv in invalas:

                def visit(s: Stmt, t=t, inv=inv) -> Optional[str]:
                    if s is inv:
                        return None
                    if (
                        isinstance(s, Assign)
                        and s.target.id == t
                        and s.spec_flag.is_check
                        and not self._dominates_stmt(inv, s)
                    ):
                        return "hit"
                    return None

                block, idx = self._after(inv)
                hit = self._walk_forward(block, idx, visit)
                if hit is not None:
                    self._report(
                        "SPEC005",
                        Severity.ERROR,
                        inv,
                        f"invala.e of {self._temp_name(t)} reaches the "
                        f"check at "
                        f"{hit.loc if hit.loc else f'sid {hit.sid}'} "
                        f"without dominating it",
                    )

    def rule_spec006(self) -> None:
        """Static ALAT-pressure: warn when a loop keeps more advanced
        loads simultaneously live than the ALAT has entries.

        Rebased on the occupancy model's armed facts
        (:func:`repro.analysis.alatpressure.armed_by_stmt`): an entry
        is held from its arming until a clearing check or ``invala.e``,
        so the pressure inside a loop is the largest armed set at any
        of its program points — which naturally covers entries armed
        above the loop and entries nobody reads any more (a dead entry
        still occupies a way every iteration)."""
        from repro.analysis.alatpressure import armed_by_stmt

        if not self.arming and not self.checks:
            return  # nothing arms an entry: every armed set is empty
        armed = armed_by_stmt(self.fn)
        for loop in self.loops:
            live: frozenset[int] = _NONE
            for stmt in self._loop_body(loop):
                facts = armed.get(stmt.sid, _NONE)
                if len(facts) > len(live):
                    live = facts
            if len(live) > self.alat_entries:
                anchor = loop.header.stmts[0] if loop.header.stmts else None
                self._report(
                    "SPEC006",
                    Severity.WARN,
                    anchor,
                    f"loop at {loop.header.label} keeps {len(live)} "
                    f"advanced loads simultaneously live but the ALAT "
                    f"has only {self.alat_entries} entries (guaranteed "
                    f"thrashing)",
                )

    # -- misc -------------------------------------------------------------

    def _temp_name(self, temp_id: int) -> str:
        for stmts in (self.arming, self.checks):
            for s in stmts.get(temp_id, []):
                return s.target.name
        for inv in self.invalas.get(temp_id, []):
            return inv.temp.name
        return f"t{temp_id}"


__all__ = ["PromotionFacts", "lint_module"]
