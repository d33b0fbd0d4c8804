"""speclint's IR and MIR rules, kept as the reference for the leaner
ones.

This is ``repro.speclint.rules`` (SPEC001-SPEC006) and
``repro.speclint.mir`` (SPEC007-SPEC008) as they stood before the rules
computed each statement's reads, writes and repairs once per function:
``_invalidates`` asks ``_is_sync_of`` (which formats the stored value
and every assignment before it) before it asks whether the statement may
write the temp's objects at all, SPEC004 rebuilds its in-loop statement
list for every (loop, temp) pair, and SPEC007 scans every instruction
for the anchors of every check.  SPEC006 reads the armed facts of
``tests/reference_pressure.py``.  ``tests/test_pass_reference.py`` runs
both beside the compiler and requires the same diagnostics, field by
field and in order.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

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
    Stmt,
    Store,
)
from repro.speclint.diagnostics import Diagnostic, Severity
from repro.speclint.rules import PromotionFacts
from repro.target.isa import (
    AllocH,
    Alu,
    Br,
    Brnz,
    CallF,
    ChkA,
    InvalaE,
    Label,
    LdC,
    Ld,
    Lea,
    LoadKind,
    MFunction,
    MInstr,
    Mov,
    MovI,
    MProgram,
    RetF,
    St,
    Un,
)
from tests.reference_pressure import armed_by_stmt


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

        #: sid -> (block, index) for every statement in a block
        self.pos: dict[int, tuple[BasicBlock, int]] = {}
        for block in fn.blocks:
            for i, stmt in enumerate(block.stmts):
                self.pos[stmt.sid] = (block, i)

        # per-temp statement inventories (keyed by variable id)
        self.arming: dict[int, list[Assign]] = {}
        self.checks: dict[int, list[Assign]] = {}
        self.invalas: dict[int, list[InvalidateCheck]] = {}
        self.condreloads: dict[int, list[ConditionalReload]] = {}
        self.plain_defs: dict[int, list[Stmt]] = {}
        for stmt in fn.iter_stmts():
            if isinstance(stmt, Assign):
                t = stmt.target.id
                if stmt.spec_flag.is_advanced_load:
                    self.arming.setdefault(t, []).append(stmt)
                elif stmt.spec_flag.is_check:
                    self.checks.setdefault(t, []).append(stmt)
                else:
                    self.plain_defs.setdefault(t, []).append(stmt)
            elif isinstance(stmt, InvalidateCheck):
                self.invalas.setdefault(stmt.temp.id, []).append(stmt)
            elif isinstance(stmt, ConditionalReload):
                self.condreloads.setdefault(stmt.temp.id, []).append(stmt)
            elif isinstance(stmt, (Alloc, Call)):
                target = getattr(stmt, "target", None) or getattr(
                    stmt, "result", None
                )
                if target is not None:
                    self.plain_defs.setdefault(target.id, []).append(stmt)

        #: temps participating in the ALAT protocol
        self.web_temps: set[int] = (
            set(self.arming) | set(self.checks) | set(self.invalas)
        )
        self._dep_cache: dict[int, frozenset[int]] = {}
        self._combined_cache: dict[int, frozenset[int]] = {}

    # Dominators and loops are computed on first use: a function with no
    # ALAT protocol statement needs neither.

    @cached_property
    def domtree(self) -> DominatorTree:
        return compute_dominators(self.fn)

    @cached_property
    def loops(self):
        return find_natural_loops(self.fn, self.domtree)

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

    def _recovery_defs(self, stmt: Stmt) -> set[int]:
        """Temp ids redefined by a branching check's recovery code."""
        if not (
            isinstance(stmt, Assign)
            and stmt.spec_flag.is_branching_check
            and stmt.recovery
        ):
            return set()
        return {
            r.target.id for r in stmt.recovery if isinstance(r, Assign)
        }

    def _repairs(self, stmt: Stmt, temp_id: int) -> bool:
        """Does executing ``stmt`` re-establish ``temp == mem[home]``
        (or redefine the temp, starting a new reasoning window)?"""
        if isinstance(stmt, Assign) and stmt.target.id == temp_id:
            return True
        if isinstance(stmt, ConditionalReload) and stmt.temp.id == temp_id:
            return True
        if isinstance(stmt, (Alloc, Call)):
            target = getattr(stmt, "target", None) or getattr(
                stmt, "result", None
            )
            if target is not None and target.id == temp_id:
                return True
        return temp_id in self._recovery_defs(stmt)

    def _reads_temp(self, stmt: Stmt, temp_id: int) -> bool:
        return any(
            isinstance(e, VarRead) and e.var.id == temp_id
            for e in stmt.walk_exprs()
        )

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
        if isinstance(stmt, Assign) and stmt.target.has_memory_home:
            value = stmt.expr
        elif isinstance(stmt, Store):
            value = stmt.value
        else:
            return False
        if isinstance(value, VarRead) and value.var.id == temp_id:
            return True
        text = str(value)
        reads = {e.var.id for e in walk_expr(value) if isinstance(e, VarRead)}
        block, idx = self.pos[stmt.sid]
        for j in range(idx - 1, -1, -1):
            prev = block.stmts[j]
            if not isinstance(prev, Assign):
                return False
            target = prev.target.id
            if isinstance(prev.expr, VarRead) and prev.expr.var.id == target:
                continue
            if target in reads or str(prev.expr) != text:
                return False
            if target == temp_id:
                return True
        return False

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
            for e in stmt.walk_exprs():
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
                for e in d.walk_exprs():
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
        restoring register/memory agreement?"""
        if self.am is None:
            return False
        targets = self._combined_targets(temp_id)
        if not targets:
            return False
        if self._is_sync_of(stmt, temp_id):
            return False
        if isinstance(stmt, Store):
            return bool(self._store_target_ids(stmt) & targets)
        if isinstance(stmt, Assign) and stmt.target.has_memory_home:
            obj = self.am.object_of_var(stmt.target)
            return obj is not None and obj.id in targets
        if isinstance(stmt, Call):
            mod = self.am.call_mod(stmt.callee)
            return bool({o.id for o in mod} & targets)
        return False

    def _store_target_ids(self, stmt: Store) -> set[int]:
        """Objects ``stmt`` may write, including the rewritten-address
        fallback for promotion temps (see
        :meth:`repro.alias.manager.AliasManager.store_write_ids`)."""
        return set(self.am.store_write_ids(stmt, self.facts.var_by_temp))

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
        if self.am is None or not self.facts.targets_by_temp:
            return
        for t in sorted(self.web_temps):
            if not self._combined_targets(t):
                continue
            tname = self._temp_name(t)
            for block in self.fn.blocks:
                for i, stmt in enumerate(block.stmts):
                    if not self._invalidates(stmt, t):
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
            for t in sorted(self.web_temps):
                arming = self.arming.get(t, [])
                if not arming:
                    continue
                if any(
                    self.pos[a.sid][0].bid in loop.blocks for a in arming
                ):
                    continue  # armed inside: not hoisted past this loop
                in_loop = [
                    s
                    for b in self.fn.blocks
                    if b.bid in loop.blocks
                    for s in b.stmts
                ]
                uses = [s for s in in_loop if self._reads_temp(s, t)]
                if not uses:
                    continue
                if not any(self._invalidates(s, t) for s in in_loop):
                    continue
                if any(self._repairs(s, t) for s in in_loop):
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
        if not self.arming and not self.checks:
            return  # nothing arms an entry: every armed set is empty
        armed = armed_by_stmt(self.fn)
        for loop in self.loops:
            live: frozenset[int] = frozenset()
            for block in self.fn.blocks:
                if block.bid not in loop.blocks:
                    continue
                for stmt in block.stmts:
                    facts = armed.get(stmt.sid, frozenset())
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


# -- MIR rules ----------------------------------------------------------


def lint_program(program: MProgram) -> list[Diagnostic]:
    """Run the MIR-level rules over every function of ``program``."""
    diags: list[Diagnostic] = []
    for mf in program.functions.values():
        diags.extend(_MirLint(mf).run())
    return diags


def _is_arming(instr: MInstr, reg: int) -> bool:
    return (
        isinstance(instr, Ld)
        and instr.rd == reg
        and instr.kind in (LoadKind.ADVANCED, LoadKind.SPEC_ADVANCED)
    )


def _is_check(instr: MInstr, reg: int) -> bool:
    if isinstance(instr, LdC):
        return instr.rd == reg
    if isinstance(instr, ChkA):
        return instr.rd == reg
    return False


def _writes(instr: MInstr, reg: int) -> bool:
    return reg in instr.writes()


class _MirCFG:
    """Basic blocks over a flat instruction list."""

    def __init__(self, mf: MFunction) -> None:
        self.mf = mf
        n = len(mf.instrs)
        leaders: set[int] = {0} if n else set()
        label_at: dict[str, int] = {}
        for i, instr in enumerate(mf.instrs):
            if isinstance(instr, Label):
                leaders.add(i)
                label_at[instr.name] = i
            if isinstance(instr, (Br, Brnz, RetF, ChkA)) and i + 1 < n:
                leaders.add(i + 1)
        self.label_at = label_at
        self.starts = sorted(leaders)
        self.block_of: dict[int, int] = {}
        for b, start in enumerate(self.starts):
            end = self.starts[b + 1] if b + 1 < len(self.starts) else n
            for i in range(start, end):
                self.block_of[i] = b
        self.succs: dict[int, list[int]] = {b: [] for b in range(len(self.starts))}
        for b, start in enumerate(self.starts):
            end = self.starts[b + 1] if b + 1 < len(self.starts) else n
            if start == end:
                continue
            last = mf.instrs[end - 1]
            fallthrough = True
            if isinstance(last, Br):
                self._edge(b, last.label)
                fallthrough = False
            elif isinstance(last, Brnz):
                self._edge(b, last.label)
            elif isinstance(last, RetF):
                fallthrough = False
            elif isinstance(last, ChkA):
                self._edge(b, last.recovery_label)
            if fallthrough and end < n:
                self.succs[b].append(self.block_of[end])
        self.preds: dict[int, list[int]] = {b: [] for b in self.succs}
        for b, ss in self.succs.items():
            for s in ss:
                self.preds[s].append(b)
        self._compute_dominators()

    def _edge(self, b: int, label: str) -> None:
        target = self.label_at.get(label)
        if target is not None:
            self.succs[b].append(self.block_of[target])

    def _compute_dominators(self) -> None:
        # reverse postorder from block 0
        order: list[int] = []
        seen: set[int] = set()

        def dfs(b: int) -> None:
            stack = [(b, iter(self.succs[b]))]
            seen.add(b)
            while stack:
                node, it = stack[-1]
                advanced = False
                for s in it:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(self.succs[s])))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        if self.starts:
            dfs(0)
        rpo = list(reversed(order))
        index = {b: i for i, b in enumerate(rpo)}
        idom: dict[int, int] = {0: 0} if self.starts else {}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for b in rpo[1:]:
                preds = [p for p in self.preds[b] if p in idom]
                if not preds:
                    continue
                new = preds[0]
                for p in preds[1:]:
                    new = intersect(p, new)
                if idom.get(b) != new:
                    idom[b] = new
                    changed = True
        self.idom = idom

    def dominates(self, a: int, b: int) -> bool:
        """Block-level dominance (reflexive); unreachable blocks
        dominate nothing."""
        if a not in self.idom or b not in self.idom:
            return False
        cur = b
        while True:
            if cur == a:
                return True
            if cur == 0:
                return False
            cur = self.idom[cur]

    def dominates_instr(self, i: int, j: int) -> bool:
        bi, bj = self.block_of.get(i), self.block_of.get(j)
        if bi is None or bj is None:
            return False
        if bi == bj:
            return i < j
        return bi != bj and self.dominates(bi, bj)


class _MirLint:
    def __init__(self, mf: MFunction) -> None:
        self.mf = mf
        self.cfg = _MirCFG(mf)
        self.diags: list[Diagnostic] = []

    def _report(self, rule: str, idx: int, message: str) -> None:
        instr = self.mf.instrs[idx] if 0 <= idx < len(self.mf.instrs) else None
        self.diags.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                function=self.mf.name,
                loc=getattr(instr, "loc", None),
                sid=idx,
            )
        )

    def run(self) -> list[Diagnostic]:
        self.rule_spec007()
        self.rule_spec008()
        return self.diags

    # -- SPEC007: check anchoring over the machine CFG -------------------

    def rule_spec007(self) -> None:
        instrs = self.mf.instrs
        checks = [
            (i, instr.rd)
            for i, instr in enumerate(instrs)
            if isinstance(instr, (LdC, ChkA))
        ]
        for ci, reg in checks:
            anchors = [
                i
                for i, instr in enumerate(instrs)
                if i != ci
                and (
                    _is_arming(instr, reg)
                    or _is_check(instr, reg)
                    or (isinstance(instr, InvalaE) and instr.rd == reg)
                )
            ]
            if not any(self.cfg.dominates_instr(a, ci) for a in anchors):
                self.diags.append(
                    Diagnostic(
                        rule="SPEC007",
                        severity=Severity.WARN,
                        message=(
                            f"check of r{reg} is not dominated by an "
                            f"advanced load, invala.e, or earlier check "
                            f"of the same register"
                        ),
                        function=self.mf.name,
                        loc=getattr(instrs[ci], "loc", None),
                        sid=ci,
                    )
                )

        # a computed redefinition reaching a check without re-arm/sync
        suspicious = (MovI, Mov, Alu, Un, Lea, AllocH, CallF)
        checked_regs = {reg for _, reg in checks}
        for i, instr in enumerate(instrs):
            if not isinstance(instr, suspicious):
                continue
            for reg in instr.writes():
                if reg not in checked_regs:
                    continue
                hit = self._walk(i + 1, reg)
                if hit is not None:
                    self._report(
                        "SPEC007",
                        hit,
                        f"check of r{reg} is reachable from the computed "
                        f"redefinition at instruction {i} with no "
                        f"intervening re-arm or sync store",
                    )

    def _walk(self, start: int, reg: int) -> Optional[int]:
        """DFS from instruction ``start`` for a check of ``reg`` reached
        before any re-arm, redefinition, or sync store of ``reg``."""
        n = len(self.mf.instrs)
        seen_blocks: set[int] = set()
        work: list[int] = [start] if start < n else []
        while work:
            i = work.pop()
            cut = False
            while i < n:
                instr = self.mf.instrs[i]
                if _is_check(instr, reg):
                    return i
                if _writes(instr, reg):
                    cut = True
                    break
                if isinstance(instr, St) and instr.rs == reg:
                    cut = True  # value stored: register == memory again
                    break
                if isinstance(instr, (Br, RetF)):
                    break
                if isinstance(instr, Brnz):
                    t = self.cfg.label_at.get(instr.label)
                    if t is not None:
                        b = self.cfg.block_of[t]
                        if b not in seen_blocks:
                            seen_blocks.add(b)
                            work.append(t)
                elif isinstance(instr, ChkA):
                    t = self.cfg.label_at.get(instr.recovery_label)
                    if t is not None:
                        b = self.cfg.block_of[t]
                        if b not in seen_blocks:
                            seen_blocks.add(b)
                            work.append(t)
                i += 1
            if cut or i >= n:
                continue
            instr = self.mf.instrs[i]
            if isinstance(instr, Br):
                t = self.cfg.label_at.get(instr.label)
                if t is not None:
                    b = self.cfg.block_of[t]
                    if b not in seen_blocks:
                        seen_blocks.add(b)
                        work.append(t)
        return None

    # -- SPEC008: recovery-block structure -------------------------------

    def rule_spec008(self) -> None:
        instrs = self.mf.instrs
        n = len(instrs)
        for i, instr in enumerate(instrs):
            if not isinstance(instr, ChkA):
                continue
            rec = self.cfg.label_at.get(instr.recovery_label)
            if rec is None:
                self._report(
                    "SPEC008",
                    i,
                    f"chk.a of r{instr.rd} targets unknown recovery "
                    f"label {instr.recovery_label!r}",
                )
                continue
            # continuation: the instruction after the check must be the
            # labelled resume point recovery rejoins at
            if i + 1 >= n or not isinstance(instrs[i + 1], Label):
                self._report(
                    "SPEC008",
                    i,
                    f"chk.a of r{instr.rd} has no labelled continuation "
                    f"immediately after it",
                )
                continue
            resume = instrs[i + 1].name
            # no fall-through into the recovery block
            if rec > 0 and not isinstance(instrs[rec - 1], (Br, RetF)):
                self._report(
                    "SPEC008",
                    rec,
                    f"recovery block {instr.recovery_label!r} can be "
                    f"entered by fall-through",
                )
            # body: must redefine the checked register and end with an
            # unconditional branch back to the continuation
            redefines = False
            j = rec + 1
            ok = False
            while j < n:
                body = instrs[j]
                if _writes(body, instr.rd):
                    redefines = True
                if isinstance(body, Br):
                    ok = body.label == resume
                    break
                if isinstance(body, (Brnz, RetF)):
                    break
                j += 1
            if not ok:
                self._report(
                    "SPEC008",
                    rec,
                    f"recovery block {instr.recovery_label!r} does not "
                    f"rejoin at the check's continuation {resume!r}",
                )
            if not redefines:
                self._report(
                    "SPEC008",
                    rec,
                    f"recovery block {instr.recovery_label!r} never "
                    f"redefines the checked register r{instr.rd}",
                )
