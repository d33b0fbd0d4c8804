"""MIR-level speculation-safety rules (SPEC007-SPEC008).

The IR rules (:mod:`repro.speclint.rules`) verify what SSAPRE emitted;
these re-verify what survived lowering, over the machine program's
label/branch CFG — a miscompile in the code generator (dropped check,
recovery block that falls through or rejoins at the wrong label) is
invisible at the IR level.

The CFG is rebuilt from scratch: leaders are the function entry, every
``Label``, and every instruction after a branch; ``chk.a`` adds an edge
to its recovery label.  Dominators use the same iterative scheme as
:mod:`repro.analysis.dominators`, over small per-function block lists.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from repro.speclint.diagnostics import Diagnostic, Severity
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

#: load kinds that arm an ALAT entry
_ARMING = (LoadKind.ADVANCED, LoadKind.SPEC_ADVANCED)
#: instructions whose write of a checked register is a computed
#: redefinition
_SUSPICIOUS = frozenset((MovI, Mov, Alu, Un, Lea, AllocH, CallF))
#: instructions that end a block: the next one leads the next block
_BLOCK_ENDS = frozenset((Br, Brnz, RetF, ChkA))


def lint_program(program: MProgram) -> list[Diagnostic]:
    """Run the MIR-level rules over every function of ``program``."""
    diags: list[Diagnostic] = []
    for mf in program.functions.values():
        diags.extend(_MirLint(mf).run())
    return diags


def _is_check(instr: MInstr, reg: int) -> bool:
    kind = type(instr)
    return (kind is LdC or kind is ChkA) and instr.rd == reg


def _writes(instr: MInstr, reg: int) -> bool:
    return reg in instr.writes()


class _MirCFG:
    """Basic blocks over a flat instruction list.  The edges and the
    dominators are computed on first use: only SPEC007's dominance
    test needs them."""

    def __init__(self, mf: MFunction) -> None:
        self.mf = mf
        instrs = mf.instrs
        n = len(instrs)
        leaders: set[int] = {0} if n else set()
        label_at: dict[str, int] = {}
        for i, instr in enumerate(instrs):
            kind = type(instr)
            if kind is Label:
                leaders.add(i)
                label_at[instr.name] = i
            elif kind in _BLOCK_ENDS and i + 1 < n:
                leaders.add(i + 1)
        self.label_at = label_at
        self.starts = sorted(leaders)
        #: instruction index -> its block
        self.block_of: list[int] = []
        for b, start in enumerate(self.starts):
            end = self.starts[b + 1] if b + 1 < len(self.starts) else n
            self.block_of.extend([b] * (end - start))

    @cached_property
    def succs(self) -> dict[int, list[int]]:
        instrs = self.mf.instrs
        n = len(instrs)
        succs: dict[int, list[int]] = {b: [] for b in range(len(self.starts))}

        def edge(b: int, label: str) -> None:
            target = self.label_at.get(label)
            if target is not None:
                succs[b].append(self.block_of[target])

        for b, start in enumerate(self.starts):
            end = self.starts[b + 1] if b + 1 < len(self.starts) else n
            if start == end:
                continue
            last = instrs[end - 1]
            kind = type(last)
            fallthrough = True
            if kind is Br:
                edge(b, last.label)
                fallthrough = False
            elif kind is Brnz:
                edge(b, last.label)
            elif kind is RetF:
                fallthrough = False
            elif kind is ChkA:
                edge(b, last.recovery_label)
            if fallthrough and end < n:
                succs[b].append(self.block_of[end])
        return succs

    @cached_property
    def idom(self) -> dict[int, int]:
        succs = self.succs
        preds: dict[int, list[int]] = {b: [] for b in succs}
        for b, ss in succs.items():
            for t in ss:
                preds[t].append(b)
        # reverse postorder from block 0
        order: list[int] = []
        if self.starts:
            seen = {0}
            stack = [(0, iter(succs[0]))]
            while stack:
                node, it = stack[-1]
                for t in it:
                    if t not in seen:
                        seen.add(t)
                        stack.append((t, iter(succs[t])))
                        break
                else:
                    order.append(node)
                    stack.pop()
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
                ps = [p for p in preds[b] if p in idom]
                if not ps:
                    continue
                new = ps[0]
                for p in ps[1:]:
                    new = intersect(p, new)
                if idom.get(b) != new:
                    idom[b] = new
                    changed = True
        return idom

    def dominates(self, a: int, b: int) -> bool:
        """Block-level dominance (reflexive); unreachable blocks
        dominate nothing."""
        idom = self.idom
        if a not in idom or b not in idom:
            return False
        cur = b
        while True:
            if cur == a:
                return True
            if cur == 0:
                return False
            cur = idom[cur]

    def dominates_instr(self, i: int, j: int) -> bool:
        n = len(self.block_of)
        if not (0 <= i < n and 0 <= j < n):
            return False
        bi, bj = self.block_of[i], self.block_of[j]
        if bi == bj:
            return i < j
        return self.dominates(bi, bj)


class _MirLint:
    def __init__(self, mf: MFunction) -> None:
        self.mf = mf
        self.diags: list[Diagnostic] = []

    @cached_property
    def cfg(self) -> _MirCFG:
        return _MirCFG(self.mf)

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
        # One scan finds the checks, each register's anchors (advanced
        # loads, checks, invala.e) and the chk.a instructions: a
        # function with no check and no chk.a has nothing to lint.
        checks: list[tuple[int, int]] = []
        anchors: dict[int, list[int]] = {}
        for i, instr in enumerate(self.mf.instrs):
            kind = type(instr)
            if kind is LdC or kind is ChkA:
                checks.append((i, instr.rd))
            elif kind is InvalaE or (kind is Ld and instr.kind in _ARMING):
                pass
            else:
                continue
            anchors.setdefault(instr.rd, []).append(i)
        if checks:
            self.rule_spec007(checks, anchors)
            self.rule_spec008()
        return self.diags

    # -- SPEC007: check anchoring over the machine CFG -------------------

    def rule_spec007(
        self, checks: list[tuple[int, int]], anchors: dict[int, list[int]]
    ) -> None:
        instrs = self.mf.instrs
        for ci, reg in checks:
            if not any(
                self.cfg.dominates_instr(a, ci)
                for a in anchors[reg]
                if a != ci
            ):
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
        checked_regs = {reg for _, reg in checks}
        for i, instr in enumerate(instrs):
            if type(instr) not in _SUSPICIOUS:
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


__all__ = ["lint_program"]
