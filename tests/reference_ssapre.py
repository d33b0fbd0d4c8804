"""SSAPRE and candidate collection as they stood before they computed
each round's facts once and kept their state in slotted records, kept
as the reference for the compiler's own.

``SSAPRE`` is ``repro.pre.ssapre.SSAPRE`` with its six steps as they
were: per-occurrence facts in dicts keyed by ``id(occ)``, dataclass
stack entries and Phi operands, the exit blocks and the layout order of
HSSA's def blocks found by a scan of the function for every candidate,
speculative bases computed for every indirect candidate, natural loops
computed for every candidate, and recursive dominator-tree walks.
``collect_candidates`` walks every statement's expressions itself and
returns the candidates in the order the driver then sorted stably,
direct candidates first.  ``tests/test_pass_reference.py`` compiles
with both in place of the compiler's (``repro.pre.driver.SSAPRE`` and
``collect_candidates``) and requires the same code and the same
``PREResult`` per candidate.  Options, results and the skip test are
the module's own.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.analysis.loops import LoopForest, find_natural_loops
from repro.errors import IRError
from repro.ir.cfg import BasicBlock
from repro.ir.expr import Expr, Load, VarRead, clone_expr, expr_lexical_key
from repro.ir.function import Function
from repro.ir.stmt import (
    Assign,
    ConditionalReload,
    InvalidateCheck,
    Return,
    SpecFlag,
    Stmt,
    Store,
)
from repro.ir.symbols import Variable, VirtualVariable
from repro.pre import ssapre
from repro.pre.candidates import (
    Candidate,
    CandidateKind,
    Occurrence,
    _addr_has_load,
    _addr_var_keys,
    _fill_occurrence_versions,
    _is_direct_candidate_var,
    expr_lexical_key_of_store,
)
from repro.pre.rewrite import replace_exprs_in_stmt
from repro.pre.ssapre import PREOptions, PREResult
from repro.ssa.hssa import ChiOperand, HSSAInfo, VarKey, compute_spec_bases


def collect_candidates(fn: Function, info: HSSAInfo) -> list[Candidate]:
    """The candidates in the order the driver ran them: collection
    order, sorted stably with the direct candidates first."""
    candidates = _collect_candidates(fn, info)
    candidates.sort(key=lambda c: 0 if c.kind is CandidateKind.DIRECT else 1)
    return candidates


def _collect_candidates(fn: Function, info: HSSAInfo) -> list[Candidate]:
    """Collect promotion candidates with their occurrences in layout
    order (SSAPRE later re-sorts by dominator preorder)."""
    by_key: dict[tuple, Candidate] = {}
    order: list[tuple] = []

    def candidate_for_direct(var: Variable) -> Candidate:
        key = ("direct", var.id)
        cand = by_key.get(key)
        if cand is None:
            cand = Candidate(
                kind=CandidateKind.DIRECT,
                lexical_key=key,
                template=VarRead(var),
                var=var,
                vvar=None,
                addr_keys=(),
            )
            by_key[key] = cand
            order.append(key)
        return cand

    def candidate_for_indirect(load: Load) -> Optional[Candidate]:
        mu = info.load_mu.get(load.eid)
        if mu is None:
            return None
        vvar = mu.var
        assert isinstance(vvar, VirtualVariable)
        key = ("indirect", expr_lexical_key(load), vvar.id)
        cand = by_key.get(key)
        if cand is None:
            targets = info.am.access_targets(load.addr, load.type)
            cand = Candidate(
                kind=CandidateKind.INDIRECT,
                lexical_key=key,
                template=load,
                var=None,
                vvar=vvar,
                addr_keys=_addr_var_keys(load.addr),
                target_ids=frozenset(o.id for o in targets),
            )
            by_key[key] = cand
            order.append(key)
        return cand

    for block in fn.blocks:
        for stmt in block.stmts:
            # Skip statements produced by earlier promotion rounds: their
            # loads implement the speculation protocol and must stay.
            if isinstance(stmt, Assign) and stmt.spec_flag is not SpecFlag.NONE:
                continue
            for expr in stmt.expr_nodes():
                kind = type(expr)
                if kind is VarRead and _is_direct_candidate_var(expr.var):
                    cand = candidate_for_direct(expr.var)
                    cand.occurrences.append(Occurrence(stmt, expr))
                elif (
                    kind is Load
                    and expr.type.is_scalar
                    and not _addr_has_load(expr.addr)
                ):
                    cand = candidate_for_indirect(expr)
                    if cand is not None:
                        cand.occurrences.append(Occurrence(stmt, expr))
            # left occurrences
            if isinstance(stmt, Assign) and _is_direct_candidate_var(stmt.target):
                cand = candidate_for_direct(stmt.target)
                cand.occurrences.append(Occurrence(stmt, None, is_left=True))
            elif isinstance(stmt, Store) and not _addr_has_load(stmt.addr):
                if stmt.value.type.is_scalar:
                    chi = info.store_chi.get(stmt.sid)
                    if chi is not None and isinstance(chi.var, VirtualVariable):
                        key = ("indirect", expr_lexical_key_of_store(stmt), chi.var.id)
                        cand = by_key.get(key)
                        if cand is not None:
                            cand.occurrences.append(
                                Occurrence(stmt, None, is_left=True)
                            )
                        else:
                            # Create the candidate lazily so a later load
                            # of the same location still finds the store.
                            synth = Load(clone_expr(stmt.addr), stmt.value.type)
                            targets = info.am.access_targets(
                                stmt.addr, stmt.value.type
                            )
                            cand = Candidate(
                                kind=CandidateKind.INDIRECT,
                                lexical_key=key,
                                template=synth,
                                var=None,
                                vvar=chi.var,
                                addr_keys=_addr_var_keys(stmt.addr),
                                target_ids=frozenset(o.id for o in targets),
                            )
                            by_key[key] = cand
                            order.append(key)
                            cand.occurrences.append(
                                Occurrence(stmt, None, is_left=True)
                            )

    result = []
    for key in order:
        cand = by_key[key]
        # A candidate with only left occurrences promotes nothing.
        if any(not o.is_left for o in cand.occurrences):
            for occ in cand.occurrences:
                _fill_occurrence_versions(info, cand, occ)
            result.append(cand)
    return result


_BOTTOM = -1


@dataclass
class _PhiOperand:
    class_id: int = _BOTTOM
    has_real_use: bool = False
    speculative: bool = False
    #: the Phi defining the operand's class, if any (for propagation)
    def_phi: Optional["_ExprPhi"] = None
    #: insertion required on this edge (set by Finalize)
    insert: bool = False


class _ExprPhi:
    def __init__(self, block: BasicBlock, versions: tuple[int, ...], base_versions: tuple[int, ...]) -> None:
        self.block = block
        self.versions = versions
        self.base_versions = base_versions
        self.class_id = -1
        #: snapshot of the predecessor list operands align with (edge
        #: splitting during CodeMotion must not reorder lookups)
        self.pred_blocks: list[BasicBlock] = list(block.preds)
        self.operands: list[_PhiOperand] = [_PhiOperand() for _ in block.preds]
        self.down_safe = True
        self.can_be_avail = True
        self.later = True
        #: Figure 2 mode: value available via ALAT entry, uses become ld.c
        self.alat_avail = False

    @property
    def will_be_avail(self) -> bool:
        return self.can_be_avail and not self.later

    def __repr__(self) -> str:
        return f"ExprPhi(h{self.class_id}@{self.block.label})"


class _DefKind(enum.Enum):
    REAL = "real"
    LEFT = "left"
    PHI = "phi"


@dataclass
class _StackEntry:
    class_id: int
    versions: tuple[int, ...]
    base_versions: tuple[int, ...]
    kind: _DefKind
    phi: Optional[_ExprPhi] = None
    def_occ: Optional[Occurrence] = None
    seen_real_use: bool = False


class SSAPRE:
    """Runs the six steps for one candidate in one function."""

    def __init__(
        self,
        fn: Function,
        info: HSSAInfo,
        candidate: Candidate,
        options: PREOptions,
        loops: Optional[LoopForest] = None,
    ) -> None:
        self.fn = fn
        self.info = info
        self.cand = candidate
        self.opts = options
        self.loops = loops if loops is not None else find_natural_loops(fn, info.domtree)
        self.keys: tuple[VarKey, ...] = candidate.addr_keys + (candidate.value_key,)
        self.phis: dict[int, _ExprPhi] = {}  # block id -> Phi
        self.result = PREResult(candidate)
        # occurrence bookkeeping filled by rename
        self._occ_class: dict[int, int] = {}  # id(occ) -> class id
        self._occ_spec: dict[int, bool] = {}
        self._occ_is_def: dict[int, bool] = {}
        self._class_def: dict[int, _StackEntry] = {}
        self._class_counter = 0
        self._occ_by_block: dict[int, list[Occurrence]] = {}
        for occ in candidate.occurrences:
            block = occ.stmt.block
            assert block is not None, f"occurrence statement detached: {occ}"
            self._occ_by_block.setdefault(block.bid, []).append(occ)
        # Per-candidate speculative base versions: a chi is ignorable
        # for THIS candidate iff the store cannot touch the candidate's
        # own target set (coarse class membership must not pessimise
        # unrelated locations, nor let profile-dirty stores through).
        # Only the value key's bases are ever read (``_base``).
        if candidate.kind is CandidateKind.INDIRECT and options.speculative:
            self._local_bases = compute_spec_bases(
                info, self._chi_ignorable, key=candidate.value_key
            )
        else:
            self._local_bases = None
        # Cascade mode: earlier-round check defs of address temporaries
        # are speculatively transparent on address keys.
        if options.cascade and options.speculative and info.check_def_links:
            self._addr_bases = info.check_bases()
        else:
            self._addr_bases = None
        for occ in candidate.occurrences:
            occ.base_versions = tuple(
                self._addr_base(k, v)
                for k, v in zip(candidate.addr_keys, occ.versions[:-1])
            ) + (self._base(occ.versions[-1]),)

    def _chi_ignorable(self, chi: ChiOperand) -> bool:
        """May THIS candidate's reuse skip over ``chi``, a χ on its
        value key?"""
        om = chi.object_mechanisms
        if om is None:
            return False  # call or direct-def update: always real
        # Only profile-clean ("alat") stores are ignorable: "soft" means
        # the profile saw the store write that object, and the software
        # compare-and-reload repair is impractical for indirect
        # references (ORC restricted it to scalars) — the update is real.
        return all(
            om.get(oid, "alat") == "alat" for oid in self.cand.target_ids
        )

    def _base(self, version: int) -> int:
        key = self.cand.value_key
        if self._local_bases is not None:
            return self._local_bases.get((key, version), version)
        return self.info.base_version(key, version)

    def _addr_base(self, key: VarKey, version: int) -> int:
        if self._addr_bases is None:
            return version
        return self._addr_bases.get((key, version), version)

    # ------------------------------------------------------------------
    # Step 0: occurrence version vectors
    # ------------------------------------------------------------------

    def _versions_at(self, bid: int, entry: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
        info = self.info
        getter = info.version_at_entry if entry else info.version_at_exit
        versions = tuple(getter(bid, k) for k in self.keys)
        base = [
            self._addr_base(k, v) for k, v in zip(self.keys[:-1], versions[:-1])
        ]
        base.append(self._base(versions[-1]))
        return versions, tuple(base)

    # ------------------------------------------------------------------
    # Step 1: Phi insertion
    # ------------------------------------------------------------------

    def _phi_seeds(self) -> set[int]:
        """Occurrence blocks plus the blocks where HSSA defines a version
        of a variable of the expression (conservative superset; spurious
        Phis die in DownSafety/WillBeAvail).

        HSSA's def blocks stay valid for the whole round: CodeMotion only
        inserts statements into existing blocks, and those define the
        candidate's own new temporaries and carry no χ.  The def blocks
        are added in layout order, because the Phi order depends on the
        order this set iterates in."""
        seeds = set(self._occ_by_block)
        def_blocks = self.info.def_blocks
        defined = set().union(*(def_blocks.get(k, ()) for k in self.keys))
        seeds.update(b.bid for b in self.fn.blocks if b.bid in defined)
        return seeds

    def _insert_phis(self) -> None:
        df = self.info.frontiers
        seeds = self._phi_seeds()
        placed: set[int] = set()
        worklist = list(seeds)
        while worklist:
            bid = worklist.pop()
            for fb in df.get(bid, ()):
                if fb.bid in placed:
                    continue
                placed.add(fb.bid)
                versions, base_versions = self._versions_at(fb.bid, entry=True)
                self.phis[fb.bid] = _ExprPhi(fb, versions, base_versions)
                if fb.bid not in seeds:
                    seeds.add(fb.bid)
                    worklist.append(fb.bid)

    # ------------------------------------------------------------------
    # Step 2: Rename
    # ------------------------------------------------------------------

    def _new_class(self) -> int:
        self._class_counter += 1
        return self._class_counter

    def _walked_blocks(self) -> set[int]:
        """Ids of the blocks Rename and Finalize visit in their
        dominator-tree walks.  Only a block with an occurrence or a Φ, a
        Φ predecessor or (when there are Φs) an exit acts in the walks;
        a subtree without one pushes nothing and sets nothing, so the
        walks enter only the blocks that dominate one."""
        blocks = [occ.stmt.block for occ in self.cand.occurrences]
        for phi in self.phis.values():
            blocks.append(phi.block)
            blocks.extend(phi.pred_blocks)
        if self.phis:
            blocks.extend(
                b for b in self.fn.blocks
                if isinstance(b.terminator, Return) or not b.successors()
            )
        idom = self.info.domtree.idom
        walked: set[int] = set()
        for block in blocks:
            while block is not None and block.bid not in walked:
                walked.add(block.bid)
                block = idom(block)
        return walked

    def _children(self, block: BasicBlock) -> list[BasicBlock]:
        """``block``'s dominator-tree children the walks visit."""
        walked = self._walked
        return [c for c in self.info.domtree.children[block.bid] if c.bid in walked]

    def _rename(self) -> None:
        stack: list[_StackEntry] = []
        self._rename_block(self.fn.entry, stack)

    def _match(self, entry: _StackEntry, versions: tuple[int, ...], base_versions: tuple[int, ...]) -> Optional[bool]:
        """None = no match; False = exact match; True = speculative
        match (value base versions equal, addresses exact)."""
        if entry.versions == versions:
            return False
        if not self.opts.speculative:
            return None
        if (
            self.cand.kind is CandidateKind.INDIRECT
            and not self.opts.indirect_speculation
        ):
            return None
        if (
            entry.versions[:-1] == versions[:-1]
            and entry.base_versions[-1] == base_versions[-1]
        ):
            return True
        if self.opts.cascade and entry.base_versions == base_versions:
            # address registers re-validated by earlier-round checks:
            # the cascade case (chk.a recovery will repair both)
            return True
        return None

    def _kill_check(self, stack: list[_StackEntry]) -> None:
        """A new class is being pushed: if the superseded top is an
        unused Phi value, a path from that Phi lacks any use."""
        if stack and stack[-1].kind is _DefKind.PHI and not stack[-1].seen_real_use:
            assert stack[-1].phi is not None
            stack[-1].phi.down_safe = False

    def _rename_block(self, block: BasicBlock, stack: list[_StackEntry]) -> None:
        mark = len(stack)

        phi = self.phis.get(block.bid)
        if phi is not None:
            self._kill_check(stack)
            phi.class_id = self._new_class()
            entry = _StackEntry(
                phi.class_id,
                phi.versions,
                phi.base_versions,
                _DefKind.PHI,
                phi=phi,
            )
            self._class_def[phi.class_id] = entry
            stack.append(entry)

        for occ in self._occ_by_block.get(block.bid, ()):
            # versions were precomputed at collection time
            if occ.is_left:
                self._kill_check(stack)
                cid = self._new_class()
                entry = _StackEntry(
                    cid,
                    occ.versions,
                    occ.base_versions,
                    _DefKind.LEFT,
                    def_occ=occ,
                    seen_real_use=True,
                )
                self._class_def[cid] = entry
                stack.append(entry)
                self._occ_class[id(occ)] = cid
                self._occ_is_def[id(occ)] = True
                continue
            matched: Optional[bool] = None
            if stack:
                matched = self._match(stack[-1], occ.versions, occ.base_versions)
            if matched is not None:
                top = stack[-1]
                self._occ_class[id(occ)] = top.class_id
                self._occ_spec[id(occ)] = matched
                self._occ_is_def[id(occ)] = False
                # Push a use marker (Kennedy pushes the occurrence
                # itself): has_real_use must be *path*-accurate, and a
                # mutable flag on the class entry would leak uses from
                # sibling dominator subtrees into later operands.  The
                # marker pops with this block's scope.
                stack.append(
                    _StackEntry(
                        top.class_id,
                        occ.versions,
                        occ.base_versions,
                        top.kind,
                        phi=top.phi,
                        def_occ=top.def_occ,
                        seen_real_use=True,
                    )
                )
            else:
                self._kill_check(stack)
                cid = self._new_class()
                entry = _StackEntry(
                    cid,
                    occ.versions,
                    occ.base_versions,
                    _DefKind.REAL,
                    def_occ=occ,
                    seen_real_use=True,
                )
                self._class_def[cid] = entry
                stack.append(entry)
                self._occ_class[id(occ)] = cid
                self._occ_spec[id(occ)] = False
                self._occ_is_def[id(occ)] = True

        # exit detection for down-safety
        if isinstance(block.terminator, Return) or not block.successors():
            if stack and stack[-1].kind is _DefKind.PHI and not stack[-1].seen_real_use:
                assert stack[-1].phi is not None
                stack[-1].phi.down_safe = False

        # expression-Phi operands of successors: each must carry the
        # value current at block exit
        succ_phis = [
            (succ, self.phis[succ.bid])
            for succ in block.successors()
            if succ.bid in self.phis
        ]
        if succ_phis and stack:
            top = stack[-1]
            matched = self._match(top, *self._versions_at(block.bid, entry=False))
            if matched is not None:
                for succ, sphi in succ_phis:
                    operand = sphi.operands[succ.preds.index(block)]
                    operand.class_id = top.class_id
                    operand.has_real_use = top.seen_real_use or top.kind in (
                        _DefKind.REAL,
                        _DefKind.LEFT,
                    )
                    operand.speculative = bool(matched)
                    operand.def_phi = top.phi if top.kind is _DefKind.PHI else None

        for child in self._children(block):
            self._rename_block(child, stack)

        del stack[mark:]

    # ------------------------------------------------------------------
    # Step 3: DownSafety propagation
    # ------------------------------------------------------------------

    def _down_safety(self) -> None:
        worklist = [p for p in self.phis.values() if not p.down_safe]
        while worklist:
            phi = worklist.pop()
            for op in phi.operands:
                if op.class_id is _BOTTOM or op.has_real_use:
                    continue
                src = op.def_phi
                if src is not None and src.down_safe:
                    src.down_safe = False
                    worklist.append(src)
        # Loop speculation: a Phi at a loop header whose only
        # non-bottom operands come from inside the loop pattern is
        # hoistable; treat it as down-safe but remember that insertions
        # become control-speculative (ld.sa).
        self._control_spec_phis: set[int] = set()
        if self.opts.speculative and self.opts.loop_speculation:
            for phi in self.phis.values():
                if phi.down_safe:
                    continue
                loop = self.loops.loop_with_header(phi.block)
                if loop is not None:
                    phi.down_safe = True
                    self._control_spec_phis.add(id(phi))

    # ------------------------------------------------------------------
    # Step 4: WillBeAvail
    # ------------------------------------------------------------------

    def _will_be_avail(self) -> None:
        # can_be_avail
        worklist: list[_ExprPhi] = []
        for phi in self.phis.values():
            if not phi.down_safe and any(
                op.class_id is _BOTTOM for op in phi.operands
            ):
                phi.can_be_avail = False
                worklist.append(phi)
        while worklist:
            dead = worklist.pop()
            for phi in self.phis.values():
                if not phi.can_be_avail or phi.down_safe:
                    continue
                for op in phi.operands:
                    if op.def_phi is dead and not op.has_real_use:
                        phi.can_be_avail = False
                        worklist.append(phi)
                        break

        # later
        for phi in self.phis.values():
            phi.later = phi.can_be_avail
        worklist = []
        for phi in self.phis.values():
            if phi.later and any(
                op.class_id is not _BOTTOM and op.has_real_use
                for op in phi.operands
            ):
                phi.later = False
                worklist.append(phi)
        while worklist:
            ready = worklist.pop()
            for phi in self.phis.values():
                if not phi.later:
                    continue
                for op in phi.operands:
                    if op.def_phi is ready and op.class_id is not _BOTTOM:
                        phi.later = False
                        worklist.append(phi)
                        break

        # Figure 2 scheme: partially redundant classes kept available
        # through the ALAT instead of inserting on cold paths.
        if self.opts.speculative and self.opts.alat_partial and not self.opts.softcheck:
            for phi in self.phis.values():
                if phi.will_be_avail:
                    continue
                # Value reaches this merge from real computations on some
                # paths only (and is not down-safe enough for classical
                # insertion): invalidate the ALAT entry at a dominating
                # point and let ld.c at each use reload on cold paths.
                has_real = any(
                    op.class_id is not _BOTTOM and op.has_real_use
                    for op in phi.operands
                )
                if has_real and self._invala_anchor(phi) is not None:
                    phi.alat_avail = True

    def _invala_anchor(self, phi: _ExprPhi) -> Optional[BasicBlock]:
        """The block at whose end invala.e can be placed: the immediate
        dominator of the Phi block, provided it strictly dominates every
        operand definition (so the invalidation precedes every ld.a)."""
        domtree = self.info.domtree
        anchor = domtree.idom(phi.block)
        if anchor is None:
            return None
        for op in phi.operands:
            entry = self._class_def.get(op.class_id)
            if entry is None:
                continue
            def_block = self._entry_def_block(entry)
            if def_block is None or not domtree.strictly_dominates(anchor, def_block):
                return None
        return anchor

    def _entry_def_block(self, entry: _StackEntry) -> Optional[BasicBlock]:
        if entry.kind is _DefKind.PHI:
            assert entry.phi is not None
            return entry.phi.block
        assert entry.def_occ is not None
        return entry.def_occ.stmt.block

    # ------------------------------------------------------------------
    # Step 5: Finalize — availability walk (Kennedy et al., step 5)
    # ------------------------------------------------------------------

    def _finalize(self) -> None:
        """Dominator walk with per-class availability stacks.

        Determines each occurrence's role:

        * ``left`` — a store making the value available;
        * ``def``  — a computation (the class definition, or a reload
          whose class value is *not* actually available here, e.g. its
          class is defined by a non-will-be-avail Phi: it recomputes and
          re-establishes availability — Kennedy's reclassification);
        * ``reload`` — redundant; linked to the availability entry that
          supplies the value.

        Phi operands record the availability entry at their pred's exit
        (or None → insertion needed).  Only entries that actually supply
        a reload / used-Phi operand are marked ``needs_save``.
        """
        self._role: dict[int, str] = {}
        self._occ_entry: dict[int, _AvailEntry] = {}
        self._def_entry: dict[int, _AvailEntry] = {}
        self._operand_entries: dict[tuple[int, int], Optional[_AvailEntry]] = {}
        avail: dict[int, list[_AvailEntry]] = {}

        self._phi_avail_entry: dict[int, _AvailEntry] = {}

        def walk(block: BasicBlock) -> None:
            pushed: list[int] = []

            phi = self.phis.get(block.bid)
            if phi is not None and (phi.will_be_avail or phi.alat_avail):
                entry = _AvailEntry("phi", phi=phi)
                self._phi_avail_entry[id(phi)] = entry
                avail.setdefault(phi.class_id, []).append(entry)
                pushed.append(phi.class_id)

            for occ in self._occ_by_block.get(block.bid, ()):
                cid = self._occ_class.get(id(occ))
                if cid is None:
                    continue
                if occ.is_left:
                    entry = _AvailEntry("left", occ=occ)
                    self._role[id(occ)] = "left"
                    self._def_entry[id(occ)] = entry
                    avail.setdefault(cid, []).append(entry)
                    pushed.append(cid)
                elif self._occ_is_def.get(id(occ), False):
                    entry = _AvailEntry("occ", occ=occ)
                    self._role[id(occ)] = "def"
                    self._def_entry[id(occ)] = entry
                    avail.setdefault(cid, []).append(entry)
                    pushed.append(cid)
                else:
                    stack = avail.get(cid)
                    if stack:
                        entry = stack[-1]
                        entry.needs_save = True
                        if self._occ_spec.get(id(occ)):
                            entry.spec_linked = True
                        self._role[id(occ)] = "reload"
                        self._occ_entry[id(occ)] = entry
                    else:
                        # value not materialised on this path: recompute
                        entry = _AvailEntry("occ", occ=occ)
                        self._role[id(occ)] = "def"
                        self._def_entry[id(occ)] = entry
                        avail.setdefault(cid, []).append(entry)
                        pushed.append(cid)

            for succ in block.successors():
                sphi = self.phis.get(succ.bid)
                if sphi is None or not (sphi.will_be_avail or sphi.alat_avail):
                    continue
                try:
                    idx = sphi.pred_blocks.index(block)
                except ValueError:
                    continue
                op = sphi.operands[idx]
                if op.class_id is _BOTTOM:
                    self._operand_entries[(id(sphi), idx)] = None
                else:
                    stack = avail.get(op.class_id)
                    self._operand_entries[(id(sphi), idx)] = (
                        stack[-1] if stack else None
                    )

            for child in self._children(block):
                walk(child)

            for cid in reversed(pushed):
                avail[cid].pop()

        walk(self.fn.entry)

        # Phi usefulness: a Phi matters iff its value reaches a reload,
        # directly or through other used Phis' operands.
        self._phi_used: set[int] = set()
        worklist = [
            e.phi
            for e in self._occ_entry.values()
            if e.kind == "phi" and e.phi is not None
        ]
        while worklist:
            phi = worklist.pop()
            if id(phi) in self._phi_used:
                continue
            self._phi_used.add(id(phi))
            for idx, op in enumerate(phi.operands):
                entry = self._operand_entries.get((id(phi), idx))
                if entry is None:
                    # value unavailable on this edge: insert (only
                    # meaningful for will-be-avail Phis; alat Phis cover
                    # cold edges via invala.e)
                    op.insert = phi.will_be_avail
                else:
                    entry.needs_save = True
                    if op.speculative:
                        entry.spec_linked = True
                    if entry.kind == "phi" and entry.phi is not None:
                        worklist.append(entry.phi)

        # Propagate spec_linked through Phi entries to their operands:
        # a left store whose value flows into a Phi that is consumed
        # speculatively must still arm the ALAT entry (Figure 1(b)).
        changed = True
        while changed:
            changed = False
            for phi in self.phis.values():
                if id(phi) not in self._phi_used:
                    continue
                p_entry = self._phi_avail_entry.get(id(phi))
                through = p_entry.spec_linked if p_entry is not None else False
                if phi.alat_avail:
                    through = True  # alat uses check this class's entry
                for idx, op in enumerate(phi.operands):
                    entry = self._operand_entries.get((id(phi), idx))
                    if entry is None:
                        continue
                    if (op.speculative or through) and not entry.spec_linked:
                        entry.spec_linked = True
                        changed = True

    # ------------------------------------------------------------------
    # Step 6: CodeMotion
    # ------------------------------------------------------------------

    def run(self) -> PREResult:
        if not any(not o.is_left for o in self.cand.occurrences):
            return self.result
        self._insert_phis()
        self._walked = self._walked_blocks()
        self._rename()
        self._down_safety()
        self._will_be_avail()
        self._finalize()
        self._code_motion()
        return self.result

    # -- helpers --------------------------------------------------------

    def _make_temp(self) -> Variable:
        if self.result.temp is None:
            hint = "pr" if self.cand.kind is CandidateKind.DIRECT else "pi"
            self.result.temp = self.fn.new_temp(self.cand.template.type, hint)
        return self.result.temp

    def _make_addr_temp(self) -> Optional[Variable]:
        """Dedicated register for the promoted indirect load's address.

        On IA-64 the ld.c reuses the advanced load's address register;
        recomputing the address at every check (and reloading a memory-
        resident pointer to do it) would hand the software scheme a fake
        advantage.  Every def of the candidate refreshes this temp, so
        at any check site the dynamically most recent def's address —
        exactly the right one for the live web — is in the register.
        """
        if self.cand.kind is not CandidateKind.INDIRECT:
            return None
        if self._addr_temp is None:
            template = self.cand.template
            assert isinstance(template, Load)
            self._addr_temp = self.fn.new_temp(template.addr.type, "pa")
        return self._addr_temp

    def _clone_template(self) -> Expr:
        return clone_expr(self.cand.template)

    def _template_via_addr_temp(self) -> Expr:
        """The candidate expression reading through the address temp."""
        if self.cand.kind is CandidateKind.DIRECT or self._addr_temp is None:
            return self._clone_template()
        template = self.cand.template
        assert isinstance(template, Load)
        return Load(VarRead(self._addr_temp), template.type)

    def _occ_addr_expr(self, occ: Occurrence) -> Expr:
        """The address expression at a def occurrence (cloned)."""
        if occ.expr is not None:
            assert isinstance(occ.expr, Load)
            return clone_expr(occ.expr.addr)
        assert isinstance(occ.stmt, Store)
        return clone_expr(occ.stmt.addr)

    def _candidate_home_addr(self) -> Expr:
        """Address of the promoted location (software checks)."""
        from repro.ir.expr import AddrOf

        if self.cand.kind is CandidateKind.DIRECT:
            assert self.cand.var is not None
            self.cand.var.is_address_taken = True
            return AddrOf(self.cand.var)
        if self._addr_temp is not None:
            return VarRead(self._addr_temp)
        template = self._clone_template()
        assert isinstance(template, Load)
        return template.addr

    def _any_speculation(self) -> bool:
        return (
            any(
                self._occ_spec.get(id(occ)) and self._role.get(id(occ)) == "reload"
                for occ in self.cand.occurrences
            )
            or any(
                id(phi) in self._phi_used
                and any(op.speculative and op.class_id is not _BOTTOM for op in phi.operands)
                for phi in self.phis.values()
            )
            or any(
                id(phi) in self._phi_used and phi.alat_avail
                for phi in self.phis.values()
            )
        )

    def _code_motion(self) -> None:
        check_plan = self._check_plan() if self._any_speculation() else []
        uses_alat = (not self.opts.softcheck) and (
            any(mech == "alat" for _stmt, mech in check_plan)
            or any(
                id(phi) in self._phi_used and phi.alat_avail
                for phi in self.phis.values()
            )
            or any(
                id(phi) in self._phi_used and id(phi) in self._control_spec_phis
                for phi in self.phis.values()
            )
        )
        self._addr_temp = None
        #: loc of this candidate's leading (advanced) load — recovery
        #: code is attributed there
        self._lead_loc = None
        if check_plan or uses_alat:
            self._make_addr_temp()  # indirect candidates only; no-op else

        # occurrence rewrites
        for occ in self.cand.occurrences:
            role = self._role.get(id(occ))
            if role is None:
                continue
            if role == "left":
                entry = self._def_entry[id(occ)]
                if entry.needs_save:
                    self._rewrite_left(
                        occ, self._make_temp(), uses_alat and entry.spec_linked
                    )
            elif role == "def":
                entry = self._def_entry[id(occ)]
                if entry.needs_save:
                    self._rewrite_save(occ, self._make_temp(), uses_alat)
            else:  # reload
                entry = self._occ_entry[id(occ)]
                temp = self._make_temp()
                if entry.kind == "phi" and entry.phi is not None and entry.phi.alat_avail:
                    self._rewrite_alat_use(occ, temp)
                else:
                    self._rewrite_reload(occ, temp)
                    if self._occ_spec.get(id(occ)):
                        self.result.speculative_reloads += 1

        # Phi-driven insertions and invalidations
        for phi in self.phis.values():
            if id(phi) not in self._phi_used:
                continue
            if phi.will_be_avail:
                for i, op in enumerate(phi.operands):
                    if op.insert:
                        self._insert_on_edge(phi, i, self._make_temp(), uses_alat)
            if phi.alat_avail:
                temp = self._make_temp()
                anchor = self._invala_anchor(phi)
                assert anchor is not None
                term = anchor.terminator
                assert term is not None
                inv = InvalidateCheck(temp)
                inv.loc = term.loc
                anchor.insert_before(term, inv)
                self.result.invalidates += 1

        # Check statements after speculated-over stores
        if check_plan and self.result.temp is not None:
            self._insert_checks(self.result.temp, check_plan)

        # Cascade: upgrade skipped earlier-round address checks to chk.a
        # with recovery code reloading address and value (Figure 4).
        if self.opts.cascade and self.result.temp is not None:
            self._upgrade_cascade_checks(self.result.temp)

    def _rewrite_left(self, occ: Occurrence, temp: Variable, uses_alat: bool) -> None:
        """Store-forwarding: ``a = e`` -> ``t = e; a = t`` (+ ld.a).

        For direct stores the original statement is *retargeted* to the
        temp and a fresh ``a = t`` follows: the RHS expression tree must
        stay inside its original statement, because other candidates'
        occurrences nested in it are keyed by that statement."""
        stmt = occ.stmt
        block = stmt.block
        assert block is not None
        if isinstance(stmt, Assign):
            var = stmt.target
            stmt.target = temp
            anchor: Stmt = Assign(var, VarRead(temp))
            anchor.loc = stmt.loc
            block.insert_after(stmt, anchor)
        else:
            assert isinstance(stmt, Store)
            if self._addr_temp is not None:
                addr_save = Assign(self._addr_temp, self._occ_addr_expr(occ))
                addr_save.loc = stmt.loc
                block.insert_before(stmt, addr_save)
            save = Assign(temp, stmt.value)
            save.loc = stmt.loc
            block.insert_before(stmt, save)
            stmt.value = VarRead(temp)
            anchor = stmt
        if uses_alat:
            # Figure 1(b): secure the ALAT entry after the store.
            lda = Assign(temp, self._template_via_addr_temp(), spec_flag=SpecFlag.LD_A)
            lda.loc = stmt.loc
            block.insert_after(anchor, lda)
        if self._lead_loc is None:
            self._lead_loc = stmt.loc
        self.result.left_saves += 1

    def _rewrite_save(self, occ: Occurrence, temp: Variable, uses_alat: bool) -> None:
        """Leading load: ``t = E`` before, use replaced with t."""
        stmt = occ.stmt
        block = stmt.block
        assert block is not None
        assert occ.expr is not None
        if self._addr_temp is not None:
            addr_save = Assign(self._addr_temp, self._occ_addr_expr(occ))
            addr_save.loc = stmt.loc
            block.insert_before(stmt, addr_save)
            load_expr = self._template_via_addr_temp()
        else:
            load_expr = self._clone_template()
        flag = SpecFlag.LD_A if uses_alat else SpecFlag.NONE
        save = Assign(temp, load_expr, spec_flag=flag)
        save.loc = stmt.loc
        block.insert_before(stmt, save)
        if self._lead_loc is None:
            self._lead_loc = stmt.loc
        replace_exprs_in_stmt(stmt, {occ.expr.eid: VarRead(temp)})
        self.result.saves += 1

    def _rewrite_reload(self, occ: Occurrence, temp: Variable) -> None:
        stmt = occ.stmt
        assert occ.expr is not None
        replace_exprs_in_stmt(stmt, {occ.expr.eid: VarRead(temp)})
        self.result.reloads += 1

    def _rewrite_alat_use(self, occ: Occurrence, temp: Variable) -> None:
        """Figure 2: the use itself is a check (ld.c) that reloads on
        the cold path or after a collision.  The address is recomputed
        in place — exactly what the original load did here."""
        stmt = occ.stmt
        block = stmt.block
        assert block is not None
        assert occ.expr is not None
        if ssapre.CHAOS_DISABLE_CHECK_REWRITE:
            # Deliberately miscompile: consume the speculated temp with
            # no ld.c guarding it.  Only repro.chaos.run_self_test sets
            # this, to prove the differential harness catches the class
            # of bug the check insertion exists to prevent.
            replace_exprs_in_stmt(stmt, {occ.expr.eid: VarRead(temp)})
            self.result.reloads += 1
            return
        check = Assign(temp, self._clone_template(), spec_flag=SpecFlag.LD_C_NC)
        check.loc = stmt.loc
        block.insert_before(stmt, check)
        replace_exprs_in_stmt(stmt, {occ.expr.eid: VarRead(temp)})
        self.result.checks += 1
        self.result.reloads += 1

    def _insert_on_edge(self, phi: _ExprPhi, operand_index: int, temp: Variable, uses_alat: bool) -> None:
        pred = phi.pred_blocks[operand_index]
        if len(pred.successors()) > 1:
            raise IRError(
                f"{self.fn.name}: critical edge {pred.label}->{phi.block.label} "
                "not split before PRE"
            )
        control_spec = id(phi) in self._control_spec_phis or not phi.down_safe
        term = pred.terminator
        assert term is not None
        if self._addr_temp is not None:
            addr_template = self.cand.template
            assert isinstance(addr_template, Load)
            addr_save = Assign(self._addr_temp, clone_expr(addr_template.addr))
            addr_save.loc = term.loc
            pred.insert_before(term, addr_save)
            load_expr: Expr = self._template_via_addr_temp()
        else:
            load_expr = self._clone_template()
        if control_spec:
            # Not anticipated on this path: the load must not fault
            # (IA-64 ld.sa defers exceptions).
            flag = SpecFlag.LD_SA
        elif uses_alat:
            flag = SpecFlag.LD_A
        else:
            flag = SpecFlag.NONE
        insert = Assign(temp, load_expr, spec_flag=flag)
        insert.loc = term.loc
        pred.insert_before(term, insert)
        if self._lead_loc is None:
            self._lead_loc = term.loc
        self.result.inserts += 1
        if control_spec:
            self.result.speculative_inserts += 1

    # -- cascade (section 2.4, Figure 4) ------------------------------------

    def _cascade_check_sites(self) -> list[Stmt]:
        """Earlier-round check statements on this candidate's address
        temporaries that a cascade reuse speculated across."""
        info = self.info
        sites: dict[int, Stmt] = {}
        stmts_by_sid = {
            stmt.sid: stmt for b in self.fn.blocks for stmt in b.stmts
        }
        seen: set[tuple[VarKey, int, int]] = set()

        def walk(key: VarKey, version: int, stop: int) -> None:
            while version != stop and version > 0:
                node = (key, version, stop)
                if node in seen:
                    return
                seen.add(node)
                site = info.def_site.get((key, version))
                if site is None:
                    return
                if site[0] == "stmt":
                    link = info.check_def_links.get((key, version))
                    if link is None:
                        return  # a real definition: stop
                    stmt = stmts_by_sid.get(site[1])
                    if stmt is not None:
                        sites[stmt.sid] = stmt
                    version = link[1]
                elif site[0] == "phi":
                    phi = info.phis.get(site[1], {}).get(key)
                    if phi is None:
                        return
                    for op in phi.operands:
                        if op >= 0:
                            walk(key, op, stop)
                    return
                else:
                    return

        for occ in self.cand.occurrences:
            if self._role.get(id(occ)) != "reload":
                continue
            # The reuse is a cascade whenever the occurrence's address
            # version differs from the base version it was matched at —
            # the gap can only be bridged by check-definitions (walk()
            # stops at real defs), and a value reuse across an address
            # check is stale exactly when that check fails, regardless
            # of whether the *value* location was itself speculated
            # over (the store may not alias the value at all, Figure 4).
            for key, exact, base in zip(
                self.cand.addr_keys, occ.versions[:-1], occ.base_versions[:-1]
            ):
                if exact != base:
                    walk(key, exact, base)
        return list(sites.values())

    def _upgrade_cascade_checks(self, value_temp: Variable) -> None:
        if self.cand.kind is not CandidateKind.INDIRECT:
            return  # only pointer chains have checked address registers
        assert isinstance(self.cand.template, Load)
        for stmt in self._cascade_check_sites():
            if not isinstance(stmt, Assign):
                continue
            # Recovery code re-executes the leading load; attribute it
            # there (the check's own loc as fallback).
            rec_loc = self._lead_loc if self._lead_loc is not None else stmt.loc
            if stmt.spec_flag in (SpecFlag.LD_C, SpecFlag.LD_C_NC):
                # Upgrade: the simple reload becomes a branching check.
                # The recovery's own loads are ld.sa-style (non-faulting,
                # re-arming the ALAT entries).
                stmt.spec_flag = SpecFlag.CHK_A_NC
                rearm = Assign(stmt.target, clone_expr(stmt.expr), SpecFlag.LD_SA)
                rearm.loc = stmt.loc
                stmt.recovery = [rearm]
            if not stmt.spec_flag.is_branching_check or stmt.recovery is None:
                continue
            if self._addr_temp is not None:
                addr_reload = Assign(
                    self._addr_temp, clone_expr(self.cand.template.addr)
                )
                addr_reload.loc = rec_loc
                stmt.recovery.append(addr_reload)
                reload_expr: Expr = self._template_via_addr_temp()
            else:
                reload_expr = clone_expr(self.cand.template)
            value_reload = Assign(value_temp, reload_expr, SpecFlag.LD_SA)
            value_reload.loc = rec_loc
            stmt.recovery.append(value_reload)
            self.result.cascade_upgrades += 1

    # -- check statements --------------------------------------------------

    def _check_plan(self) -> list[tuple[Stmt, str]]:
        """(statement, mechanism) for every store/call whose speculative
        chi on the value key some reuse of this candidate skipped.
        Mechanism is the chi's ('alat' from profile-clean targets,
        'soft' where the software scheme must repair); a pure-software
        run forces 'soft' everywhere."""
        info = self.info
        key = self.cand.value_key
        sites: dict[int, Stmt] = {}
        stmts_by_sid: dict[int, Stmt] = {}
        for block in self.fn.blocks:
            for stmt in block.stmts:
                stmts_by_sid[stmt.sid] = stmt

        visited: set[tuple[int, int]] = set()

        def walk_chain(version: int, stop: int) -> None:
            while version != stop and version > 0:
                if (version, stop) in visited:
                    return
                visited.add((version, stop))
                site = info.def_site.get((key, version))
                if site is None:
                    return
                if site[0] == "chi":
                    stmt = stmts_by_sid.get(site[1])
                    if stmt is not None:
                        sites[stmt.sid] = stmt
                    old = _chi_old_version(stmt, key, version)
                    if old is None:
                        return
                    version = old
                elif site[0] == "phi":
                    bid = site[1]
                    phis = info.phis.get(bid, {})
                    phi = phis.get(key)
                    if phi is None:
                        return
                    for op in phi.operands:
                        if op >= 0:
                            walk_chain(op, stop)
                    return
                else:
                    return

        for occ in self.cand.occurrences:
            if not self._occ_spec.get(id(occ)):
                continue
            if self._role.get(id(occ)) != "reload":
                continue
            entry = self._occ_entry.get(id(occ))
            if (
                entry is not None
                and entry.kind == "phi"
                and entry.phi is not None
                and entry.phi.alat_avail
            ):
                # alat uses are ld.c themselves; no store checks needed
                # on their behalf
                continue
            walk_chain(occ.versions[-1], occ.base_versions[-1])

        # speculative Phi operands of used Phis also skip chis
        for phi in self.phis.values():
            if id(phi) not in getattr(self, "_phi_used", set()):
                continue
            for i, op in enumerate(phi.operands):
                if op.speculative and op.class_id is not _BOTTOM:
                    pred = phi.pred_blocks[i]
                    exit_version = info.version_at_exit(pred.bid, key)
                    entry = self._class_def.get(op.class_id)
                    if entry is not None:
                        walk_chain(exit_version, entry.versions[-1])

        plan: list[tuple[Stmt, str]] = []
        indirect = self.cand.kind is CandidateKind.INDIRECT
        for stmt in sites.values():
            mechanism = "soft" if self.opts.softcheck else "alat"
            if not self.opts.softcheck and not indirect:
                # scalar candidates may carry the software repair for
                # profile-dirty stores (the baseline scheme underneath)
                for chi in stmt.chi_list:
                    if chi.key == key and chi.speculative:
                        if chi.mechanism is not None:
                            mechanism = chi.mechanism
                        break
            plan.append((stmt, mechanism))
        return plan

    def _insert_checks(self, temp: Variable, plan: list[tuple[Stmt, str]]) -> None:
        """Paper section 3.4: refresh the temp after every speculated
        store — ld.c for ALAT-mechanism sites, an address compare plus
        predicated reload for software-mechanism sites."""
        for stmt, mechanism in plan:
            block = stmt.block
            if block is None:
                continue
            if mechanism == "soft" and isinstance(stmt, Store):
                check: Stmt = ConditionalReload(
                    temp, self._candidate_home_addr(), clone_expr(stmt.addr)
                )
            else:
                if ssapre.CHAOS_DISABLE_CHECK_REWRITE:
                    # Chaos self-test (see flag docstring): leave the
                    # speculated temp unchecked past this store.
                    continue
                check = Assign(
                    temp, self._template_via_addr_temp(), spec_flag=SpecFlag.LD_C_NC
                )
            # The check guards this store: attribute it to the store's line.
            check.loc = stmt.loc
            block.insert_after(stmt, check)
            self.result.checks += 1


class _AvailEntry:
    """One availability source: a def occurrence, a left occurrence, or
    an available expression Phi."""

    __slots__ = ("kind", "phi", "occ", "needs_save", "spec_linked")

    def __init__(self, kind: str, phi: Optional[_ExprPhi] = None, occ: Optional[Occurrence] = None) -> None:
        self.kind = kind
        self.phi = phi
        self.occ = occ
        self.needs_save = False
        #: some *speculative* consumer reads this entry's value — only
        #: then is an ALAT entry (ld.a after a store) worth arming
        self.spec_linked = False


def _chi_old_version(stmt: Optional[Stmt], key: VarKey, new_version: int) -> Optional[int]:
    if stmt is None:
        return None
    for chi in stmt.chi_list:
        if chi.key == key and chi.new_version == new_version:
            return chi.old_version
    return None
