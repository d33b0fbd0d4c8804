"""SSAPRE over one candidate expression, with the paper's speculative
extensions.

Classical steps follow Kennedy et al. (TOPLAS'99); speculation changes
exactly the two places the paper says it does (section 3.2):

* **Rename** compares *base* versions of the candidate's value variable
  (direct variable or HSSA virtual variable), so occurrences separated
  only by χ_s updates land in the same class, annotated
  ``<speculative>``;
* **CodeMotion** emits ld.a/ld.sa-flagged saves, turns speculated-over
  stores into ld.c check statements, and (for partially redundant loads,
  Figure 2) uses ``invala.e`` plus ld.c-at-use instead of inserting
  loads on cold paths.

Address sub-expression versions must always match exactly — promoting
through a modified *address* is the cascade case (section 2.4), handled
by a separate pipeline round.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import IRError
from repro.ir.cfg import BasicBlock
from repro.ir.expr import Expr, Load, VarRead, clone_expr
from repro.ir.function import Function
from repro.ir.stmt import (
    Assign,
    ConditionalReload,
    InvalidateCheck,
    SpecFlag,
    Stmt,
    Store,
)
from repro.ir.symbols import Variable
from repro.pre.candidates import Candidate, CandidateKind, Occurrence
from repro.pre.rewrite import replace_exprs_in_stmt
from repro.ssa.hssa import ChiOperand, HSSAInfo, VarKey, compute_spec_bases

#: Chaos-harness self-test hook: when True, ``_rewrite_alat_use`` omits
#: the ld.c it is supposed to insert, producing a real miscompile (a
#: speculated value consumed without a check).  Flipped only by
#: ``repro.chaos.campaign.run_self_test`` to prove the differential
#: harness detects and minimises exactly this bug class.
CHAOS_DISABLE_CHECK_REWRITE = False


@dataclass
class PREOptions:
    """Knobs for one promotion run."""

    #: base-version (speculative) matching in Rename; also hoists
    #: non-down-safe loop-header Phis (inserted loads become ld.sa) and,
    #: without ``softcheck``, keeps partially redundant classes
    #: available through the ALAT (Figure 2: invala.e + ld.c at use)
    speculative: bool = False
    #: use Nicolau-style software address checks instead of ALAT checks
    softcheck: bool = False
    #: allow alias speculation on indirect references (*p).  The ALAT
    #: can (the paper's headline contribution); the software scheme in
    #: ORC's baseline only handled scalars, so the baseline runs with
    #: this off — indirect loads then promote classically only.
    indirect_speculation: bool = True
    #: cascade promotion (section 2.4 / Figure 4): treat earlier-round
    #: *check* definitions of promoted address temporaries as
    #: speculatively transparent, and upgrade those checks to chk.a with
    #: recovery code reloading both the address and the value.
    cascade: bool = False


@dataclass
class PREResult:
    """Statistics of one candidate's transformation."""

    candidate: Candidate
    temp: Optional[Variable] = None
    saves: int = 0
    reloads: int = 0
    speculative_reloads: int = 0
    inserts: int = 0
    speculative_inserts: int = 0
    checks: int = 0
    invalidates: int = 0
    left_saves: int = 0
    cascade_upgrades: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.saves or self.reloads or self.inserts or self.left_saves)


_BOTTOM = -1


class _PhiOperand:
    __slots__ = ("class_id", "has_real_use", "speculative", "def_phi", "insert", "entry")

    def __init__(self) -> None:
        self.class_id = _BOTTOM
        self.has_real_use = False
        self.speculative = False
        #: the Phi defining the operand's class, if any (for propagation)
        self.def_phi: Optional[_ExprPhi] = None
        #: insertion required on this edge (set by Finalize)
        self.insert = False
        #: Finalize: the availability entry current at the pred's exit
        #: (None: the value must be inserted on this edge)
        self.entry: Optional[_AvailEntry] = None


class _ExprPhi:
    __slots__ = (
        "block", "versions", "base_versions", "class_id", "pred_blocks",
        "operands", "down_safe", "can_be_avail", "later", "alat_avail",
        "control_spec", "used", "entry",
    )

    def __init__(self, block: BasicBlock, versions: tuple[int, ...], base_versions: tuple[int, ...]) -> None:
        self.block = block
        self.versions = versions
        self.base_versions = base_versions
        self.class_id = -1
        #: snapshot of the predecessor list operands align with (edge
        #: splitting during CodeMotion must not reorder lookups)
        self.pred_blocks: list[BasicBlock] = list(block.preds)
        self.operands: list[_PhiOperand] = [_PhiOperand() for _ in self.pred_blocks]
        self.down_safe = True
        self.can_be_avail = True
        self.later = True
        #: Figure 2 mode: value available via ALAT entry, uses become ld.c
        self.alat_avail = False
        #: DownSafety's loop speculation made this Phi down-safe:
        #: insertions for it are control-speculative (ld.sa)
        self.control_spec = False
        #: Finalize: the Phi's value reaches a reload
        self.used = False
        #: Finalize: the availability entry the Phi itself defines
        self.entry: Optional[_AvailEntry] = None

    @property
    def will_be_avail(self) -> bool:
        return self.can_be_avail and not self.later

    def __repr__(self) -> str:
        return f"ExprPhi(h{self.class_id}@{self.block.label})"


class _DefKind(enum.Enum):
    REAL = "real"
    LEFT = "left"
    PHI = "phi"


class _StackEntry:
    """One Rename stack entry: a class definition, or the use marker a
    matching occurrence pushes on top of it."""

    __slots__ = (
        "class_id", "versions", "base_versions", "kind", "phi", "def_occ",
        "seen_real_use",
    )

    def __init__(
        self,
        class_id: int,
        versions: tuple[int, ...],
        base_versions: tuple[int, ...],
        kind: _DefKind,
        phi: Optional[_ExprPhi] = None,
        def_occ: Optional[Occurrence] = None,
        seen_real_use: bool = False,
    ) -> None:
        self.class_id = class_id
        self.versions = versions
        self.base_versions = base_versions
        self.kind = kind
        self.phi = phi
        self.def_occ = def_occ
        self.seen_real_use = seen_real_use


class _Occ:
    """What Rename and Finalize decide about one occurrence."""

    __slots__ = ("occ", "class_id", "speculative", "is_def", "role", "entry")

    def __init__(self, occ: Occurrence) -> None:
        self.occ = occ
        #: Rename: the occurrence's class (None: its block was not walked)
        self.class_id: Optional[int] = None
        #: Rename: matched its class by base versions only
        self.speculative = False
        #: Rename: the occurrence defines its class
        self.is_def = False
        #: Finalize: "left", "def" or "reload"
        self.role: Optional[str] = None
        #: Finalize: the availability entry a left or def occurrence
        #: defines, or the one a reload reads
        self.entry: Optional[_AvailEntry] = None


#: the version map of a block HSSA's renamer never reached
_NO_VERSIONS: dict = {}


class SSAPRE:
    """Runs the six steps for one candidate in one function."""

    def __init__(
        self,
        fn: Function,
        info: HSSAInfo,
        candidate: Candidate,
        options: PREOptions,
    ) -> None:
        self.fn = fn
        self.info = info
        self.cand = candidate
        self.opts = options
        self.keys: tuple[VarKey, ...] = candidate.addr_keys + (candidate.value_key,)
        self._value_key = self.keys[-1]
        self.phis: dict[int, _ExprPhi] = {}  # block id -> Phi
        #: the Φ operands each block supplies (a Φ, and the operand's
        #: index), by the block's id
        self._operands_at: dict[int, list[tuple[_ExprPhi, int]]] = {}
        self.result = PREResult(candidate)
        self._class_def: dict[int, _StackEntry] = {}
        self._class_counter = 0
        #: Rename's base-version matching applies to this candidate
        self._speculates = options.speculative and (
            candidate.kind is not CandidateKind.INDIRECT
            or options.indirect_speculation
        )
        # occurrence records, and the same by block id in occurrence order
        self._occs = [_Occ(occ) for occ in candidate.occurrences]
        self._occ_by_block: dict[int, list[_Occ]] = {}
        for rec in self._occs:
            block = rec.occ.stmt.block
            assert block is not None, f"occurrence statement detached: {rec.occ}"
            self._occ_by_block.setdefault(block.bid, []).append(rec)
        # Per-candidate speculative base versions: a chi is ignorable
        # for THIS candidate iff the store cannot touch the candidate's
        # own target set (coarse class membership must not pessimise
        # unrelated locations, nor let profile-dirty stores through).
        # Only the value key's bases are ever read (``_base``).  They
        # depend on the value key and the target set alone, so
        # candidates that share both share one computation per round.
        if candidate.kind is CandidateKind.INDIRECT and options.speculative:
            memo = (self._value_key, candidate.target_ids)
            bases = info.candidate_bases.get(memo)
            if bases is None:
                bases = info.candidate_bases[memo] = compute_spec_bases(
                    info, self._chi_ignorable, key=self._value_key
                )
            self._local_bases: Optional[dict] = bases
            self._bases = bases
        else:
            self._local_bases = None
            self._bases = info.spec_base
        # Cascade mode: earlier-round check defs of address temporaries
        # are speculatively transparent on address keys.
        if options.cascade and options.speculative and info.check_def_links:
            self._addr_bases: Optional[dict] = info.check_bases()
        else:
            self._addr_bases = None
        for occ in candidate.occurrences:
            occ.base_versions = self._base_versions(occ.versions)

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

    def _base_versions(self, versions: tuple[int, ...]) -> tuple[int, ...]:
        """The base versions of the version vector ``versions``: address
        keys through the cascade's bases, the value key through the
        candidate's speculative bases."""
        value = versions[-1]
        base = self._bases.get((self._value_key, value), value)
        addr_bases = self._addr_bases
        if addr_bases is None:
            if base == value:
                return versions
            return versions[:-1] + (base,)
        return tuple([
            addr_bases.get((k, v), v) for k, v in zip(self.keys, versions[:-1])
        ]) + (base,)

    # ------------------------------------------------------------------
    # Step 0: occurrence version vectors
    # ------------------------------------------------------------------

    def _versions_at(self, bid: int, entry: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
        info = self.info
        by_block = info.block_entry_versions if entry else info.block_exit_versions
        current = by_block.get(bid, _NO_VERSIONS)
        versions = tuple([current.get(k, 0) for k in self.keys])
        return versions, self._base_versions(versions)

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
        seeds.update(sorted(defined, key=self.info.layout_position().__getitem__))
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
                phi = self.phis[fb.bid] = _ExprPhi(fb, versions, base_versions)
                for i, pred in enumerate(phi.pred_blocks):
                    self._operands_at.setdefault(pred.bid, []).append((phi, i))
                if fb.bid not in seeds:
                    seeds.add(fb.bid)
                    worklist.append(fb.bid)

    # ------------------------------------------------------------------
    # Step 2: Rename
    # ------------------------------------------------------------------

    def _walked_blocks(self) -> set[int]:
        """Ids of the blocks Rename and Finalize visit in their
        dominator-tree walks.  Only a block with an occurrence or a Φ, a
        Φ predecessor or (when there are Φs) an exit acts in the walks;
        a subtree without one pushes nothing and sets nothing, so the
        walks enter only the blocks that dominate one."""
        blocks = [recs[0].occ.stmt.block for recs in self._occ_by_block.values()]
        for phi in self.phis.values():
            blocks.append(phi.block)
            blocks.extend(phi.pred_blocks)
        if self.phis:
            blocks.extend(self.info.exits())
        idom = self.info.domtree.idom
        walked: set[int] = set()
        for block in blocks:
            while block is not None and block.bid not in walked:
                walked.add(block.bid)
                block = idom(block)
        return walked

    def _walk_order(self) -> list[tuple[BasicBlock, int]]:
        """The blocks of :attr:`_walked` in dominator-tree preorder, each
        with its depth in the tree.  Rename and Finalize both walk this
        list: a block at depth d first closes the scopes of the blocks
        at depth d and deeper, whose subtrees are done."""
        walked = self._walked
        children = self.info.domtree.children
        order: list[tuple[BasicBlock, int]] = []
        stack = [(self.fn.entry, 0)]
        while stack:
            block, depth = stack.pop()
            order.append((block, depth))
            kids = [c for c in children[block.bid] if c.bid in walked]
            kids.reverse()
            depth += 1
            stack.extend([(kid, depth) for kid in kids])
        return order

    def _rename(self) -> None:
        stack: list[_StackEntry] = []
        self._exit_ids = self.info.exit_ids() if self.phis else frozenset()
        self._order = self._walk_order()
        marks: list[int] = []
        for block, depth in self._order:
            while len(marks) > depth:
                del stack[marks.pop():]
            marks.append(len(stack))
            self._rename_block(block, stack)

    def _match(self, entry: _StackEntry, versions: tuple[int, ...], base_versions: tuple[int, ...]) -> Optional[bool]:
        """None = no match; False = exact match; True = speculative
        match (value base versions equal, addresses exact)."""
        if entry.versions == versions:
            return False
        if not self._speculates:
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

    def _push_class(
        self,
        stack: list[_StackEntry],
        versions: tuple[int, ...],
        base_versions: tuple[int, ...],
        kind: _DefKind,
        phi: Optional[_ExprPhi] = None,
        def_occ: Optional[Occurrence] = None,
    ) -> int:
        """Push a new class defined here; returns its id."""
        self._kill_check(stack)
        self._class_counter += 1
        cid = self._class_counter
        entry = _StackEntry(
            cid, versions, base_versions, kind, phi, def_occ,
            kind is not _DefKind.PHI,
        )
        self._class_def[cid] = entry
        stack.append(entry)
        return cid

    def _rename_block(self, block: BasicBlock, stack: list[_StackEntry]) -> None:
        """Rename ``block`` itself; what it pushes stays on ``stack`` for
        its dominator subtree."""
        bid = block.bid
        phis = self.phis

        phi = phis.get(bid)
        if phi is not None:
            phi.class_id = self._push_class(
                stack, phi.versions, phi.base_versions, _DefKind.PHI, phi=phi
            )

        for rec in self._occ_by_block.get(bid, ()):
            # versions were precomputed at collection time
            occ = rec.occ
            if occ.is_left:
                rec.class_id = self._push_class(
                    stack, occ.versions, occ.base_versions, _DefKind.LEFT,
                    def_occ=occ,
                )
                rec.is_def = True
                continue
            matched: Optional[bool] = None
            if stack:
                matched = self._match(stack[-1], occ.versions, occ.base_versions)
            if matched is not None:
                top = stack[-1]
                rec.class_id = top.class_id
                rec.speculative = matched
                # Push a use marker (Kennedy pushes the occurrence
                # itself): has_real_use must be *path*-accurate, and a
                # mutable flag on the class entry would leak uses from
                # sibling dominator subtrees into later operands.  The
                # marker pops with this block's scope.
                stack.append(
                    _StackEntry(
                        top.class_id, occ.versions, occ.base_versions,
                        top.kind, top.phi, top.def_occ, True,
                    )
                )
            else:
                rec.class_id = self._push_class(
                    stack, occ.versions, occ.base_versions, _DefKind.REAL,
                    def_occ=occ,
                )
                rec.is_def = True

        # Only a Phi's class can lose down-safety at an exit, and only a
        # successor's Phi takes an operand here.
        if phis and stack:
            top = stack[-1]
            # exit detection for down-safety
            if bid in self._exit_ids and top.kind is _DefKind.PHI and not top.seen_real_use:
                assert top.phi is not None
                top.phi.down_safe = False

            # expression-Phi operands of successors: each must carry the
            # value current at block exit
            supplied = self._operands_at.get(bid)
            if supplied:
                matched = self._match(top, *self._versions_at(bid, entry=False))
                if matched is not None:
                    for sphi, idx in supplied:
                        operand = sphi.operands[idx]
                        operand.class_id = top.class_id
                        operand.has_real_use = top.seen_real_use or top.kind in (
                            _DefKind.REAL,
                            _DefKind.LEFT,
                        )
                        operand.speculative = bool(matched)
                        operand.def_phi = top.phi if top.kind is _DefKind.PHI else None

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
        if self.opts.speculative:
            for phi in self.phis.values():
                if phi.down_safe:
                    continue
                if phi.block.bid in self.info.loop_headers():
                    phi.down_safe = True
                    phi.control_spec = True

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
        if self.opts.speculative and not self.opts.softcheck:
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
        avail: dict[int, list[_AvailEntry]] = {}
        # the Phis whose value is available: only they define an entry
        # and take operand entries
        avail_phis = {
            bid: phi for bid, phi in self.phis.items()
            if phi.will_be_avail or phi.alat_avail
        }
        occ_by_block = self._occ_by_block
        operands_at = self._operands_at
        #: the classes each open block pushed
        scopes: list[list[int]] = []
        for block, depth in self._order:
            while len(scopes) > depth:
                for cid in reversed(scopes.pop()):
                    avail[cid].pop()
            pushed: list[int] = []
            scopes.append(pushed)

            phi = avail_phis.get(block.bid)
            if phi is not None:
                entry = phi.entry = _AvailEntry("phi", phi=phi)
                avail.setdefault(phi.class_id, []).append(entry)
                pushed.append(phi.class_id)

            for rec in occ_by_block.get(block.bid, ()):
                cid = rec.class_id
                if cid is None:
                    continue
                if rec.occ.is_left:
                    rec.role = "left"
                elif rec.is_def:
                    rec.role = "def"
                else:
                    stack = avail.get(cid)
                    if stack:
                        entry = stack[-1]
                        entry.needs_save = True
                        if rec.speculative:
                            entry.spec_linked = True
                        rec.role = "reload"
                        rec.entry = entry
                        continue
                    # value not materialised on this path: recompute
                    rec.role = "def"
                entry = rec.entry = _AvailEntry("occ" if rec.role == "def" else "left")
                avail.setdefault(cid, []).append(entry)
                pushed.append(cid)

            if avail_phis:
                for sphi, idx in operands_at.get(block.bid, ()):
                    if sphi.block.bid not in avail_phis:
                        continue
                    op = sphi.operands[idx]
                    if op.class_id is not _BOTTOM:
                        stack = avail.get(op.class_id)
                        if stack:
                            op.entry = stack[-1]

        # Phi usefulness: a Phi matters iff its value reaches a reload,
        # directly or through other used Phis' operands.
        worklist = [
            rec.entry.phi
            for rec in self._occs
            if rec.role == "reload" and rec.entry.kind == "phi"
        ]
        while worklist:
            phi = worklist.pop()
            if phi.used:
                continue
            phi.used = True
            for op in phi.operands:
                entry = op.entry
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
        used = [phi for phi in self.phis.values() if phi.used]
        changed = True
        while changed:
            changed = False
            for phi in used:
                p_entry = phi.entry
                through = p_entry.spec_linked if p_entry is not None else False
                if phi.alat_avail:
                    through = True  # alat uses check this class's entry
                for op in phi.operands:
                    entry = op.entry
                    if entry is None:
                        continue
                    if (op.speculative or through) and not entry.spec_linked:
                        entry.spec_linked = True
                        changed = True

    # ------------------------------------------------------------------
    # Step 6: CodeMotion
    # ------------------------------------------------------------------

    def run(self) -> PREResult:
        if all(o.is_left for o in self.cand.occurrences):
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
            any(rec.speculative and rec.role == "reload" for rec in self._occs)
            or any(
                phi.used
                and any(op.speculative and op.class_id is not _BOTTOM for op in phi.operands)
                for phi in self.phis.values()
            )
            or any(phi.used and phi.alat_avail for phi in self.phis.values())
        )

    def _code_motion(self) -> None:
        check_plan = self._check_plan() if self._any_speculation() else []
        uses_alat = (not self.opts.softcheck) and (
            any(mech == "alat" for _stmt, mech in check_plan)
            or any(phi.used and phi.alat_avail for phi in self.phis.values())
            or any(phi.used and phi.control_spec for phi in self.phis.values())
        )
        self._addr_temp = None
        #: loc of this candidate's leading (advanced) load — recovery
        #: code is attributed there
        self._lead_loc = None
        if check_plan or uses_alat:
            self._make_addr_temp()  # indirect candidates only; no-op else

        # occurrence rewrites
        for rec in self._occs:
            role = rec.role
            if role is None:
                continue
            occ = rec.occ
            entry = rec.entry
            if role == "left":
                if entry.needs_save:
                    self._rewrite_left(
                        occ, self._make_temp(), uses_alat and entry.spec_linked
                    )
            elif role == "def":
                if entry.needs_save:
                    self._rewrite_save(occ, self._make_temp(), uses_alat)
            else:  # reload
                temp = self._make_temp()
                if entry.kind == "phi" and entry.phi is not None and entry.phi.alat_avail:
                    self._rewrite_alat_use(occ, temp)
                else:
                    self._rewrite_reload(occ, temp)
                    if rec.speculative:
                        self.result.speculative_reloads += 1

        # Phi-driven insertions and invalidations
        for phi in self.phis.values():
            if not phi.used:
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
        if CHAOS_DISABLE_CHECK_REWRITE:
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
        control_spec = phi.control_spec or not phi.down_safe
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

        for rec in self._occs:
            if rec.role != "reload":
                continue
            occ = rec.occ
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

        for rec in self._occs:
            if not rec.speculative or rec.role != "reload":
                continue
            entry = rec.entry
            if (
                entry is not None
                and entry.kind == "phi"
                and entry.phi is not None
                and entry.phi.alat_avail
            ):
                # alat uses are ld.c themselves; no store checks needed
                # on their behalf
                continue
            occ = rec.occ
            walk_chain(occ.versions[-1], occ.base_versions[-1])

        # speculative Phi operands of used Phis also skip chis
        for phi in self.phis.values():
            if not phi.used:
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
                if CHAOS_DISABLE_CHECK_REWRITE:
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


def cannot_change_code(candidate: Candidate, cyclic: set[int]) -> bool:
    """True when SSAPRE would return an empty result for ``candidate``
    without changing the function, so it need not run.  ``cyclic`` is
    :func:`repro.analysis.loops.cyclic_blocks` of the function.

    That is the case when the only occurrence is a load in a block O on
    no CFG cycle.  Every change SSAPRE makes (a save, reload, insert,
    check or invalidate) needs some occurrence to be a reload; with one
    occurrence, O itself would have to reuse the value of an available
    Φ dominating it, at a block B.  That Φ is available only if an
    operand carries a real occurrence (``later`` is cleared, or the
    Figure 2 scheme's ``has_real``), and O is the only one: the operand
    must come from a predecessor P that O dominates.  Then the edge
    P → B closes the cycle B → O → P → B through O."""
    occurrences = candidate.occurrences
    if len(occurrences) != 1 or occurrences[0].is_left:
        return False
    return occurrences[0].stmt.block.bid not in cyclic


class _AvailEntry:
    """One availability source: a def occurrence, a left occurrence, or
    an available expression Phi."""

    __slots__ = ("kind", "phi", "needs_save", "spec_linked")

    def __init__(self, kind: str, phi: Optional[_ExprPhi] = None) -> None:
        self.kind = kind
        self.phi = phi
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
