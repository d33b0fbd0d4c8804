"""HSSA construction: μ/χ insertion, phi placement, version renaming,
and speculative base-version tracking.

The *speculative base version* machinery implements the paper's key
idea (section 3.3) in one map: ``spec_base[(var, version)]`` is the
version this one is *speculatively identical to* — i.e. the version
reached by skipping χ operations whose ``speculative`` flag is set
(χ_s).  SSAPRE's Rename step compares base versions instead of exact
versions; occurrences that match only via base versions get the
``<speculative>`` annotation that later drives check generation.

Phi results are speculatively transparent when all their operands share
one base version (this is what lets a loop-invariant load whose only
in-loop "update" is a χ_s hoist out of the loop, Figure 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.alias.manager import AliasManager
from repro.alias.memobj import MemObject, VarMemObject
from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.domfrontier import compute_dominance_frontiers
from repro.errors import IRError
from repro.ir.cfg import BasicBlock
from repro.ir.expr import Load, VarRead
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import (
    Assign,
    Call,
    Return,
    Stmt,
    Store,
    stmt_defines,
    stmt_loads_and_reads,
)
from repro.ir.symbols import Variable, VirtualVariable

#: Keys uniting real and virtual variables in one namespace.
VarKey = tuple[str, int]

SSAVar = Union[Variable, VirtualVariable]


def var_key(v: SSAVar) -> VarKey:
    if isinstance(v, Variable):
        return ("v", v.id)
    return ("vv", v.id)


@dataclass(slots=True)
class MuOperand:
    """May-use of ``var`` (version filled by renaming)."""

    var: SSAVar
    version: int = -1
    speculative: bool = False
    #: ``var_key(var)``, made once
    key: VarKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = var_key(self.var)

    def __str__(self) -> str:
        tag = "mu_s" if self.speculative else "mu"
        return f"{tag}({self.var}{self.version})"


@dataclass(slots=True)
class ChiOperand:
    """May-def of ``var``: ``var_new <- chi(var_old)``.

    ``mechanism`` distinguishes how a speculative chi's checks repair
    mis-speculation: ``"alat"`` (hardware ld.c) or ``"soft"`` (Nicolau
    compare-and-reload).  ``speculative`` is True iff a mechanism is
    set.
    """

    var: SSAVar
    new_version: int = -1
    old_version: int = -1
    speculative: bool = False
    mechanism: Optional[str] = None
    #: for store chis on virtual variables: the decider's verdict per
    #: class object ({object id: "alat"|"soft"|None}); None for chis
    #: where per-object refinement is meaningless (calls, direct defs)
    object_mechanisms: Optional[dict] = None
    #: ``var_key(var)``, made once
    key: VarKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = var_key(self.var)

    def __str__(self) -> str:
        tag = "chi_s" if self.speculative else "chi"
        return f"{self.var}{self.new_version} <- {tag}({self.var}{self.old_version})"


@dataclass(slots=True)
class VarPhi:
    """SSA phi for one variable at a block (operands align with preds)."""

    var: SSAVar
    block: BasicBlock
    result_version: int = -1
    operands: list[int] = field(default_factory=list)
    #: ``var_key(var)``, made once
    key: VarKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = var_key(self.var)

    def __str__(self) -> str:
        ops = ", ".join(f"{self.var}{v}" for v in self.operands)
        return f"{self.var}{self.result_version} <- phi({ops})"


class HSSAInfo:
    """The HSSA annotation overlay for one function."""

    def __init__(self, fn: Function, am: AliasManager, domtree: DominatorTree) -> None:
        self.fn = fn
        self.am = am
        self.domtree = domtree
        #: version of each VarRead occurrence, keyed by expression eid
        self.use_version: dict[int, int] = {}
        #: version created by each direct def, keyed by statement sid
        self.def_version: dict[int, int] = {}
        #: mu operand backing each indirect Load occurrence (by eid)
        self.load_mu: dict[int, MuOperand] = {}
        #: chi operand of the store's own alias class, by statement sid
        self.store_chi: dict[int, ChiOperand] = {}
        #: phis per block id (ordered dict var-key -> phi)
        self.phis: dict[int, dict[VarKey, VarPhi]] = {}
        #: speculative base version per (var key, version)
        self.spec_base: dict[tuple[VarKey, int], int] = {}
        #: def site of each version: ('entry',) | ('stmt', sid) |
        #: ('chi', sid) | ('phi', bid)
        self.def_site: dict[tuple[VarKey, int], tuple] = {}
        #: versions defined by check-flagged assigns (ld.c/chk.a from an
        #: earlier promotion round) -> the version they re-validate.
        #: Cascade promotion (section 2.4) treats these as speculatively
        #: transparent on *address* keys.
        self.check_def_links: dict[tuple[VarKey, int], tuple[VarKey, int]] = {}
        #: current version of every key at block entry (after the
        #: block's variable phis) and at block exit, per block id
        self.block_entry_versions: dict[int, dict[VarKey, int]] = {}
        self.block_exit_versions: dict[int, dict[VarKey, int]] = {}
        #: dominance frontier of each block id (Phi placement)
        self.frontiers: dict[int, list[BasicBlock]] = {}
        #: ids of the blocks that define a version of each key: by a
        #: statement, a χ or a variable phi
        self.def_blocks: dict[VarKey, set[int]] = {}
        #: each statement's indirect loads and variable reads as HSSA
        #: saw them (:func:`repro.ir.stmt.stmt_loads_and_reads`), by
        #: sid.  PRE collects its candidates from them before any
        #: rewrite of the round changes a statement.
        self.walks: Walks = {}
        #: speculative base versions of one value key for one set of
        #: target objects (SSAPRE's indirect candidates), by (key, ids)
        self.candidate_bases: dict[
            tuple[VarKey, frozenset], dict[tuple[VarKey, int], int]
        ] = {}
        self._counters: dict[VarKey, itertools.count] = {}
        self._chis_by_key: Optional[dict[VarKey, list[ChiOperand]]] = None
        self._check_bases: Optional[dict[tuple[VarKey, int], int]] = None
        self._layout_position: Optional[dict[int, int]] = None
        self._exits: Optional[list[BasicBlock]] = None
        self._exit_ids: frozenset[int] = frozenset()
        self._loop_headers: Optional[frozenset[int]] = None

    def version_at_entry(self, bid: int, key: VarKey) -> int:
        return self.block_entry_versions.get(bid, {}).get(key, 0)

    def version_at_exit(self, bid: int, key: VarKey) -> int:
        return self.block_exit_versions.get(bid, {}).get(key, 0)

    def new_version(self, key: VarKey) -> int:
        counter = self._counters.get(key)
        if counter is None:
            counter = itertools.count(1)  # version 0 is the entry value
            self._counters[key] = counter
        return next(counter)

    def base_version(self, key: VarKey, version: int) -> int:
        """The version this one is speculatively identical to."""
        return self.spec_base.get((key, version), version)

    def block_phis(self, block: BasicBlock) -> dict[VarKey, VarPhi]:
        return self.phis.get(block.bid, {})

    def chis_of(self, key: VarKey) -> list[ChiOperand]:
        """The χ operands on ``key``, in layout order.  Indexed on first
        use and kept for the round: PRE's rewrites only add statements
        that carry no χ."""
        if self._chis_by_key is None:
            index: dict[VarKey, list[ChiOperand]] = {}
            for block in self.fn.blocks:
                for stmt in block.stmts:
                    for chi in stmt.chi_list:
                        index.setdefault(chi.key, []).append(chi)
            self._chis_by_key = index
        return self._chis_by_key.get(key, [])

    # -- facts of the round -------------------------------------------
    # PRE builds HSSA once per round, after it has split the critical
    # edges, and its rewrites only insert statements that are not
    # terminators into existing blocks.  The CFG, and what these
    # methods derive from it on first use, stays as it is for the round.

    def layout_position(self) -> dict[int, int]:
        """Each block id's index in the function's block list."""
        if self._layout_position is None:
            self._layout_position = {b.bid: i for i, b in enumerate(self.fn.blocks)}
        return self._layout_position

    def exits(self) -> list[BasicBlock]:
        """The blocks that leave the function (a return, or no
        successor), in layout order."""
        if self._exits is None:
            self._exits = [
                b for b in self.fn.blocks
                if isinstance(b.terminator, Return) or not b.successors()
            ]
            self._exit_ids = frozenset(b.bid for b in self._exits)
        return self._exits

    def exit_ids(self) -> frozenset[int]:
        """Ids of :meth:`exits`."""
        self.exits()
        return self._exit_ids

    def loop_headers(self) -> frozenset[int]:
        """Ids of the natural loop headers: the blocks that dominate a
        predecessor (the target of a back edge), the headers
        :func:`repro.analysis.loops.find_natural_loops` finds."""
        if self._loop_headers is None:
            dominates = self.domtree.dominates
            self._loop_headers = frozenset(
                b.bid for b in self.fn.blocks
                if any(dominates(b, p) for p in b.preds)
            )
        return self._loop_headers

    def check_bases(self) -> dict[tuple[VarKey, int], int]:
        """Base versions that skip only the check definitions of earlier
        rounds (:attr:`check_def_links`), which the cascade case treats
        as transparent on address keys.  They depend on no candidate,
        so they are computed once per round."""
        if self._check_bases is None:
            self._check_bases = compute_spec_bases(
                self, lambda chi: False, extra_links=self.check_def_links
            )
        return self._check_bases


#: Each statement's indirect loads and variable reads, by sid
#: (:func:`repro.ir.stmt.stmt_loads_and_reads`)
Walks = dict[int, tuple[list[Load], list[VarRead]]]

#: Decides whether a may-def/may-use of ``obj`` at ``stmt`` can be
#: speculatively ignored.  Returns a falsy value for "real", or the
#: check mechanism: ``"alat"`` (ALAT ld.c checks) or ``"soft"``
#: (software compare-and-reload).  Plain ``True`` means ``"alat"``.
SpecDecider = Callable[[Stmt, MemObject], Union[bool, str, None]]


def build_hssa(
    fn: Function,
    module: Module,
    am: AliasManager,
    spec_decider: Optional[SpecDecider] = None,
) -> HSSAInfo:
    """Construct HSSA for ``fn``: attach μ/χ, place phis, rename.

    ``spec_decider`` implements section 3.1's speculative flags: when it
    returns True for a (statement, object) may-def, the χ is marked χ_s
    and the renamer records base versions accordingly.  With no decider
    the result is ordinary (non-speculative) HSSA.
    """
    fn.compute_preds()
    domtree = compute_dominators(fn)
    info = HSSAInfo(fn, am, domtree)
    # One walk per statement: μ/χ attachment (twice), the variable scan
    # behind Phi placement and renaming all read the same nodes, and
    # nothing rewrites an expression while HSSA is built.
    walks = info.walks = {
        stmt.sid: stmt_loads_and_reads(stmt) for stmt in fn.iter_stmts()
    }
    _attach_mu_chi(fn, module, am, info, spec_decider, walks)
    _insert_phis(fn, info, domtree, walks)
    _Renamer(fn, info, domtree, walks).run()
    _compute_spec_bases(info)
    return info


# ---------------------------------------------------------------------------
# mu/chi attachment
# ---------------------------------------------------------------------------


def _attach_mu_chi(
    fn: Function,
    module: Module,
    am: AliasManager,
    info: HSSAInfo,
    spec_decider: Optional[SpecDecider],
    walks: Walks,
) -> None:
    visible = am.visible_var_objects(fn)

    # Virtual variables actually referenced by this function's indirect
    # accesses or calls; chi/mu are generated only for these.
    used_vvars: dict[int, VirtualVariable] = {}

    def vvar_for(targets: frozenset[MemObject]) -> Optional[VirtualVariable]:
        vvar = am.virtual_var_of_objects(targets)
        if vvar is not None:
            used_vvars[vvar.id] = vvar
        return vvar

    # First pass: collect vvars of accesses so direct stores know which
    # classes matter.  Each access's targets are looked up once, by the
    # load's eid or the store's sid.
    load_targets: dict[int, frozenset[MemObject]] = {}
    store_targets: dict[int, frozenset[MemObject]] = {}
    for stmt in fn.iter_stmts():
        for expr in walks[stmt.sid][0]:
            targets = load_targets[expr.eid] = am.access_targets(expr.addr, expr.type)
            vvar_for(targets)
        kind = type(stmt)
        if kind is Store:
            targets = store_targets[stmt.sid] = am.access_targets(
                stmt.addr, stmt.value.type
            )
            vvar_for(targets)
        elif kind is Call:
            for obj in am.call_mod(stmt.callee) | am.call_ref(stmt.callee):
                for vv in am.virtual_vars_containing(obj):
                    used_vvars[vv.id] = vv

    #: each object set met, in id order
    in_id_order: dict[frozenset[MemObject], list[MemObject]] = {}

    def by_id(objs: frozenset[MemObject]) -> list[MemObject]:
        ordered = in_id_order.get(objs)
        if ordered is None:
            ordered = in_id_order[objs] = _by_id(objs)
        return ordered

    #: the visible variable objects of each target set, in id order
    visible_of: dict[frozenset[MemObject], list[VarMemObject]] = {}

    def visible_targets(targets: frozenset[MemObject]) -> list[VarMemObject]:
        objs = visible_of.get(targets)
        if objs is None:
            objs = visible_of[targets] = [
                obj for obj in by_id(targets)
                if isinstance(obj, VarMemObject) and obj.id in visible
            ]
        return objs

    def spec(stmt: Stmt, obj: Optional[MemObject]) -> Optional[str]:
        if spec_decider is None or obj is None:
            return None
        result = spec_decider(stmt, obj)
        if result is True:
            return "alat"
        return result or None

    def vvar_spec(stmt: Stmt, vvar: VirtualVariable) -> Optional[str]:
        """A χ/μ on a virtual variable is speculative only if *every*
        object of its class is speculatively ignorable; the mechanism is
        "soft" as soon as any object needs the software repair."""
        if spec_decider is None:
            return None
        objs = by_id(am.class_objects(vvar))
        if not objs:
            return None
        mechanisms = [spec(stmt, o) for o in objs]
        if not all(mechanisms):
            return None
        return "soft" if "soft" in mechanisms else "alat"

    for stmt in fn.iter_stmts():
        stmt.mu_list = []
        stmt.chi_list = []
        # μ for every indirect load in the statement
        for expr in walks[stmt.sid][0]:
            targets = load_targets[expr.eid]
            vvar = vvar_for(targets)
            if vvar is None:
                # No points-to information: private class per access.
                vvar = VirtualVariable(group_key=("load", expr.eid))
            mu = MuOperand(vvar)
            stmt.mu_list.append(mu)
            info.load_mu[expr.eid] = mu
            for obj in visible_targets(targets):
                stmt.mu_list.append(
                    MuOperand(obj.var, speculative=bool(spec(stmt, obj)))
                )

        kind = type(stmt)
        if kind is Store:
            targets = store_targets[stmt.sid]
            vvar = vvar_for(targets)
            if vvar is None:
                vvar = VirtualVariable(group_key=("store", stmt.sid))
            vvar_mech = vvar_spec(stmt, vvar)
            chi = ChiOperand(
                vvar, speculative=vvar_mech is not None, mechanism=vvar_mech
            )
            if spec_decider is not None:
                chi.object_mechanisms = {
                    o.id: spec(stmt, o) for o in by_id(am.class_objects(vvar))
                }
            stmt.chi_list.append(chi)
            info.store_chi[stmt.sid] = chi
            for obj in visible_targets(targets):
                mech = spec(stmt, obj)
                stmt.chi_list.append(
                    ChiOperand(
                        obj.var, speculative=mech is not None, mechanism=mech
                    )
                )
        elif kind is Assign and stmt.target.has_memory_home:
            # Direct store: χ the virtual variables of classes that
            # contain the target, so indirect loads observe the update.
            obj = am.object_of_var(stmt.target)
            if obj is not None:
                for vv in am.virtual_vars_containing(obj):
                    if vv.id in used_vvars:
                        stmt.chi_list.append(ChiOperand(vv))
        elif kind is Call:
            mod = am.call_mod(stmt.callee)
            ref = am.call_ref(stmt.callee)
            seen_mu: set[int] = set()
            seen_chi: set[int] = set()
            for obj in by_id(ref):
                if isinstance(obj, VarMemObject) and obj.id in visible:
                    stmt.mu_list.append(MuOperand(obj.var))
                for vv in am.virtual_vars_containing(obj):
                    if vv.id in used_vvars and vv.id not in seen_mu:
                        seen_mu.add(vv.id)
                        stmt.mu_list.append(MuOperand(vv))
            for obj in by_id(mod):
                if isinstance(obj, VarMemObject) and obj.id in visible:
                    mech = spec(stmt, obj)
                    stmt.chi_list.append(
                        ChiOperand(
                            obj.var, speculative=mech is not None, mechanism=mech
                        )
                    )
                for vv in am.virtual_vars_containing(obj):
                    if vv.id in used_vvars and vv.id not in seen_chi:
                        seen_chi.add(vv.id)
                        vmech = vvar_spec(stmt, vv)
                        stmt.chi_list.append(
                            ChiOperand(
                                vv, speculative=vmech is not None, mechanism=vmech
                            )
                        )


def _by_id(objs: frozenset[MemObject]) -> list[MemObject]:
    """``objs`` in id order.  Memory objects hash by identity, so a
    set's own order follows heap addresses; the decider must see (and a
    trace record) its calls in an order no allocation elsewhere moves."""
    return sorted(objs, key=lambda o: o.id)


# ---------------------------------------------------------------------------
# phi insertion
# ---------------------------------------------------------------------------


def _collect_ssa_vars(
    fn: Function, walks: Walks
) -> tuple[dict[VarKey, SSAVar], dict[VarKey, list[BasicBlock]]]:
    """Every variable (real or virtual) that needs SSA versions, and
    the blocks defining each, in layout order: one scan."""
    result: dict[VarKey, SSAVar] = {}
    defined_in: dict[VarKey, list[BasicBlock]] = {}
    for var in fn.all_variables():
        result[var_key(var)] = var
    for block in fn.blocks:
        for stmt in block.stmts:
            for expr in walks[stmt.sid][1]:
                # a read is always of a real variable
                result.setdefault(("v", expr.var.id), expr.var)
            for mu in stmt.mu_list:
                result.setdefault(mu.key, mu.var)
            for chi in stmt.chi_list:
                result.setdefault(chi.key, chi.var)
            target = stmt_defines(stmt)
            if target is not None:
                key = var_key(target)
                result.setdefault(key, target)
                defined_in.setdefault(key, []).append(block)
            for chi in stmt.chi_list:
                defined_in.setdefault(chi.key, []).append(block)
    return result, defined_in


def _insert_phis(
    fn: Function, info: HSSAInfo, domtree: DominatorTree, walks: Walks
) -> None:
    df = info.frontiers = compute_dominance_frontiers(fn, domtree)
    ssa_vars, defined_in = _collect_ssa_vars(fn, walks)

    # per variable, in the variables' order
    for key, var in ssa_vars.items():
        blocks = defined_in.get(key)
        if not blocks:
            continue
        placed: set[int] = set()
        worklist = list(blocks)
        on_list = {b.bid for b in worklist}
        while worklist:
            block = worklist.pop()
            for fb in df.get(block.bid, ()):
                if fb.bid in placed:
                    continue
                placed.add(fb.bid)
                phi = VarPhi(var, fb)
                info.phis.setdefault(fb.bid, {})[key] = phi
                if fb.bid not in on_list:
                    on_list.add(fb.bid)
                    worklist.append(fb)
        info.def_blocks[key] = on_list


# ---------------------------------------------------------------------------
# renaming
# ---------------------------------------------------------------------------


class _Renamer:
    """The dominator-tree renaming walk.

    ``current`` maps every key with a version in scope to its current
    version (absent: version 0, the entry value); a block saves what it
    overwrites and restores it on the way out, which is what one version
    stack per key would hold on top.  The entry and exit version maps
    HSSA keeps per block are copies of ``current``, made only where it
    changed: a block without Phis starts from its dominator-tree
    parent's exit map, and a block that defines nothing ends on the map
    it started with.  Nothing writes to a stored map, so blocks share
    them."""

    def __init__(
        self, fn: Function, info: HSSAInfo, domtree: DominatorTree, walks: Walks
    ) -> None:
        self.fn = fn
        self.info = info
        self.domtree = domtree
        self.walks = walks
        self.current: dict[VarKey, int] = {}

    def run(self) -> None:
        info = self.info
        for key in list(info.phis.get(self.fn.entry.bid, {})):
            raise IRError("phi in entry block (entry must have no preds)")
        self._walk(self.fn.entry, {})

    def _walk(self, block: BasicBlock, versions: dict[VarKey, int]) -> None:
        """Rename ``block`` and its dominator subtree; ``versions`` is a
        map equal to ``current``."""
        info = self.info
        current = self.current
        def_site = info.def_site
        new_version = info.new_version
        bid = block.bid
        #: (key, version it replaced or None) per definition, in order
        saved: list[tuple[VarKey, Optional[int]]] = []

        phis = info.phis.get(bid)
        if phis:
            for key, phi in phis.items():
                version = new_version(key)
                phi.result_version = version
                def_site[(key, version)] = ("phi", bid)
                saved.append((key, current.get(key)))
                current[key] = version
            versions = current.copy()
        info.block_entry_versions[bid] = versions

        use_version = info.use_version
        walks = self.walks
        for stmt in block.stmts:
            # uses first (RHS and address expressions); a read is always
            # of a real variable
            for expr in walks[stmt.sid][1]:
                use_version[expr.eid] = current.get(("v", expr.var.id), 0)
            for mu in stmt.mu_list:
                mu.version = current.get(mu.key, 0)
            # then defs
            target = stmt_defines(stmt)
            if target is not None:
                key = var_key(target)
                prior = current.get(key, 0)
                version = new_version(key)
                info.def_version[stmt.sid] = version
                def_site[(key, version)] = ("stmt", stmt.sid)
                if type(stmt) is Assign and stmt.spec_flag.is_check:
                    info.check_def_links[(key, version)] = (key, prior)
                saved.append((key, current.get(key)))
                current[key] = version
            for chi in stmt.chi_list:
                key = chi.key
                old = current.get(key)
                chi.old_version = 0 if old is None else old
                version = new_version(key)
                chi.new_version = version
                def_site[(key, version)] = ("chi", stmt.sid)
                saved.append((key, old))
                current[key] = version

        if len(saved) > (len(phis) if phis else 0):
            versions = current.copy()
        info.block_exit_versions[bid] = versions

        for succ in block.successors():
            succ_phis = info.phis.get(succ.bid)
            if not succ_phis:
                continue
            pred_index = succ.preds.index(block)
            for key, phi in succ_phis.items():
                operands = phi.operands
                while len(operands) < len(succ.preds):
                    operands.append(-1)
                operands[pred_index] = current.get(key, 0)

        for child in self.domtree.children[bid]:
            self._walk(child, versions)

        for key, old in reversed(saved):
            if old is None:
                del current[key]
            else:
                current[key] = old


# ---------------------------------------------------------------------------
# speculative base versions
# ---------------------------------------------------------------------------


def compute_spec_bases(
    info: HSSAInfo,
    chi_is_speculative: Callable[[ChiOperand], bool],
    extra_links: Optional[dict[tuple[VarKey, int], tuple[VarKey, int]]] = None,
    key: Optional[VarKey] = None,
) -> dict[tuple[VarKey, int], int]:
    """Fixpoint over versions: a χ_s-defined version inherits the base
    of its operand; a phi whose operands all share one base (other than
    the phi itself, for loop-carried self-references) inherits it.

    The predicate decides which χ operations are ignorable; the default
    HSSA map uses the global ``chi.speculative`` flag, while SSAPRE
    recomputes per candidate (a χ is ignorable for a candidate iff the
    store cannot touch the *candidate's own* target set — coarser class
    membership must not force real updates on unrelated locations).

    ``key`` restricts the computation to one variable.  Every χ link
    and every phi joins versions of a single key, so the keys never
    meet: the result is exactly the full map's entries for ``key``.
    """
    # chi links: (key, new) -> (key, old) for speculative chis
    spec_links: dict[tuple[VarKey, int], tuple[VarKey, int]] = {}
    if extra_links:
        spec_links.update(
            (node, link) for node, link in extra_links.items()
            if key is None or node[0] == key
        )
    if key is None:
        phi_nodes = [
            phi for block_phis in info.phis.values() for phi in block_phis.values()
        ]
        chis = [
            chi for block in info.fn.blocks for stmt in block.stmts
            for chi in stmt.chi_list
        ]
    else:
        phi_nodes = [
            block_phis[key] for block_phis in info.phis.values() if key in block_phis
        ]
        chis = info.chis_of(key)
    for chi in chis:
        if chi_is_speculative(chi):
            spec_links[(chi.key, chi.new_version)] = (chi.key, chi.old_version)

    base: dict[tuple[VarKey, int], int] = {}

    def resolve_chain(key: VarKey, version: int) -> int:
        node = (key, version)
        chain = []
        while node in spec_links and node not in base:
            chain.append(node)
            node = spec_links[node]
        result = base.get(node, node[1])
        for n in chain:
            base[n] = result
        return result

    # seed: chi chains
    for link_key, version in list(spec_links):
        resolve_chain(link_key, version)

    # phis: iterate to fixpoint
    changed = True
    while changed:
        changed = False
        for phi in phi_nodes:
            phi_key = phi.key
            self_version = phi.result_version
            operand_bases = set()
            for op in phi.operands:
                if op < 0:
                    continue
                b = base.get((phi_key, op), op)
                # follow spec links lazily in case a chi of a phi result
                # was resolved after seeding
                b = base.get((phi_key, b), b)
                if b == self_version or b == base.get((phi_key, self_version), -1):
                    continue  # self reference through the loop
                operand_bases.add(b)
            if len(operand_bases) == 1:
                new_base = operand_bases.pop()
                if base.get((phi_key, self_version), self_version) != new_base:
                    base[(phi_key, self_version)] = new_base
                    changed = True
            # else: merge of genuinely different values; base = itself

    # re-resolve chi chains that pass through phis
    changed = True
    while changed:
        changed = False
        for node, parent in spec_links.items():
            parent_base = base.get(parent, parent[1])
            # parent may itself have a remapped base
            parent_base = base.get((node[0], parent_base), parent_base)
            if base.get(node, node[1]) != parent_base:
                base[node] = parent_base
                changed = True

    return {k: v for k, v in base.items() if k[1] != v}


def _compute_spec_bases(info: HSSAInfo) -> None:
    info.spec_base = compute_spec_bases(info, lambda chi: chi.speculative)
