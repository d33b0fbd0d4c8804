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
from repro.ir.stmt import Assign, Call, Stmt, Store, stmt_defines, stmt_loads_and_reads
from repro.ir.symbols import Variable, VirtualVariable

#: Keys uniting real and virtual variables in one namespace.
VarKey = tuple[str, int]

SSAVar = Union[Variable, VirtualVariable]


def var_key(v: SSAVar) -> VarKey:
    if isinstance(v, Variable):
        return ("v", v.id)
    return ("vv", v.id)


@dataclass
class MuOperand:
    """May-use of ``var`` (version filled by renaming)."""

    var: SSAVar
    version: int = -1
    speculative: bool = False

    @property
    def key(self) -> VarKey:
        return var_key(self.var)

    def __str__(self) -> str:
        tag = "mu_s" if self.speculative else "mu"
        return f"{tag}({self.var}{self.version})"


@dataclass
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

    @property
    def key(self) -> VarKey:
        return var_key(self.var)

    def __str__(self) -> str:
        tag = "chi_s" if self.speculative else "chi"
        return f"{self.var}{self.new_version} <- {tag}({self.var}{self.old_version})"


@dataclass
class VarPhi:
    """SSA phi for one variable at a block (operands align with preds)."""

    var: SSAVar
    block: BasicBlock
    result_version: int = -1
    operands: list[int] = field(default_factory=list)

    @property
    def key(self) -> VarKey:
        return var_key(self.var)

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
        self._counters: dict[VarKey, itertools.count] = {}
        self._chis_by_key: Optional[dict[VarKey, list[ChiOperand]]] = None
        self._check_bases: Optional[dict[tuple[VarKey, int], int]] = None

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
    walks = {stmt.sid: stmt_loads_and_reads(stmt) for stmt in fn.iter_stmts()}
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
    # classes matter.
    for stmt in fn.iter_stmts():
        for expr in walks[stmt.sid][0]:
            vvar_for(am.access_targets(expr.addr, expr.type))
        if isinstance(stmt, Store):
            vvar_for(am.access_targets(stmt.addr, stmt.value.type))
        elif isinstance(stmt, Call):
            for obj in am.call_mod(stmt.callee) | am.call_ref(stmt.callee):
                for vv in am.virtual_vars_containing(obj):
                    used_vvars[vv.id] = vv

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
        objs = _by_id(am.class_objects(vvar))
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
            targets = am.access_targets(expr.addr, expr.type)
            vvar = vvar_for(targets)
            if vvar is None:
                # No points-to information: private class per access.
                vvar = VirtualVariable(group_key=("load", expr.eid))
            mu = MuOperand(vvar)
            stmt.mu_list.append(mu)
            info.load_mu[expr.eid] = mu
            for obj in sorted(targets, key=lambda o: o.id):
                if isinstance(obj, VarMemObject) and obj.id in visible:
                    stmt.mu_list.append(
                        MuOperand(obj.var, speculative=bool(spec(stmt, obj)))
                    )

        if isinstance(stmt, Store):
            targets = am.access_targets(stmt.addr, stmt.value.type)
            vvar = vvar_for(targets)
            if vvar is None:
                vvar = VirtualVariable(group_key=("store", stmt.sid))
            vvar_mech = vvar_spec(stmt, vvar)
            chi = ChiOperand(
                vvar, speculative=vvar_mech is not None, mechanism=vvar_mech
            )
            if spec_decider is not None:
                chi.object_mechanisms = {
                    o.id: spec(stmt, o) for o in _by_id(am.class_objects(vvar))
                }
            stmt.chi_list.append(chi)
            info.store_chi[stmt.sid] = chi
            for obj in sorted(targets, key=lambda o: o.id):
                if isinstance(obj, VarMemObject) and obj.id in visible:
                    mech = spec(stmt, obj)
                    stmt.chi_list.append(
                        ChiOperand(
                            obj.var, speculative=mech is not None, mechanism=mech
                        )
                    )
        elif isinstance(stmt, Assign) and stmt.target.has_memory_home:
            # Direct store: χ the virtual variables of classes that
            # contain the target, so indirect loads observe the update.
            obj = am.object_of_var(stmt.target)
            if obj is not None:
                for vv in am.virtual_vars_containing(obj):
                    if vv.id in used_vvars:
                        stmt.chi_list.append(ChiOperand(vv))
        elif isinstance(stmt, Call):
            mod = am.call_mod(stmt.callee)
            ref = am.call_ref(stmt.callee)
            seen_mu: set[int] = set()
            seen_chi: set[int] = set()
            for obj in sorted(ref, key=lambda o: o.id):
                if isinstance(obj, VarMemObject) and obj.id in visible:
                    stmt.mu_list.append(MuOperand(obj.var))
                for vv in am.virtual_vars_containing(obj):
                    if vv.id in used_vvars and vv.id not in seen_mu:
                        seen_mu.add(vv.id)
                        stmt.mu_list.append(MuOperand(vv))
            for obj in sorted(mod, key=lambda o: o.id):
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
                result.setdefault(var_key(expr.var), expr.var)
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

    # def blocks per variable, in the variables' order
    def_blocks: dict[VarKey, list[BasicBlock]] = {
        k: defined_in.get(k, []) for k in ssa_vars
    }

    for key, blocks in def_blocks.items():
        if not blocks:
            continue
        var = ssa_vars[key]
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
    def __init__(
        self, fn: Function, info: HSSAInfo, domtree: DominatorTree, walks: Walks
    ) -> None:
        self.fn = fn
        self.info = info
        self.domtree = domtree
        self.walks = walks
        self.stacks: dict[VarKey, list[int]] = {}

    def current(self, key: VarKey) -> int:
        stack = self.stacks.get(key)
        return stack[-1] if stack else 0  # version 0 = entry value

    def push(self, key: VarKey, version: int) -> None:
        self.stacks.setdefault(key, []).append(version)

    def run(self) -> None:
        info = self.info
        for key in list(info.phis.get(self.fn.entry.bid, {})):
            raise IRError("phi in entry block (entry must have no preds)")
        self._walk(self.fn.entry)

    def _walk(self, block: BasicBlock) -> None:
        info = self.info
        pushed: list[VarKey] = []

        for key, phi in info.block_phis(block).items():
            version = info.new_version(key)
            phi.result_version = version
            info.def_site[(key, version)] = ("phi", block.bid)
            self.push(key, version)
            pushed.append(key)

        info.block_entry_versions[block.bid] = {
            key: stack[-1] for key, stack in self.stacks.items() if stack
        }

        for stmt in block.stmts:
            # uses first (RHS and address expressions)
            for expr in self.walks[stmt.sid][1]:
                info.use_version[expr.eid] = self.current(var_key(expr.var))
            for mu in stmt.mu_list:
                mu.version = self.current(mu.key)
            # then defs
            target = stmt_defines(stmt)
            if target is not None:
                key = var_key(target)
                prior = self.current(key)
                version = info.new_version(key)
                info.def_version[stmt.sid] = version
                info.def_site[(key, version)] = ("stmt", stmt.sid)
                if isinstance(stmt, Assign) and stmt.spec_flag.is_check:
                    info.check_def_links[(key, version)] = (key, prior)
                self.push(key, version)
                pushed.append(key)
            for chi in stmt.chi_list:
                key = chi.key
                chi.old_version = self.current(key)
                version = info.new_version(key)
                chi.new_version = version
                info.def_site[(key, version)] = ("chi", stmt.sid)
                self.push(key, version)
                pushed.append(key)

        info.block_exit_versions[block.bid] = {
            key: stack[-1] for key, stack in self.stacks.items() if stack
        }

        for succ in block.successors():
            pred_index = succ.preds.index(block)
            for key, phi in info.block_phis(succ).items():
                while len(phi.operands) < len(succ.preds):
                    phi.operands.append(-1)
                phi.operands[pred_index] = self.current(key)

        for child in self.domtree.children[block.bid]:
            self._walk(child)

        for key in reversed(pushed):
            self.stacks[key].pop()


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
