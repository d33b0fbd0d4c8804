"""HSSA construction as it stood when each step walked the statements
itself, kept as the reference for the construction that walks once.

This is ``repro.ssa.hssa.build_hssa`` with its μ/χ attachment, variable
scan, Phi placement and renaming before the steps shared one walk of
each statement: μ/χ attachment walks every statement's expressions
twice, the variable scan behind Phi placement once more, and renaming
once again, with one version stack per key and a fresh copy of every
key's version at each block's entry and exit.  ``info.walks``, which
candidate collection reads, is filled by one more walk of each
statement.  ``tests/test_compile_reuse.py`` builds both at every call
the compiler makes and requires the same μ/χ lists, Phis, version maps
and walks.  The overlay classes and the base-version fixpoint are the
module's own.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

from repro.alias.manager import AliasManager
from repro.alias.memobj import MemObject, VarMemObject
from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.domfrontier import compute_dominance_frontiers
from repro.errors import IRError
from repro.ir.cfg import BasicBlock
from repro.ir.expr import Load, VarRead
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import Assign, Call, Stmt, Store, stmt_defines
from repro.ir.symbols import VirtualVariable
from repro.ssa.hssa import (
    ChiOperand,
    HSSAInfo,
    MuOperand,
    SpecDecider,
    SSAVar,
    VarKey,
    VarPhi,
    _by_id,
    _compute_spec_bases,
    var_key,
)


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
    info.walks = {
        stmt.sid: (
            [e for e in stmt.walk_exprs() if isinstance(e, Load)],
            [e for e in stmt.walk_exprs() if isinstance(e, VarRead)],
        )
        for stmt in fn.iter_stmts()
    }
    _attach_mu_chi(fn, module, am, info, spec_decider)
    _insert_phis(fn, info, domtree)
    _Renamer(fn, info, domtree).run()
    _compute_spec_bases(info)
    return info


def _attach_mu_chi(
    fn: Function,
    module: Module,
    am: AliasManager,
    info: HSSAInfo,
    spec_decider: Optional[SpecDecider],
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
        for expr in stmt.walk_exprs():
            if isinstance(expr, Load):
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
        for expr in stmt.walk_exprs():
            if isinstance(expr, Load):
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


def _collect_ssa_vars(fn: Function) -> dict[VarKey, SSAVar]:
    """Every variable (real or virtual) that needs SSA versions."""
    result: dict[VarKey, SSAVar] = {}
    for var in fn.all_variables():
        result[var_key(var)] = var
    for stmt in fn.iter_stmts():
        for expr in stmt.walk_exprs():
            if isinstance(expr, VarRead):
                result.setdefault(var_key(expr.var), expr.var)
        for mu in stmt.mu_list:
            result.setdefault(mu.key, mu.var)
        for chi in stmt.chi_list:
            result.setdefault(chi.key, chi.var)
        target = stmt_defines(stmt)
        if target is not None:
            result.setdefault(var_key(target), target)
    return result


def _insert_phis(fn: Function, info: HSSAInfo, domtree: DominatorTree) -> None:
    df = info.frontiers = compute_dominance_frontiers(fn, domtree)
    ssa_vars = _collect_ssa_vars(fn)

    # def blocks per variable
    def_blocks: dict[VarKey, list[BasicBlock]] = {k: [] for k in ssa_vars}
    for block in fn.blocks:
        for stmt in block.stmts:
            target = stmt_defines(stmt)
            if target is not None:
                def_blocks[var_key(target)].append(block)
            for chi in stmt.chi_list:
                def_blocks[chi.key].append(block)

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


class _Renamer:
    def __init__(self, fn: Function, info: HSSAInfo, domtree: DominatorTree) -> None:
        self.fn = fn
        self.info = info
        self.domtree = domtree
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
            for expr in stmt.walk_exprs():
                if isinstance(expr, VarRead):
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
