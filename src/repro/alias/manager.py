"""AliasManager: the query interface between pointer analysis and HSSA.

Combines a points-to solver (Steensgaard or Andersen) with the optional
type-based filter, groups indirect references into **virtual-variable
alias classes** (one :class:`VirtualVariable` per class, Chow et al.
CC'96), and computes interprocedural GMOD/GREF summaries over the call
graph so calls get precise-enough μ/χ sets.

Queries used downstream:

* ``access_targets(addr_expr, access_type)`` — type-filtered points-to
  set of one indirect access;
* ``store_write_ids(stmt)`` / ``may_alias_load_store(load, store)`` —
  the stable per-statement may-alias interface the speculation-era
  clients (speclint, alatpressure, probalias) share, including the
  rewritten-address fallback promotion makes necessary;
* ``virtual_var_of_access(addr_expr, access_type)`` — the virtual
  variable standing for the access's alias class;
* ``virtual_vars_containing(obj)`` — classes a named variable's object
  belongs to (a direct store to it must χ those virtual variables);
* ``call_mod/call_ref(fname)`` — objects a call may write/read.

Downstream passes must not reach into ``manager.solution`` or the
private object tables: the fallback handling for promotion-rewritten
addresses lives here, and call sites that re-implemented it have
historically drifted apart.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, Optional

from repro.alias.andersen import solve_andersen
from repro.alias.constraints import ConstraintSystem, build_constraints
from repro.alias.memobj import MemObject, VarMemObject
from repro.alias.solution import PointsToSolution
from repro.alias.steensgaard import solve_steensgaard
from repro.alias.typebased import type_filter_points_to
from repro.ir.expr import Expr, Load, VarRead, walk_expr
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import Assign, Call, Store
from repro.ir.symbols import Variable, VirtualVariable
from repro.ir.types import Type


class AliasAnalysisKind(enum.Enum):
    STEENSGAARD = "steensgaard"
    ANDERSEN = "andersen"


class _ObjectUnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class AliasManager:
    """Module-wide alias information."""

    def __init__(
        self,
        module: Module,
        kind: AliasAnalysisKind = AliasAnalysisKind.ANDERSEN,
        use_type_filter: bool = True,
    ) -> None:
        self.module = module
        self.kind = kind
        self.use_type_filter = use_type_filter
        self.system: ConstraintSystem = build_constraints(module)
        # Materialise an object for every memory-home variable, even ones
        # the constraints never touched, so queries are total.
        for g in module.globals:
            self.system.object_of_var(g)
        for fn in module.iter_functions():
            for v in fn.all_variables():
                if v.has_memory_home:
                    self.system.object_of_var(v)
        if kind is AliasAnalysisKind.ANDERSEN:
            self.solution: PointsToSolution = solve_andersen(self.system)
        else:
            self.solution = solve_steensgaard(self.system)
        self._objects_by_id: dict[int, MemObject] = {
            o.id: o for o in self.system.all_objects()
        }
        self._access_cache: dict[tuple[int, Type], frozenset[MemObject]] = {}
        accesses, mod, ref, callees = self._scan_module()
        self._build_alias_classes(accesses)
        self._close_mod_ref(mod, ref, callees)
        self._class_objects: Optional[dict[object, frozenset[MemObject]]] = None
        self._mod_cache: dict[str, frozenset[MemObject]] = {}
        self._ref_cache: dict[str, frozenset[MemObject]] = {}

    # -- basic queries ----------------------------------------------------

    def object_of_var(self, var: Variable) -> Optional[MemObject]:
        obj = self.system.var_objects.get(var.id)
        return obj

    def access_targets(self, addr: Expr, access_type: Type) -> frozenset[MemObject]:
        """Type-filtered points-to set for an indirect access through
        ``addr`` reading/writing a value of ``access_type``."""
        # Equal types print alike (scalar, pointer and array types are
        # frozen dataclasses, a struct type equals only itself), so
        # keying on the type is at least as fine as keying on its text,
        # which ``type_filter_points_to`` filters by.
        key = (addr.eid, access_type)
        cached = self._access_cache.get(key)
        if cached is not None:
            return cached
        targets = self.solution.points_to_access(addr.eid)
        if self.use_type_filter:
            targets = type_filter_points_to(targets, access_type)
        self._access_cache[key] = targets
        return targets

    def may_alias_accesses(
        self, addr_a: Expr, type_a: Type, addr_b: Expr, type_b: Type
    ) -> bool:
        """May two indirect accesses touch the same memory?"""
        a = self.access_targets(addr_a, type_a)
        b = self.access_targets(addr_b, type_b)
        return bool(a & b)

    def access_targets_unfiltered(self, addr: Expr) -> frozenset[MemObject]:
        """Raw points-to set of an access, before type filtering — for
        clients that report *why* a pair was refuted (probalias marks
        pairs the type filter alone ruled out)."""
        return self.solution.points_to_access(addr.eid)

    # -- stable per-statement queries ---------------------------------------

    def object_by_id(self, oid: int) -> Optional[MemObject]:
        """The memory object with the given id, if any."""
        return self._objects_by_id.get(oid)

    def var_points_to(
        self, var_id: int, access_type: Optional[Type] = None
    ) -> frozenset[MemObject]:
        """Points-to set of a pointer *variable* (by id), optionally
        filtered by the access type, matching ``access_targets``'s
        filtering of address expressions."""
        targets = self.solution.points_to_var(var_id)
        if access_type is not None and self.use_type_filter:
            targets = type_filter_points_to(targets, access_type)
        return targets

    def store_write_ids(
        self, stmt: Store, var_by_temp: Optional[Mapping[int, int]] = None
    ) -> frozenset[int]:
        """Object ids a ``Store`` may write.  An **empty** result means
        "unknown — may write anything": the address has no resolved
        points-to set, so clients must treat the store as aliasing
        every candidate.

        ``var_by_temp`` maps promotion-temp variable ids back to the
        original promoted variable.  Promotion (SSAPRE + scalar
        replacement) rewrites store addresses to read promoted temps,
        whose ids the points-to solution has never seen; the fallback
        walks the address's variable reads through ``var_by_temp`` so
        post-promotion queries stay as precise as pre-promotion ones.
        """
        ids = frozenset(
            o.id for o in self.access_targets(stmt.addr, stmt.value.type)
        )
        if ids or var_by_temp is None:
            return ids
        collected: set[int] = set()
        for expr in walk_expr(stmt.addr):
            if not isinstance(expr, VarRead):
                continue
            orig = var_by_temp.get(expr.var.id)
            if orig is None:
                continue
            collected |= {
                o.id for o in self.var_points_to(orig, stmt.value.type)
            }
        return frozenset(collected)

    def may_alias_load_store(self, load: Load, store: Store) -> bool:
        """May a ``Load`` expression and a ``Store`` statement touch the
        same memory?  Unknown store targets conservatively alias."""
        writes = self.store_write_ids(store)
        if not writes:
            return True
        reads = {o.id for o in self.access_targets(load.addr, load.type)}
        return bool(reads & writes)

    # -- one scan of the module ------------------------------------------------

    def _scan_module(self) -> tuple[list, dict, dict, dict]:
        """One walk of every statement: the target set of each indirect
        access in module order (the alias classes union them), and each
        function's direct mod and ref object ids and its callees (closed
        over the call graph by :meth:`_close_mod_ref`)."""
        accesses: list[frozenset[MemObject]] = []
        var_objects = self.system.var_objects
        direct_mod: dict[str, set[int]] = {}
        direct_ref: dict[str, set[int]] = {}
        callees: dict[str, set[str]] = {}
        for fn in self.module.iter_functions():
            mod: set[int] = set()
            ref: set[int] = set()
            callees[fn.name] = set()
            for stmt in fn.iter_stmts():
                for expr in stmt.expr_nodes():
                    if isinstance(expr, Load):
                        targets = self.access_targets(expr.addr, expr.type)
                        accesses.append(targets)
                        ref.update(o.id for o in targets)
                    elif isinstance(expr, VarRead) and expr.var.has_memory_home:
                        obj = var_objects.get(expr.var.id)
                        if obj is not None:
                            ref.add(obj.id)
                if isinstance(stmt, Store):
                    targets = self.access_targets(stmt.addr, stmt.value.type)
                    accesses.append(targets)
                    mod.update(o.id for o in targets)
                elif isinstance(stmt, Assign) and stmt.target.has_memory_home:
                    obj = var_objects.get(stmt.target.id)
                    if obj is not None:
                        mod.add(obj.id)
                elif isinstance(stmt, Call):
                    callees[fn.name].add(stmt.callee)
            direct_mod[fn.name] = mod
            direct_ref[fn.name] = ref
        return accesses, direct_mod, direct_ref, callees

    # -- alias classes / virtual variables ------------------------------------

    def _build_alias_classes(self, accesses: list[frozenset[MemObject]]) -> None:
        """Union the target sets of every indirect access in the module;
        each resulting object class gets one virtual variable."""
        self._uf = _ObjectUnionFind()
        for access in accesses:
            targets = sorted(access, key=lambda o: o.id)
            for other in targets[1:]:
                self._uf.union(targets[0].id, other.id)
        # materialize virtual variables per class representative
        self._vvar_by_class: dict[int, VirtualVariable] = {}
        for obj in self._objects_by_id.values():
            rep = self._uf.find(obj.id)
            if rep not in self._vvar_by_class:
                self._vvar_by_class[rep] = VirtualVariable(group_key=rep)

    def virtual_var_of_objects(
        self, targets: Iterable[MemObject]
    ) -> Optional[VirtualVariable]:
        """The virtual variable of an access with the given targets
        (all targets are in one class by construction)."""
        for obj in targets:
            return self._vvar_by_class[self._uf.find(obj.id)]
        return None

    def virtual_var_of_access(
        self, addr: Expr, access_type: Type
    ) -> Optional[VirtualVariable]:
        return self.virtual_var_of_objects(self.access_targets(addr, access_type))

    def virtual_vars_containing(self, obj: MemObject) -> list[VirtualVariable]:
        """Virtual variables whose class contains ``obj``.  With one
        union-find class per object this is zero or one variable, but the
        list interface keeps callers agnostic."""
        rep = self._uf.find(obj.id)
        vvar = self._vvar_by_class.get(rep)
        return [vvar] if vvar is not None else []

    def all_virtual_vars(self) -> list[VirtualVariable]:
        return list(self._vvar_by_class.values())

    def class_objects(self, vvar: VirtualVariable) -> frozenset[MemObject]:
        """All objects in a virtual variable's alias class."""
        if self._class_objects is None:
            # The classes are fixed once built: index them all at once.
            members: dict[object, list[MemObject]] = {}
            for o in self._objects_by_id.values():
                members.setdefault(self._uf.find(o.id), []).append(o)
            self._class_objects = {
                rep: frozenset(objs) for rep, objs in members.items()
            }
        return self._class_objects.get(vvar.group_key, frozenset())

    # -- interprocedural mod/ref -----------------------------------------------

    def _close_mod_ref(
        self,
        direct_mod: dict[str, set[int]],
        direct_ref: dict[str, set[int]],
        callees: dict[str, set[str]],
    ) -> None:
        """GMOD/GREF: the direct mod/ref sets closed over the call graph."""
        # transitive closure to a fixed point (handles recursion)
        changed = True
        while changed:
            changed = False
            for fname, cs in callees.items():
                for callee in cs:
                    if callee not in direct_mod:
                        continue
                    if direct_mod[callee] - direct_mod[fname]:
                        direct_mod[fname] |= direct_mod[callee]
                        changed = True
                    if direct_ref[callee] - direct_ref[fname]:
                        direct_ref[fname] |= direct_ref[callee]
                        changed = True
        self._gmod = direct_mod
        self._gref = direct_ref

    def call_mod(self, fname: str) -> frozenset[MemObject]:
        """Objects a call to ``fname`` may modify (callee-local objects
        included; callers filter to what is visible in their scope)."""
        mod = self._mod_cache.get(fname)
        if mod is None:
            ids = self._gmod.get(fname, set())
            mod = self._mod_cache[fname] = frozenset(
                self._objects_by_id[i] for i in ids
            )
        return mod

    def call_ref(self, fname: str) -> frozenset[MemObject]:
        ref = self._ref_cache.get(fname)
        if ref is None:
            ids = self._gref.get(fname, set())
            ref = self._ref_cache[fname] = frozenset(
                self._objects_by_id[i] for i in ids
            )
        return ref

    # -- scope helpers ------------------------------------------------------

    def visible_var_objects(self, fn: Function) -> dict[int, VarMemObject]:
        """Objects of variables visible inside ``fn`` (its own variables
        plus globals), keyed by object id."""
        result: dict[int, VarMemObject] = {}
        for var in list(fn.all_variables()) + list(self.module.globals):
            obj = self.system.var_objects.get(var.id)
            if obj is not None:
                result[obj.id] = obj
        return result
