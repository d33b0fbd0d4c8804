"""The alias classes and GMOD/GREF as ``AliasManager`` built them in two
scans, kept as the reference for the one scan that builds both.

This is ``repro.alias.manager.AliasManager._build_alias_classes`` and
``_build_mod_ref`` as they stood before they shared one walk of the
module: each walked every statement's expressions itself.  It reads
the manager's points-to queries (``access_targets``) and its variable
objects, and returns what the two scans decided, without making
virtual variables.  ``tests/test_compile_reuse.py`` compares it with
every ``AliasManager`` the compiler builds.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from repro.alias.manager import AliasManager, _ObjectUnionFind
from repro.ir.expr import Load, VarRead
from repro.ir.stmt import Assign, Call, Store


def alias_classes(am: AliasManager) -> tuple[dict[int, int], list[int]]:
    """Each object's class representative, and the representatives in
    the order their virtual variables are made."""
    uf = _ObjectUnionFind()
    accesses = []
    for fn in am.module.iter_functions():
        for stmt in fn.iter_stmts():
            for expr in stmt.walk_exprs():
                if isinstance(expr, Load):
                    accesses.append((expr.addr, expr.type))
            if isinstance(stmt, Store):
                accesses.append((stmt.addr, stmt.value.type))
    for addr, ty in accesses:
        targets = sorted(am.access_targets(addr, ty), key=lambda o: o.id)
        for other in targets[1:]:
            uf.union(targets[0].id, other.id)
    objects = am._objects_by_id
    reps = list(dict.fromkeys(uf.find(oid) for oid in objects))
    return {oid: uf.find(oid) for oid in objects}, reps


def mod_ref(am: AliasManager) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """GMOD and GREF: each function's directly modified and referenced
    object ids, closed over the call graph."""
    direct_mod: dict[str, set[int]] = {}
    direct_ref: dict[str, set[int]] = {}
    callees: dict[str, set[str]] = {}
    for fn in am.module.iter_functions():
        mod: set[int] = set()
        ref: set[int] = set()
        callees[fn.name] = set()
        for stmt in fn.iter_stmts():
            for expr in stmt.walk_exprs():
                if isinstance(expr, Load):
                    ref |= {o.id for o in am.access_targets(expr.addr, expr.type)}
                elif isinstance(expr, VarRead) and expr.var.has_memory_home:
                    obj = am.system.var_objects.get(expr.var.id)
                    if obj is not None:
                        ref.add(obj.id)
            if isinstance(stmt, Store):
                mod |= {
                    o.id
                    for o in am.access_targets(stmt.addr, stmt.value.type)
                }
            elif isinstance(stmt, Assign) and stmt.target.has_memory_home:
                obj = am.system.var_objects.get(stmt.target.id)
                if obj is not None:
                    mod.add(obj.id)
            elif isinstance(stmt, Call):
                callees[fn.name].add(stmt.callee)
        direct_mod[fn.name] = mod
        direct_ref[fn.name] = ref

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
    return direct_mod, direct_ref
