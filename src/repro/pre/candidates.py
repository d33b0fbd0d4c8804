"""Register-promotion candidate collection.

A candidate is one *lexical expression* whose occurrences SSAPRE
processes together:

* **direct** — ``VarRead`` of a scalar variable that lives in memory and
  can be aliased (a global, or an address-taken local/param).  Unaliased
  locals are handled earlier by the cheap scalar-replacement pass.
* **indirect** — ``Load`` through an address expression containing no
  nested load (the paper's implementation restriction, section 4: no
  cascaded promotion in one pass; the pipeline's *cascade* mode reruns
  promotion so outer loads of ``**q`` chains become candidates after the
  inner load was promoted).

Occurrences come in two flavours: **right** (the expression's value is
read — a real SSAPRE occurrence) and **left** (a store to the same
location: ``a = e`` or ``*(p) = e``), which makes the value available in
a register (Figure 1(b)'s "leading reference is a write").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.ir.expr import (
    Expr,
    Load,
    VarRead,
    clone_expr,
    expr_lexical_key,
    expr_nodes,
)
from repro.ir.function import Function
from repro.ir.stmt import Assign, SpecFlag, Stmt, Store
from repro.ir.symbols import Variable, VirtualVariable
from repro.ssa.hssa import HSSAInfo, VarKey, var_key


class CandidateKind(enum.Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"


@dataclass(slots=True)
class Occurrence:
    """One occurrence of a candidate expression.

    For right occurrences ``expr`` is the occurrence node inside
    ``stmt``.  For left occurrences ``expr`` is None (the statement is
    the store) — the defined value version comes from the statement's
    def/chi.
    """

    stmt: Stmt
    expr: Optional[Expr]  # None for left occurrences
    is_left: bool = False
    #: exact variable versions: address versions + value version (filled
    #: by SSAPRE from the HSSA overlay)
    versions: tuple[int, ...] = ()
    #: base (speculative) versions, same shape
    base_versions: tuple[int, ...] = ()

    def __repr__(self) -> str:
        side = "L" if self.is_left else "R"
        return f"Occ[{side}]({self.expr if self.expr is not None else self.stmt})"


@dataclass
class Candidate:
    """A lexical expression plus all its occurrences in one function."""

    kind: CandidateKind
    lexical_key: tuple
    #: representative expression (cloned for insertions/checks)
    template: Expr
    #: DIRECT: the variable; INDIRECT: None
    var: Optional[Variable]
    #: INDIRECT: the alias-class virtual variable; DIRECT: None
    vvar: Optional[VirtualVariable]
    #: variable keys of the address sub-expressions (exact-match keys)
    addr_keys: tuple[VarKey, ...]
    #: INDIRECT: ids of the memory objects this access may touch (its
    #: own static points-to set, not the whole alias class)
    target_ids: frozenset = frozenset()
    occurrences: list[Occurrence] = field(default_factory=list)

    @property
    def value_key(self) -> VarKey:
        """The key whose versions may be compared speculatively."""
        if self.kind is CandidateKind.DIRECT:
            assert self.var is not None
            return var_key(self.var)
        assert self.vvar is not None
        return var_key(self.vvar)

    def __repr__(self) -> str:
        return (
            f"Candidate({self.kind.value}, {self.template}, "
            f"{len(self.occurrences)} occs)"
        )


def _is_direct_candidate_var(var: Variable) -> bool:
    return (
        var.type.is_scalar
        and var.has_memory_home
        and (var.is_global or var.is_address_taken)
    )


def _addr_has_load(addr: Expr) -> bool:
    return any(type(e) is Load for e in expr_nodes((addr,)))


def _addr_var_keys(addr: Expr) -> tuple[VarKey, ...]:
    return tuple(
        var_key(e.var) for e in expr_nodes((addr,)) if type(e) is VarRead
    )


def collect_candidates(fn: Function, info: HSSAInfo) -> list[Candidate]:
    """Collect promotion candidates with their occurrences in layout
    order (SSAPRE later re-sorts by dominator preorder): the direct
    candidates first, then the indirect ones, each kind in the order of
    its first occurrence.  Direct candidates go first because their
    variables appear inside indirect candidates' address expressions.

    Each statement's loads and reads come from the walk HSSA made of
    it (:attr:`HSSAInfo.walks`).  A candidate's occurrences are all
    loads or all reads, so taking the two lists one after the other
    gives every candidate the occurrences, in the order, of one walk of
    the statement's expressions."""
    direct: dict[int, Candidate] = {}  # by variable id
    indirect: dict[tuple, Candidate] = {}
    #: _is_direct_candidate_var by variable id
    is_candidate_var: dict[int, bool] = {}

    def candidate_for_direct(var: Variable) -> Candidate:
        cand = direct.get(var.id)
        if cand is None:
            cand = direct[var.id] = Candidate(
                kind=CandidateKind.DIRECT,
                lexical_key=("direct", var.id),
                template=VarRead(var),
                var=var,
                vvar=None,
                addr_keys=(),
            )
        return cand

    def candidate_for_indirect(load: Load) -> Optional[Candidate]:
        mu = info.load_mu.get(load.eid)
        if mu is None:
            return None
        vvar = mu.var
        assert isinstance(vvar, VirtualVariable)
        key = ("indirect", expr_lexical_key(load), vvar.id)
        cand = indirect.get(key)
        if cand is None:
            targets = info.am.access_targets(load.addr, load.type)
            cand = indirect[key] = Candidate(
                kind=CandidateKind.INDIRECT,
                lexical_key=key,
                template=load,
                var=None,
                vvar=vvar,
                addr_keys=_addr_var_keys(load.addr),
                target_ids=frozenset(o.id for o in targets),
            )
        return cand

    walks = info.walks
    for block in fn.blocks:
        for stmt in block.stmts:
            kind = type(stmt)
            # Skip statements produced by earlier promotion rounds: their
            # loads implement the speculation protocol and must stay.
            if kind is Assign and stmt.spec_flag is not SpecFlag.NONE:
                continue
            loads, reads = walks[stmt.sid]
            for expr in reads:
                var = expr.var
                ok = is_candidate_var.get(var.id)
                if ok is None:
                    ok = is_candidate_var[var.id] = _is_direct_candidate_var(var)
                if ok:
                    candidate_for_direct(var).occurrences.append(Occurrence(stmt, expr))
            for expr in loads:
                if expr.type.is_scalar and not _addr_has_load(expr.addr):
                    cand = candidate_for_indirect(expr)
                    if cand is not None:
                        cand.occurrences.append(Occurrence(stmt, expr))
            # left occurrences
            if kind is Assign and _is_direct_candidate_var(stmt.target):
                cand = candidate_for_direct(stmt.target)
                cand.occurrences.append(Occurrence(stmt, None, is_left=True))
            elif kind is Store and not _addr_has_load(stmt.addr):
                if stmt.value.type.is_scalar:
                    chi = info.store_chi.get(stmt.sid)
                    if chi is not None and isinstance(chi.var, VirtualVariable):
                        key = ("indirect", expr_lexical_key_of_store(stmt), chi.var.id)
                        cand = indirect.get(key)
                        if cand is None:
                            # Create the candidate lazily so a later load
                            # of the same location still finds the store.
                            synth = Load(clone_expr(stmt.addr), stmt.value.type)
                            targets = info.am.access_targets(
                                stmt.addr, stmt.value.type
                            )
                            cand = indirect[key] = Candidate(
                                kind=CandidateKind.INDIRECT,
                                lexical_key=key,
                                template=synth,
                                var=None,
                                vvar=chi.var,
                                addr_keys=_addr_var_keys(stmt.addr),
                                target_ids=frozenset(o.id for o in targets),
                            )
                        cand.occurrences.append(
                            Occurrence(stmt, None, is_left=True)
                        )

    result = []
    for cand in list(direct.values()) + list(indirect.values()):
        # A candidate with only left occurrences promotes nothing.
        if not all(o.is_left for o in cand.occurrences):
            for occ in cand.occurrences:
                _fill_occurrence_versions(info, cand, occ)
            result.append(cand)
    return result


def _fill_occurrence_versions(info: HSSAInfo, cand: Candidate, occ: Occurrence) -> None:
    """Record the occurrence's variable-version vector.

    This must happen at collection time, on the un-rewritten expression
    trees: earlier candidates' CodeMotion may replace address
    sub-expressions (e.g. a promoted pointer read) before this
    candidate's SSAPRE runs.
    """
    addr_versions: list[int] = []
    if cand.kind is CandidateKind.INDIRECT:
        addr_expr = occ.expr.addr if occ.expr is not None else occ.stmt.addr  # type: ignore[union-attr]
        for node in expr_nodes((addr_expr,)):
            if type(node) is VarRead:
                addr_versions.append(info.use_version[node.eid])
    if occ.is_left:
        if cand.kind is CandidateKind.DIRECT:
            value_version = info.def_version[occ.stmt.sid]
        else:
            value_version = info.store_chi[occ.stmt.sid].new_version
    else:
        assert occ.expr is not None
        if cand.kind is CandidateKind.DIRECT:
            value_version = info.use_version[occ.expr.eid]
        else:
            value_version = info.load_mu[occ.expr.eid].version
    occ.versions = tuple(addr_versions) + (value_version,)
    # base versions are filled by SSAPRE per candidate: which chis are
    # ignorable depends on the candidate's own target set


def expr_lexical_key_of_store(stmt: Store) -> tuple:
    """The lexical key a load of the stored location would have."""
    return ("ld", str(stmt.value.type), expr_lexical_key(stmt.addr))
