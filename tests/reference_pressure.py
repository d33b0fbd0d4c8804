"""The static ALAT pressure analysis, kept as the reference for the
leaner one.

This is ``repro.analysis.alatpressure``'s analysis as it stood before
the second pass over the compile path: gen/kill for every statement,
dominators and loops for every function, one CFG walk per helper, on
the dataflow solver of ``tests/reference_liveness.py``.  The report
classes and the cost model are the module's own.
``tests/test_pass_reference.py`` runs it beside the compiler and
requires equal reports (every field), demotion plans and armed facts.
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.alatpressure import (
    DEAD_ARMING_COST,
    FP_LOAD_LATENCY,
    LOAD_LATENCY,
    LOOP_WEIGHT,
    P_CONFLICT_VICTIM,
    RECOVERY_PENALTY,
    CandidateReport,
    FunctionPressure,
    ModulePressure,
    PairEstimate,
    REARM_FACTOR,
)
from repro.analysis.dominators import compute_dominators
from repro.analysis.loops import LoopForest, find_natural_loops
from repro.ir.cfg import BasicBlock
from repro.ir.expr import VarRead
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import Assign, Call, InvalidateCheck, Stmt, Store
from repro.machine.alat import ALATConfig, set_index_for_register
from tests.reference_liveness import BACKWARD, FORWARD, gen_kill_transfer, solve


@dataclass
class _Web:
    """One speculative candidate: every statement of its ALAT protocol."""

    temp_id: int
    name: str
    arming: list[Assign] = field(default_factory=list)
    checks: list[Assign] = field(default_factory=list)
    invalas: list[InvalidateCheck] = field(default_factory=list)
    is_float: bool = False

    @property
    def load_latency(self) -> int:
        return FP_LOAD_LATENCY if self.is_float else LOAD_LATENCY


def armed_by_stmt(fn: Function) -> dict[int, frozenset[int]]:
    """Armed ALAT temps after each statement of ``fn``, keyed by sid.

    The raw occupancy facts of the forward "armed" analysis (an entry
    is held from its ``ld.a``/``ld.sa`` until a clearing check or
    ``invala.e``), without the profit model on top — speclint's SPEC006
    pressure rule is rebased on this."""
    fn.compute_preds()
    gen: dict[int, frozenset] = {}
    kill: dict[int, frozenset] = {}
    for block in fn.reachable_blocks():
        gen[block.bid], kill[block.bid] = _compose_block(
            block.stmts, _stmt_armed_gk
        )
    armed = solve(
        fn, FORWARD, gen_kill_transfer(gen, kill)
    )
    facts: dict[int, frozenset[int]] = {}
    for block in fn.reachable_blocks():
        cur = armed.entry(block)
        for stmt in block.stmts:
            g, k = _stmt_armed_gk(stmt)
            cur = (cur - k) | g
            facts[stmt.sid] = cur
    return facts


def _collect_webs(fn: Function) -> dict[int, _Web]:
    webs: dict[int, _Web] = {}

    def web_for(var) -> _Web:
        w = webs.get(var.id)
        if w is None:
            w = _Web(var.id, var.name, is_float=var.type.is_float)
            webs[var.id] = w
        return w

    for stmt in fn.iter_stmts():
        if isinstance(stmt, Assign):
            if stmt.spec_flag.is_advanced_load:
                web_for(stmt.target).arming.append(stmt)
            elif stmt.spec_flag.is_check:
                web_for(stmt.target).checks.append(stmt)
        elif isinstance(stmt, InvalidateCheck):
            web_for(stmt.temp).invalas.append(stmt)
    # A temp with checks but no arming (or vice versa) is degenerate;
    # keep it — the live-range dataflow naturally gives it an empty or
    # unbounded-but-unneeded range.
    return {t: w for t, w in webs.items() if w.arming}


def _stmt_armed_gk(stmt: Stmt) -> tuple[frozenset, frozenset]:
    """(gen, kill) of the forward "armed" analysis for one statement."""
    if isinstance(stmt, Assign):
        if stmt.spec_flag.is_advanced_load:
            return frozenset((stmt.target.id,)), frozenset()
        if stmt.spec_flag.is_check:
            if stmt.spec_flag.keeps_entry:
                return frozenset((stmt.target.id,)), frozenset()
            return frozenset(), frozenset((stmt.target.id,))
    if isinstance(stmt, InvalidateCheck):
        return frozenset(), frozenset((stmt.temp.id,))
    return frozenset(), frozenset()


def _stmt_needed_gk(stmt: Stmt) -> tuple[frozenset, frozenset]:
    """(gen, kill) of the backward "needed" analysis for one statement."""
    if isinstance(stmt, Assign):
        if stmt.spec_flag.is_check:
            return frozenset((stmt.target.id,)), frozenset()
        if stmt.spec_flag.is_advanced_load:
            return frozenset(), frozenset((stmt.target.id,))
    return frozenset(), frozenset()


def _compose_block(stmts, stmt_gk) -> tuple[frozenset, frozenset]:
    """Compose per-statement gen/kill into one block transfer."""
    bg: frozenset = frozenset()
    bk: frozenset = frozenset()
    for stmt in stmts:
        g, k = stmt_gk(stmt)
        bg = (bg - k) | g
        bk = (bk | k) - g
    return bg, bk


class _FunctionAnalysis:
    """Runs the live-range/occupancy/profit pipeline for one function."""

    def __init__(
        self,
        fn: Function,
        alat: ALATConfig,
        am=None,
        profile=None,
        targets_by_temp: Optional[dict[int, frozenset[int]]] = None,
        prob_source=None,
    ) -> None:
        self.fn = fn
        self.alat = alat
        self.am = am
        self.profile = profile
        self.targets_by_temp = targets_by_temp or {}
        self.prob_source = prob_source
        self.webs = _collect_webs(fn)
        self.result = FunctionPressure(fn.name)

    # -- live ranges ----------------------------------------------------

    def _solve_ranges(self) -> None:
        fn = self.fn
        armed_gen: dict[int, frozenset] = {}
        armed_kill: dict[int, frozenset] = {}
        needed_gen: dict[int, frozenset] = {}
        needed_kill: dict[int, frozenset] = {}
        rpo = fn.reachable_blocks()
        for block in rpo:
            g, k = _compose_block(block.stmts, _stmt_armed_gk)
            armed_gen[block.bid], armed_kill[block.bid] = g, k
            g, k = _compose_block(
                list(reversed(block.stmts)), _stmt_needed_gk
            )
            needed_gen[block.bid], needed_kill[block.bid] = g, k

        armed = solve(
            fn,
            FORWARD,
            gen_kill_transfer(armed_gen, armed_kill),
            rpo=rpo,
        )
        needed = solve(
            fn,
            BACKWARD,
            gen_kill_transfer(needed_gen, needed_kill),
            rpo=rpo,
        )
        self.result.solver_visits = armed.visits + needed.visits
        self._armed = armed
        self._needed = needed

    def point_facts(
        self, block: BasicBlock
    ) -> tuple[list[frozenset], list[frozenset]]:
        """(armed, needed) ALAT facts after each statement of ``block``."""
        n = len(block.stmts)
        armed_after: list[frozenset] = []
        cur = self._armed.entry(block)
        for stmt in block.stmts:
            g, k = _stmt_armed_gk(stmt)
            cur = (cur - k) | g
            armed_after.append(cur)
        needed_after: list[frozenset] = [frozenset()] * n
        cur = self._needed.exit(block)
        for i in range(n - 1, -1, -1):
            needed_after[i] = cur
            g, k = _stmt_needed_gk(block.stmts[i])
            cur = (cur - k) | g
        return armed_after, needed_after

    def live_after(self, block: BasicBlock) -> list[frozenset]:
        """Live ALAT entries (armed *and* still needed) after each
        statement of ``block`` — the profit-relevant live range."""
        armed, needed = self.point_facts(block)
        return [a & n for a, n in zip(armed, needed)]

    # -- registers and set mapping --------------------------------------

    def _assign_sets(self) -> dict[int, int]:
        # Lazy import: repro.target imports repro.analysis for liveness.
        from repro.target.codegen import assign_registers

        var_reg = assign_registers(self.fn)
        self._var_reg = var_reg
        return {
            t: set_index_for_register(var_reg.get(t, t), self.alat)
            for t in self.webs
        }

    # -- alias-profile-weighted misspeculation --------------------------

    def _alias_risk(self, live_by_stmt: dict[int, frozenset]) -> dict[int, float]:
        """Per candidate: probability an aliasing store/call in the live
        range invalidates the entry before its next check.

        Each charged pair is priced by the configured
        :class:`~repro.analysis.probalias.ProbSource` (default: the
        profile-driven constants) and recorded on
        ``result.pair_estimates``."""
        survival = {t: 1.0 for t in self.webs}
        if self.am is None:
            return {t: 0.0 for t in self.webs}
        source = self.prob_source
        if source is None:
            from repro.analysis.probalias import ProfileProbSource

            source = ProfileProbSource(self.profile, self.am)
        for block in self.fn.reachable_blocks():
            for stmt in block.stmts:
                live = live_by_stmt.get(stmt.sid)
                if not live:
                    continue
                unknown = False
                if isinstance(stmt, Store):
                    writes = self.am.store_write_ids(stmt)
                    # Promotion rewrote many store addresses into temp
                    # reads the points-to solution has never seen; an
                    # empty target set means "unknown", not "nothing" —
                    # the dynamic address may hit any live entry.
                    unknown = not writes
                elif isinstance(stmt, Call):
                    writes = frozenset(
                        o.id for o in self.am.call_mod(stmt.callee)
                    )
                else:
                    continue
                if not writes and not unknown:
                    continue
                for t in live:
                    targets = self.targets_by_temp.get(t) or frozenset()
                    if not unknown and not (writes & targets):
                        continue
                    if isinstance(stmt, Store):
                        est = source.store_prob(
                            self.fn, stmt, targets, unknown
                        )
                    else:
                        est = source.call_prob(self.fn, stmt, targets)
                    self.result.pair_estimates.append(
                        PairEstimate(
                            function=self.fn.name,
                            sid=stmt.sid,
                            temp_id=t,
                            temp=self.webs[t].name,
                            kind="store"
                            if isinstance(stmt, Store)
                            else "call",
                            prob=est.prob,
                            source=est.source,
                            features=est.features,
                        )
                    )
                    survival[t] *= 1.0 - est.prob
        return {t: 1.0 - s for t, s in survival.items()}

    # -- address-dependency closure (cascades) ---------------------------

    def _dependents(self) -> dict[int, set[int]]:
        from repro.ir.stmt import SpecFlag

        plain_defs: dict[int, list[Assign]] = {}
        for stmt in self.fn.iter_stmts():
            if isinstance(stmt, Assign) and stmt.spec_flag is SpecFlag.NONE:
                plain_defs.setdefault(stmt.target.id, []).append(stmt)

        def addr_deps(temp_id: int) -> set[int]:
            deps: set[int] = set()
            seen: set[int] = {temp_id}
            work: list[int] = []
            web = self.webs[temp_id]
            for stmt in web.arming + web.checks:
                for e in stmt.walk_exprs():
                    if isinstance(e, VarRead) and e.var.is_temp:
                        work.append(e.var.id)
            while work:
                v = work.pop()
                if v in seen:
                    continue
                seen.add(v)
                if v in self.webs:
                    deps.add(v)
                    continue
                for d in plain_defs.get(v, []):
                    for e in d.walk_exprs():
                        if isinstance(e, VarRead) and e.var.is_temp:
                            work.append(e.var.id)
            return deps

        dependents: dict[int, set[int]] = {t: set() for t in self.webs}
        for t in self.webs:
            for provider in addr_deps(t):
                dependents[provider].add(t)
        return dependents

    # -- main entry ------------------------------------------------------

    def run(self) -> FunctionPressure:
        fn, res = self.fn, self.result
        fn.compute_preds()
        domtree = compute_dominators(fn)
        loops: LoopForest = find_natural_loops(fn, domtree)

        def block_weight(block: BasicBlock) -> float:
            loop = loops.innermost_containing(block)
            return float(LOOP_WEIGHT ** (loop.depth if loop else 0))

        def note_call(stmt: Call, armed: int, w: float) -> None:
            res.calls.append((stmt.callee, armed))
            res.call_weights[stmt.callee] = (
                res.call_weights.get(stmt.callee, 0.0) + w
            )

        if not self.webs:
            # No candidates, but the function still links call chains:
            # the interprocedural models must see main -> ... -> hot
            # leaf, and the rearm factor needs the call-site weights.
            for block in fn.reachable_blocks():
                w = block_weight(block)
                for stmt in block.stmts:
                    if isinstance(stmt, Call):
                        note_call(stmt, 0, w)
            return res
        self._solve_ranges()

        set_of = self._assign_sets()
        dependents = self._dependents()

        # One pass over every program point.  Occupancy tracks *armed*
        # entries (a dead entry still holds a way); profit and alias
        # risk track armed-and-needed (the value-carrying live range);
        # an arming whose target is not needed right after it is dead.
        live_by_stmt: dict[int, frozenset] = {}
        points: list[tuple[float, frozenset]] = []
        dead_weight: dict[int, float] = {t: 0.0 for t in self.webs}
        exit_armed: set[int] = set()
        for block in fn.reachable_blocks():
            w = block_weight(block)
            armed_after, needed_after = self.point_facts(block)
            for stmt, armed, needed in zip(
                block.stmts, armed_after, needed_after
            ):
                live_by_stmt[stmt.sid] = armed & needed
                points.append((w, armed))
                if isinstance(stmt, Call):
                    note_call(stmt, len(armed), w)
                elif (
                    isinstance(stmt, Assign)
                    and stmt.spec_flag.is_advanced_load
                    and stmt.target.id not in needed
                ):
                    dead_weight[stmt.target.id] += w
            if not block.successors():
                exit_armed |= self._armed.exit(block)
        for t in exit_armed:
            s = set_of[t]
            res.exit_residue[s] = res.exit_residue.get(s, 0) + 1

        p_alias = self._alias_risk(live_by_stmt)

        # Candidate skeletons + base (alias-only) profit for victim
        # ordering inside oversubscribed sets.
        for t, web in self.webs.items():
            weight = 0.0
            branching = 0
            for c in web.checks:
                blk = self._block_of(c)
                weight += block_weight(blk) if blk is not None else 1.0
                if c.spec_flag.is_branching_check:
                    branching += 1
            res.candidates[t] = CandidateReport(
                function=fn.name,
                temp_id=t,
                name=web.name,
                register=self._var_reg.get(t, t),
                set_index=set_of[t],
                is_float=web.is_float,
                n_arming=len(web.arming),
                n_checks=len(web.checks),
                n_branching_checks=branching,
                check_weight=weight,
                p_alias=p_alias.get(t, 0.0),
                dead_arming_weight=dead_weight.get(t, 0.0),
                dependents=dependents.get(t, set()),
            )

        def base_profit(t: int) -> float:
            """Alias-only expected profit — orders victims within an
            oversubscribed set before conflicts are priced in."""
            rep = res.candidates[t]
            lat = self.webs[t].load_latency
            pa = rep.p_alias
            penalty = RECOVERY_PENALTY if rep.n_branching_checks else 0.0
            return rep.check_weight * (lat * (1.0 - pa) - pa * penalty)

        # Occupancy scan: peaks, conflict victims, eviction externality.
        for w, armed in points:
            res.peak_occupancy = max(res.peak_occupancy, len(armed))
            by_set: dict[int, list[int]] = {}
            for t in armed:
                by_set.setdefault(set_of[t], []).append(t)
            for set_index, members in by_set.items():
                res.peak_by_set[set_index] = max(
                    res.peak_by_set.get(set_index, 0), len(members)
                )
                excess = len(members) - self.alat.associativity
                if excess <= 0:
                    continue
                members = sorted(members, key=lambda t: (base_profit(t), t))
                for t in members:
                    res.candidates[t].conflicts_with.update(
                        m for m in members if m != t
                    )
                for victim in members[:excess]:
                    rep = res.candidates[victim]
                    rep.p_conflict = P_CONFLICT_VICTIM
                    rep.conflict_cost = max(
                        rep.conflict_cost,
                        w * excess * self.webs[victim].load_latency,
                    )

        # Final expected-cycles profit per candidate.
        for t, rep in res.candidates.items():
            web = self.webs[t]
            lat = web.load_latency
            pm = rep.p_miss
            profit = 0.0
            for c in web.checks:
                blk = self._block_of(c)
                cw = block_weight(blk) if blk is not None else 1.0
                penalty = (
                    RECOVERY_PENALTY
                    if c.spec_flag.is_branching_check
                    else 0.0
                )
                profit += cw * (lat * (1.0 - pm) - pm * penalty)
            profit -= DEAD_ARMING_COST * rep.dead_arming_weight
            rep.profit = profit - rep.conflict_cost
        return res

    def _block_of(self, stmt: Stmt) -> Optional[BasicBlock]:
        cached = getattr(self, "_pos", None)
        if cached is None:
            cached = {}
            for block in self.fn.reachable_blocks():
                for s in block.stmts:
                    cached[s.sid] = block
            self._pos = cached
        return cached.get(stmt.sid)


def analyze_function_pressure(
    fn: Function,
    alat: Optional[ALATConfig] = None,
    am=None,
    profile=None,
    targets_by_temp: Optional[dict[int, frozenset[int]]] = None,
    prob_source=None,
) -> FunctionPressure:
    """Pressure/profit analysis for one function.

    ``prob_source`` is a :class:`repro.analysis.probalias.ProbSource`
    pricing the per-pair alias probabilities; None means the profile
    constants (the paper's behaviour)."""
    return _FunctionAnalysis(
        fn, alat or ALATConfig(), am, profile, targets_by_temp,
        prob_source,
    ).run()


def analyze_module_pressure(
    module: Module,
    alat: Optional[ALATConfig] = None,
    am=None,
    profile=None,
    targets_by_temp: Optional[dict[int, frozenset[int]]] = None,
    prob_source=None,
) -> ModulePressure:
    """Pressure/profit analysis for every function, plus the
    interprocedural occupancy peak along call chains from ``main``."""
    alat = alat or ALATConfig()
    mp = ModulePressure(alat)
    for fn in module.iter_functions():
        mp.functions[fn.name] = _FunctionAnalysis(
            fn, alat, am, profile, targets_by_temp, prob_source
        ).run()

    def peak(name: str, seen: frozenset) -> int:
        fp = mp.functions.get(name)
        if fp is None or name in seen:
            return 0
        best = fp.peak_occupancy
        inner = seen | {name}
        for callee, armed_across in fp.calls:
            if callee in mp.functions:
                best = max(best, armed_across + peak(callee, inner))
        return best

    root = "main" if "main" in mp.functions else None
    if root is not None:
        chain_peak = peak(root, frozenset())
        reachable = {root}
        work = [root]
        while work:
            fp = mp.functions[work.pop()]
            for callee, _ in fp.calls:
                if callee in mp.functions and callee not in reachable:
                    reachable.add(callee)
                    work.append(callee)
    else:
        chain_peak = max(
            (fp.peak_occupancy for fp in mp.functions.values()), default=0
        )
        reachable = set(mp.functions)

    # Cross-activation residue: entries still armed when an activation
    # returns are never cleared, so a function invoked more than once
    # (several call sites, a call site inside a loop, recursion, or a
    # repeatedly-invoked caller) leaves ~REARM_FACTOR generations of
    # stale tags competing for the same statically-mapped sets.
    repeated: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in reachable:
            if name in repeated:
                continue
            total = 0.0
            inherited = False
            for caller in reachable:
                w = mp.functions[caller].call_weights.get(name, 0.0)
                total += w
                inherited = inherited or (w > 0.0 and caller in repeated)
            if total > 1.0 or inherited:
                repeated.add(name)
                changed = True
    residue_by_set: dict[int, int] = {}
    for name in reachable:
        fp = mp.functions[name]
        factor = REARM_FACTOR if name in repeated else 1
        for s, count in fp.exit_residue.items():
            residue_by_set[s] = residue_by_set.get(s, 0) + factor * count
    residue = sum(
        min(alat.associativity, count)
        for count in residue_by_set.values()
    )
    mp.predicted_residue = min(alat.entries, residue)
    mp.predicted_peak = min(alat.entries, max(chain_peak, residue))
    return mp
