"""Static ALAT pressure and promotion-profitability analysis.

The paper's CodeMotion promotes every speculative candidate SSAPRE
finds, but the ALAT is a tiny set-associative resource (32 entries,
2-way on Itanium): too many concurrent ``ld.a`` live ranges cause
capacity/conflict evictions that turn "free" ``ld.c`` checks into
reload storms.  This module predicts that — purely statically — and
scores each candidate's expected profit so the pipeline can gate
promotion (``CompilerOptions.promotion_gate``) instead of promoting
blindly.

Three stacked models, all instances of :mod:`repro.analysis.dataflow`:

**ALAT live ranges.**  A candidate's entry is *live* at a program point
when it is both *armed* (a forward may-analysis: ``ld.a``/``ld.sa``
generates the fact, an entry-clearing check or ``invala.e`` kills it)
and *needed* (a backward may-analysis: any check of the temp generates
the fact, the arming statement kills it).  The live range is exactly the
region from the leading advanced load to the last check — the window
the hardware entry must survive.

**Occupancy & conflicts.**  Per program point, the simultaneously-live
entries are mapped through the configured geometry: the set index is
``register % sets`` (see :func:`repro.machine.alat.set_index_for_register`
— the table is indexed by target register number, which codegen assigns
deterministically, so the mapping is static).  A set holding more live
entries than its associativity at any point is oversubscribed: the
lowest-value entries beyond capacity are predicted conflict victims
(their checks miss; their allocations evict somebody).  Points are
weighted by loop depth (``LOOP_WEIGHT`` assumed iterations per level).

**Misspeculation & profit.**  Each candidate's probability of losing its
entry to a may-aliasing store inside the live range is estimated from
the alias profile (a store the training run never saw writing the
candidate's home objects is the paper's bet — residual
``P_ALIAS_UNSEEN``; an observed aliasing store is near-certain death).
Combined with the conflict prediction, each check's expected value is
``saved_load_latency x P(hit) - miss_penalty x P(miss)`` (Table 1
latencies; branching checks add the recovery penalty).  A candidate
whose loop-weighted total goes negative is unprofitable: the gate
demotes it — together with every candidate whose reload address
transitively reads it (a cascade value temp must never stay speculative
on top of a demoted address temp).

The calibration harness (``python -m repro.analysis.alatpressure``)
runs the workloads matrix and compares the static predictions against
the simulator's :class:`~repro.machine.alat.ALATStats` ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis import dataflow
from repro.analysis.dominators import compute_dominators
from repro.analysis.loops import LoopForest, find_natural_loops
from repro.ir.cfg import BasicBlock
from repro.ir.expr import VarRead
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import Assign, Call, InvalidateCheck, SpecFlag, Stmt, Store
from repro.machine.alat import ALATConfig, set_index_for_register

# -- cost model (documented in DESIGN.md §12) -----------------------------

#: cycles a check that hits saves vs. re-executing the load (paper
#: Table 1: integer loads are satisfied by the 2-cycle L1)
LOAD_LATENCY = 2
#: FP loads bypass L1 (Table 1: >= 9 cycles), so FP candidates have
#: proportionally more to gain per check — and to lose per miss
FP_LOAD_LATENCY = 9
#: pipeline flush + recovery-code cost of a failing branching check
#: (chk.a); mirrors ``MachineConfig.recovery_penalty``
RECOVERY_PENALTY = 30
#: assumed iterations per loop-nest level when weighting program points
LOOP_WEIGHT = 10
#: residual invalidation probability of a may-aliasing store the
#: training profile never saw writing the candidate's objects
P_ALIAS_UNSEEN = 0.05
#: invalidation probability when the profile *did* observe the store
#: writing the candidate's home (should not arise for ALAT-decided
#: candidates, but heuristic mode has no profile discipline)
P_ALIAS_SEEN = 0.90
#: per-aliasing-store probability when no profile is available at all
P_ALIAS_NOPROFILE = 0.20
#: miss probability of a predicted conflict victim (its set is
#: oversubscribed somewhere in its live range: LRU churn)
P_CONFLICT_VICTIM = 0.90
#: cycles charged per loop-weighted execution of an advanced load whose
#: entry is never needed afterwards (armed but never checked on any
#: path): the allocation is pure pollution — it evicts somebody else's
#: entry and saves nothing, so a dead arming always prices negative
DEAD_ARMING_COST = 1.0
#: occupancy multiplier for a function invoked more than once: ALAT
#: entries are tagged per activation and are *not* cleared at return,
#: so a re-invocation arms fresh tags while the previous activation's
#: stale tags still sit in the same sets (registers are per-function
#: static, so the set mapping repeats exactly)
REARM_FACTOR = 2


# -- per-candidate inventory ----------------------------------------------


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


@dataclass
class CandidateReport:
    """Static prediction for one promoted temporary."""

    function: str
    temp_id: int
    name: str
    register: int
    set_index: int
    is_float: bool
    n_arming: int
    n_checks: int
    n_branching_checks: int
    #: summed loop weight over the candidate's checks
    check_weight: float
    p_alias: float = 0.0
    p_conflict: float = 0.0
    #: expected cycles gained by keeping the promotion
    profit: float = 0.0
    #: eviction externality charged to predicted conflict victims
    conflict_cost: float = 0.0
    #: summed loop weight of armings whose entry is never needed after
    dead_arming_weight: float = 0.0
    #: other candidates sharing an oversubscribed set while live
    conflicts_with: set[int] = field(default_factory=set)
    #: candidates whose reload address transitively reads this temp —
    #: demoting this one drags them along
    dependents: set[int] = field(default_factory=set)

    @property
    def p_miss(self) -> float:
        return 1.0 - (1.0 - self.p_alias) * (1.0 - self.p_conflict)

    @property
    def unprofitable(self) -> bool:
        return self.profit < 0.0


@dataclass
class PairEstimate:
    """One charged (candidate, may-aliasing statement) probability.

    Recorded by ``_alias_risk`` for every pair it multiplies into a
    candidate's survival, whatever :class:`ProbSource` priced it — the
    driver turns these into ``probalias.estimate`` trace events and the
    probalias calibration CLI scores them against profiled truth."""

    function: str
    #: sid of the may-aliasing store/call
    sid: int
    temp_id: int
    temp: str
    #: "store" or "call"
    kind: str
    prob: float
    #: which source priced it ("profile" / "static" / "hybrid")
    source: str
    #: model features behind the number (overlap, loop structure, ...)
    features: dict = field(default_factory=dict)


@dataclass
class FunctionPressure:
    """Pressure analysis of one function."""

    function: str
    candidates: dict[int, CandidateReport] = field(default_factory=dict)
    #: every (candidate, aliasing statement) probability charged by the
    #: misspeculation model, with provenance
    pair_estimates: list[PairEstimate] = field(default_factory=list)
    #: maximum simultaneously-armed entries at any point (armed, not
    #: armed-and-needed: a dead entry still holds its way in the set)
    peak_occupancy: int = 0
    #: set index -> maximum simultaneously-armed entries mapping there
    peak_by_set: dict[int, int] = field(default_factory=dict)
    #: (callee name, entries armed across the call site) per direct call
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: callee name -> summed loop weight of its call sites here (the
    #: interprocedural rearm model reads invocation multiplicity off it)
    call_weights: dict[str, float] = field(default_factory=dict)
    #: set index -> entries still armed at some function exit: stale
    #: tags the hardware keeps after the activation returns
    exit_residue: dict[int, int] = field(default_factory=dict)
    #: worklist visits the two dataflow solves took (termination tests)
    solver_visits: int = 0

    def conflict_edges(self) -> set[tuple[int, int]]:
        """Undirected candidate pairs predicted to fight over a set."""
        edges: set[tuple[int, int]] = set()
        for rep in self.candidates.values():
            for other in rep.conflicts_with:
                edges.add((min(rep.temp_id, other), max(rep.temp_id, other)))
        return edges


@dataclass
class ModulePressure:
    """Whole-module pressure analysis."""

    alat: ALATConfig
    functions: dict[str, FunctionPressure] = field(default_factory=dict)
    #: predicted dynamic occupancy peak: the larger of the deepest
    #: armed-across-call chain from ``main`` and the cross-activation
    #: residue total, capped at the table size
    predicted_peak: int = 0
    #: the residue component alone: stale per-activation tags summed
    #: per set (capped at the associativity), rearm-weighted
    predicted_residue: int = 0

    def all_candidates(self) -> Iterator[CandidateReport]:
        for fp in self.functions.values():
            yield from fp.candidates.values()

    def predicted_check_miss_rate(self) -> float:
        """Loop-weighted static estimate of the dynamic check-miss rate."""
        weight = 0.0
        misses = 0.0
        for rep in self.all_candidates():
            weight += rep.check_weight
            misses += rep.check_weight * rep.p_miss
        return misses / weight if weight else 0.0

    def demotion_plan(self) -> dict[str, dict[int, str]]:
        """Per function: temp id -> reason, closed over dependents.

        Demoting a temp drags every temp whose reload address
        transitively reads it (cascade safety: a value temp whose
        address temp reloads conservatively would otherwise pass its
        check against a stale address).  So each unprofitable candidate
        seeds a *drag group* — itself plus its transitive dependents —
        and the group is demoted only when its summed profit is
        negative: killing a -1 dead arming is not worth dragging a
        +1000 value chain down with it."""
        plan: dict[str, dict[int, str]] = {}
        for name, fp in self.functions.items():
            reasons: dict[int, str] = {}
            for rep in fp.candidates.values():
                if not rep.unprofitable or rep.temp_id in reasons:
                    continue
                group = {rep.temp_id}
                work = [rep.temp_id]
                while work:
                    for dep in sorted(fp.candidates[work.pop()].dependents):
                        if dep not in group:
                            group.add(dep)
                            work.append(dep)
                net = sum(fp.candidates[t].profit for t in group)
                if net >= 0.0:
                    continue
                for t in sorted(group):
                    if t in reasons:
                        continue
                    if fp.candidates[t].unprofitable:
                        reasons[t] = (
                            f"predicted profit "
                            f"{fp.candidates[t].profit:.1f} < 0"
                        )
                    else:
                        reasons[t] = (
                            f"address provider {rep.name} demoted"
                        )
            if reasons:
                plan[name] = reasons
        return plan


# -- the analysis ---------------------------------------------------------


def armed_by_stmt(fn: Function) -> dict[int, frozenset[int]]:
    """Armed ALAT temps after each statement of ``fn``, keyed by sid.

    The raw occupancy facts of the forward "armed" analysis (an entry
    is held from its ``ld.a``/``ld.sa`` until a clearing check or
    ``invala.e``), without the profit model on top — speclint's SPEC006
    pressure rule is rebased on this.  Only protocol statements change
    the facts; every other statement carries the facts before it.  The
    solve runs on bit sets, one bit per temp; a statement's facts are
    the set of its bits, made once per distinct mask."""
    fn.compute_preds()
    rpo = fn.reachable_blocks()
    bits: dict[int, int] = {}
    #: block id -> [(statement, gen, kill)] of its protocol statements
    marks: dict[int, list[tuple[Stmt, int, int]]] = {}
    gen: dict[int, int] = {}
    kill: dict[int, int] = {}
    for block in rpo:
        found = []
        bg = bk = 0
        for m in map(_protocol_gk, block.stmts):
            if m is None:
                continue
            g, k = (
                sum(dataflow.bit_of(bits, t) for t in facts)
                for facts in m[_ARMED]
            )
            found.append((m[0], g, k))
            bg = (bg & ~k) | g
            bk = (bk | k) & ~g
        if found:
            marks[block.bid] = found
            gen[block.bid], kill[block.bid] = bg, bk
    entry, _, _ = dataflow.solve_bits(rpo, dataflow.FORWARD, gen, kill)
    order = list(bits)
    sets: dict[int, frozenset[int]] = {}

    def as_set(mask: int) -> frozenset[int]:
        facts = sets.get(mask)
        if facts is None:
            facts = sets[mask] = dataflow.mask_set(mask, order)
        return facts

    facts: dict[int, frozenset[int]] = {}
    for block in rpo:
        cur = entry[block.bid]
        found = marks.get(block.bid)
        if not found:
            facts.update(dict.fromkeys([s.sid for s in block.stmts], as_set(cur)))
            continue
        changes = {id(m[0]): m for m in found}
        cur_set = as_set(cur)
        for stmt in block.stmts:
            change = changes.get(id(stmt))
            if change is not None:
                cur = (cur & ~change[2]) | change[1]
                cur_set = as_set(cur)
            facts[stmt.sid] = cur_set
    return facts


_NONE: frozenset = frozenset()

#: (statement, (gen, kill) of the "armed" analysis, (gen, kill) of the
#: "needed" analysis) of one protocol statement: a speculation-flagged
#: assign or an ``invala.e``.  Every other statement has empty gen and
#: kill in both analyses.
_Mark = tuple[Stmt, tuple[frozenset, frozenset], tuple[frozenset, frozenset]]
#: the index in a :data:`_Mark` of each analysis's gen/kill
_ARMED, _NEEDED = 1, 2


def _protocol_gk(stmt: Stmt) -> Optional[_Mark]:
    """The gen/kill of both analyses for a protocol statement, or None.

    Forward "armed": an ``ld.a``/``ld.sa`` generates its temp, a check
    generates it if it keeps the entry and kills it otherwise, an
    ``invala.e`` kills it.  Backward "needed": any check generates its
    temp and the arming kills it."""
    kind = type(stmt)
    if kind is Assign:
        flag = stmt.spec_flag
        if flag is SpecFlag.NONE:
            return None
        t = frozenset((stmt.target.id,))
        if flag.is_advanced_load:
            return stmt, (t, _NONE), (_NONE, t)
        if flag.keeps_entry:
            return stmt, (t, _NONE), (t, _NONE)
        return stmt, (_NONE, t), (t, _NONE)
    if kind is InvalidateCheck:
        return stmt, (_NONE, frozenset((stmt.temp.id,))), (_NONE, _NONE)
    return None


def _transfer(rpo, marks: dict[int, list[_Mark]], analysis: int):
    """The block transfer of one analysis (``_ARMED`` forward or
    ``_NEEDED`` backward): each block's protocol statements' gen/kill
    composed in flow order."""
    gen: dict[int, frozenset] = {}
    kill: dict[int, frozenset] = {}
    for block in rpo:
        found = marks.get(block.bid)
        if found:
            bg: frozenset = _NONE
            bk: frozenset = _NONE
            for m in (found if analysis == _ARMED else reversed(found)):
                g, k = m[analysis]
                bg = (bg - k) | g
                bk = (bk | k) - g
            gen[block.bid], kill[block.bid] = bg, bk
    return dataflow.gen_kill_transfer(gen, kill)


class _FunctionAnalysis:
    """Runs the live-range/occupancy/profit pipeline for one function.

    One scan of the function finds its webs, its plain definitions and,
    per block, the statements the model reads: protocol statements
    (the only ones with gen/kill), stores and calls.  Everything after
    it visits those statements only, since the facts cannot change
    between two of them."""

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
        self.result = FunctionPressure(fn.name)
        self._scan()

    def _scan(self) -> None:
        webs: dict[int, _Web] = {}

        def web_for(var) -> _Web:
            w = webs.get(var.id)
            if w is None:
                w = _Web(var.id, var.name, is_float=var.type.is_float)
                webs[var.id] = w
            return w

        #: temp id -> plain (unflagged) assigns to it
        self._plain_defs: dict[int, list[Assign]] = {}
        #: block id -> [(stmt, mark or None)] for protocol statements
        #: (with their gen/kill), stores and calls, in order
        self._events: dict[int, list[tuple[Stmt, Optional[_Mark]]]] = {}
        #: block id -> protocol gen/kill marks, in order
        self._marks: dict[int, list[_Mark]] = {}
        self._check_block: dict[int, BasicBlock] = {}
        for block in self.fn.blocks:
            events: list[tuple[Stmt, Optional[_Mark]]] = []
            for stmt in block.stmts:
                kind = type(stmt)
                if kind is Assign:
                    flag = stmt.spec_flag
                    if flag is SpecFlag.NONE:
                        self._plain_defs.setdefault(stmt.target.id, []).append(stmt)
                        continue
                    if flag.is_advanced_load:
                        web_for(stmt.target).arming.append(stmt)
                    else:
                        web_for(stmt.target).checks.append(stmt)
                        self._check_block[stmt.sid] = block
                    events.append((stmt, _protocol_gk(stmt)))
                elif kind is InvalidateCheck:
                    web_for(stmt.temp).invalas.append(stmt)
                    events.append((stmt, _protocol_gk(stmt)))
                elif kind is Store or kind is Call:
                    events.append((stmt, None))
            if events:
                self._events[block.bid] = events
                marks = [m for _, m in events if m is not None]
                if marks:
                    self._marks[block.bid] = marks
        # A temp with checks but no arming (or vice versa) is degenerate;
        # keep it — the live-range dataflow naturally gives it an empty or
        # unbounded-but-unneeded range.
        self.webs = {t: w for t, w in webs.items() if w.arming}

    # -- live ranges ----------------------------------------------------

    def _solve_ranges(self, rpo: Optional[list[BasicBlock]] = None) -> None:
        fn = self.fn
        if rpo is None:
            rpo = fn.reachable_blocks()
        armed = dataflow.solve(
            fn, dataflow.FORWARD, _transfer(rpo, self._marks, _ARMED), rpo=rpo
        )
        needed = dataflow.solve(
            fn, dataflow.BACKWARD, _transfer(rpo, self._marks, _NEEDED), rpo=rpo
        )
        self.result.solver_visits = armed.visits + needed.visits
        self._armed = armed
        self._needed = needed

    def point_facts(
        self, block: BasicBlock
    ) -> tuple[list[frozenset], list[frozenset]]:
        """(armed, needed) ALAT facts after each statement of ``block``."""
        gk = {id(m[0]): m for m in self._marks.get(block.bid, ())}
        n = len(block.stmts)
        armed_after: list[frozenset] = []
        cur = self._armed.entry(block)
        for stmt in block.stmts:
            m = gk.get(id(stmt))
            if m is not None:
                g, k = m[_ARMED]
                cur = (cur - k) | g
            armed_after.append(cur)
        needed_after: list[frozenset] = [frozenset()] * n
        cur = self._needed.exit(block)
        for i in range(n - 1, -1, -1):
            needed_after[i] = cur
            m = gk.get(id(block.stmts[i]))
            if m is not None:
                g, k = m[_NEEDED]
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

    def _alias_risk(
        self, live_at: list[tuple[Stmt, frozenset]]
    ) -> dict[int, float]:
        """Per candidate: probability an aliasing store/call in the live
        range invalidates the entry before its next check.

        ``live_at`` holds each store and call with a live entry after
        it, in layout order of the reachable blocks.  Each charged pair
        is priced by the configured
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
        for stmt, live in live_at:
            unknown = False
            if type(stmt) is Store:
                writes = self.am.store_write_ids(stmt)
                # Promotion rewrote many store addresses into temp
                # reads the points-to solution has never seen; an
                # empty target set means "unknown", not "nothing" —
                # the dynamic address may hit any live entry.
                unknown = not writes
            else:
                writes = frozenset(
                    o.id for o in self.am.call_mod(stmt.callee)
                )
            if not writes and not unknown:
                continue
            for t in live:
                targets = self.targets_by_temp.get(t) or frozenset()
                if not unknown and not (writes & targets):
                    continue
                if type(stmt) is Store:
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
                        if type(stmt) is Store
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
        plain_defs = self._plain_defs

        def addr_deps(temp_id: int) -> set[int]:
            deps: set[int] = set()
            seen: set[int] = {temp_id}
            work: list[int] = []
            web = self.webs[temp_id]
            for stmt in web.arming + web.checks:
                for e in stmt.expr_nodes():
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
                    for e in d.expr_nodes():
                        if isinstance(e, VarRead) and e.var.is_temp:
                            work.append(e.var.id)
            return deps

        dependents: dict[int, set[int]] = {t: set() for t in self.webs}
        for t in self.webs:
            for provider in addr_deps(t):
                dependents[provider].add(t)
        return dependents

    # -- main entry ------------------------------------------------------

    def _block_weights(self, rpo: list[BasicBlock]) -> dict[int, float]:
        """Loop-nest weight of every reachable block."""
        loops: LoopForest = find_natural_loops(
            self.fn, compute_dominators(self.fn, rpo)
        )
        weights: dict[int, float] = {}
        for block in rpo:
            loop = loops.innermost_containing(block)
            weights[block.bid] = float(LOOP_WEIGHT ** (loop.depth if loop else 0))
        return weights

    def run(self) -> FunctionPressure:
        fn, res = self.fn, self.result
        fn.compute_preds()
        rpo = fn.reachable_blocks()

        def note_call(stmt: Call, armed: int, w: float) -> None:
            res.calls.append((stmt.callee, armed))
            res.call_weights[stmt.callee] = (
                res.call_weights.get(stmt.callee, 0.0) + w
            )

        if not self.webs:
            # No candidates, but the function still links call chains:
            # the interprocedural models must see main -> ... -> hot
            # leaf, and the rearm factor needs the call-site weights.
            calls = [
                (block, stmt)
                for block in rpo
                for stmt, _ in self._events.get(block.bid, ())
                if type(stmt) is Call
            ]
            if calls:
                weights = self._block_weights(rpo)
                for block, stmt in calls:
                    note_call(stmt, 0, weights[block.bid])
            return res
        weights = self._block_weights(rpo)
        self._solve_ranges(rpo)

        set_of = self._assign_sets()
        dependents = self._dependents()

        # One pass over the statements that change or read the facts.
        # Occupancy tracks *armed* entries (a dead entry still holds a
        # way) at every program point: the armed set stays as it is
        # between two protocol statements, so each block contributes
        # its distinct armed sets, each once.  Profit and alias risk
        # track armed-and-needed (the value-carrying live range) after
        # stores and calls; an arming whose target is not needed right
        # after it is dead.
        live_at: list[tuple[Stmt, frozenset]] = []
        points: dict[tuple[float, frozenset], None] = {}
        dead_weight: dict[int, float] = {t: 0.0 for t in self.webs}
        exit_armed: set[int] = set()
        for block in rpo:
            w = weights[block.bid]
            events = self._events.get(block.bid, ())
            # needed after each event, walking the block backwards
            needed_after: list[frozenset] = [_NONE] * len(events)
            cur = self._needed.exit(block)
            for i in range(len(events) - 1, -1, -1):
                needed_after[i] = cur
                m = events[i][1]
                if m is not None:
                    g, k = m[_NEEDED]
                    cur = (cur - k) | g
            cur = self._armed.entry(block)
            marks = self._marks.get(block.bid)
            if block.stmts and not (marks and marks[0][0] is block.stmts[0]):
                # the statements before the first protocol statement
                points[(w, cur)] = None
            for (stmt, m), needed in zip(events, needed_after):
                if m is not None:
                    g, k = m[_ARMED]
                    cur = (cur - k) | g
                    points[(w, cur)] = None
                    if (
                        type(stmt) is Assign
                        and stmt.spec_flag.is_advanced_load
                        and stmt.target.id not in needed
                    ):
                        dead_weight[stmt.target.id] += w
                else:
                    live = cur & needed
                    if live:
                        live_at.append((stmt, live))
                    if type(stmt) is Call:
                        note_call(stmt, len(cur), w)
            if not block.successors():
                exit_armed |= self._armed.exit(block)
        for t in exit_armed:
            s = set_of[t]
            res.exit_residue[s] = res.exit_residue.get(s, 0) + 1

        p_alias = self._alias_risk(live_at)

        # Candidate skeletons + base (alias-only) profit for victim
        # ordering inside oversubscribed sets.  A check in a block the
        # entry does not reach weighs 1.
        check_weight = {
            sid: weights.get(block.bid, 1.0)
            for sid, block in self._check_block.items()
        }
        for t, web in self.webs.items():
            weight = 0.0
            branching = 0
            for c in web.checks:
                weight += check_weight[c.sid]
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
        # Every step is a maximum or a set union, so a point seen again
        # changes nothing and each distinct one is scanned once.
        for w, armed in points:
            if not armed:
                continue
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
                cw = check_weight[c.sid]
                penalty = (
                    RECOVERY_PENALTY
                    if c.spec_flag.is_branching_check
                    else 0.0
                )
                profit += cw * (lat * (1.0 - pm) - pm * penalty)
            profit -= DEAD_ARMING_COST * rep.dead_arming_weight
            rep.profit = profit - rep.conflict_cost
        return res


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


# -- calibration harness --------------------------------------------------

#: |predicted - actual| bound on the loop-weighted check-miss rate
MISS_RATE_TOLERANCE = 0.15
#: the static peak may under-predict the dynamic one by at most this
#: many entries (recursion creates activation-distinct tags the static
#: per-function view collapses)
PEAK_UNDER_TOLERANCE = 2
#: ... and over-predict by at most ``actual * factor + slack`` (it is a
#: may-analysis: entries the hardware already lost still count as live)
PEAK_OVER_FACTOR = 3.0
PEAK_OVER_SLACK = 6


@dataclass
class CalibrationRow:
    """Predicted vs. simulated ALAT behaviour for one workload."""

    workload: str
    predicted_peak: int
    actual_peak: int
    predicted_miss_rate: float
    actual_miss_rate: float
    actual_evictions: int
    candidates: int
    demotions: int

    @property
    def miss_rate_error(self) -> float:
        return abs(self.predicted_miss_rate - self.actual_miss_rate)

    def within(self, miss_tol: float) -> bool:
        if self.miss_rate_error > miss_tol:
            return False
        if self.actual_peak - self.predicted_peak > PEAK_UNDER_TOLERANCE:
            return False
        bound = self.actual_peak * PEAK_OVER_FACTOR + PEAK_OVER_SLACK
        return self.predicted_peak <= bound


def calibrate_workload(name: str) -> CalibrationRow:
    """Compile one workload speculatively (gate off), analyze the final
    module, simulate on the ref input, and face the two off."""
    # Local imports: the pipeline layer imports repro.analysis.
    from repro.pipeline.options import PromotionGate
    from repro.speclint import facts_from_pre_stats
    from repro.workloads.runner import SPECULATIVE
    from repro.workloads.programs import get_workload
    from repro.pipeline import compile_source

    workload = get_workload(name)
    options = SPECULATIVE()
    options.promotion_gate = PromotionGate.OFF
    output = compile_source(
        workload.source,
        options,
        train_args=list(workload.train_args),
        name=name,
    )
    facts = facts_from_pre_stats(output.pre_stats, output.alias_manager)
    mp = analyze_module_pressure(
        output.module,
        output.options.machine.alat,
        am=output.alias_manager,
        profile=output.profile,
        targets_by_temp=facts.targets_by_temp,
    )
    stats = output.run(list(workload.ref_args)).alat_stats
    checks = stats.check_hits + stats.check_misses
    plan = mp.demotion_plan()
    return CalibrationRow(
        workload=name,
        predicted_peak=mp.predicted_peak,
        actual_peak=stats.peak_occupancy,
        predicted_miss_rate=mp.predicted_check_miss_rate(),
        actual_miss_rate=stats.check_misses / checks if checks else 0.0,
        actual_evictions=stats.capacity_evictions,
        candidates=sum(1 for _ in mp.all_candidates()),
        demotions=sum(len(v) for v in plan.values()),
    )


def run_calibration(
    names: Optional[list[str]] = None
) -> tuple[list[CalibrationRow], list[str]]:
    """Calibrate over the workloads matrix.

    Returns the per-workload rows and a list of human-readable tolerance
    violations (empty = calibrated)."""
    from repro.workloads.programs import BENCHMARKS

    rows = [calibrate_workload(n) for n in (names or list(BENCHMARKS))]
    problems: list[str] = []
    for row in rows:
        if not row.within(MISS_RATE_TOLERANCE):
            problems.append(
                f"{row.workload}: predicted peak {row.predicted_peak} vs "
                f"actual {row.actual_peak}, predicted miss rate "
                f"{row.predicted_miss_rate:.3f} vs actual "
                f"{row.actual_miss_rate:.3f} "
                f"(tolerance {MISS_RATE_TOLERANCE:.2f})"
            )
    return rows, problems


def _main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.alatpressure",
        description=(
            "Calibrate the static ALAT pressure model against the "
            "simulator's ALATStats over the workloads matrix."
        ),
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        help="workload names (default: the full benchmark matrix)",
    )
    args = parser.parse_args(argv)

    rows, problems = run_calibration(args.workloads or None)
    header = (
        f"{'workload':10s} {'peak pred/act':>14s} {'missrate pred/act':>18s} "
        f"{'evict':>6s} {'cands':>6s} {'demote':>7s}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r.workload:10s} {r.predicted_peak:6d}/{r.actual_peak:<6d} "
            f"{r.predicted_miss_rate:8.3f}/{r.actual_miss_rate:<8.3f} "
            f"{r.actual_evictions:6d} {r.candidates:6d} {r.demotions:7d}"
        )
    if problems:
        print()
        for p in problems:
            print(f"OUT OF TOLERANCE: {p}")
        return 1
    print(f"\nall {len(rows)} workload(s) within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
