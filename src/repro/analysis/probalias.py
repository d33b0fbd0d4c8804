"""Probabilistic alias analysis for static-only speculation.

The paper decides speculative promotion from an alias *profile*: a
may-aliasing store the training run never saw writing the candidate's
objects is bet against (residual ``P_ALIAS_UNSEEN``).  Deployment
scenarios without a train run (ROADMAP: compile-as-a-service) need the
same per-(candidate, store) probabilities *statically*.  Following the
probabilistic-alias-analysis line of work (Chen et al., PACT'04 — see
PAPERS.md), this module estimates them from what the compiler already
knows:

(a) **Points-to overlap** — the Andersen points-to set of the store's
    address intersected with the candidate's home objects.  Disjoint
    (or type-refuted) sets get probability 0; each shared object
    contributes a per-kind weight (a shared heap object is what pointer
    stores usually do hit; a named scalar that leaked into a large set
    is usually an artifact of analysis conservatism).
(b) **Loop structure** — a store whose address is *loop-carried*
    (recomputed every iteration, found by a reaching-definitions
    forward dataflow pass on :mod:`repro.analysis.dataflow`) strides
    through memory and rarely revisits one location, so its per-object
    weight is attenuated; a loop-invariant overlapping address hits the
    same location every time around.
(c) **Type filtering** — :mod:`repro.alias.typebased` refutations drop
    a pair to probability 0 (and are reported as a feature).
(d) **Call mod sets** — calls use the callgraph-aware GMOD summaries
    (:meth:`repro.alias.manager.AliasManager.call_mod`), attenuated
    because transitive summaries are coarse.

The combination is a *noisy-OR* over the overlap objects::

    P(alias) = 1 - prod_{o in overlap} (1 - w(o) * attenuation)

which is monotone in both points-to sets: growing either set can only
grow the overlap, and each extra object only lowers the survival
product.  (A ``|overlap| / |points-to|`` ratio would *not* be monotone
— adding a non-overlapping object to the store's set would lower the
estimate — which is why set size enters only through the overlap.)

The :class:`ProbSource` interface makes the pressure model
(:mod:`repro.analysis.alatpressure`) agnostic about where its per-pair
probabilities come from: :class:`ProfileProbSource` reproduces the
paper's profiled constants, :class:`StaticProbSource` serves these
estimates, and :class:`HybridProbSource` uses the profile where the
training run executed the store and backfills everything else with the
static estimate instead of the flat ``P_ALIAS_UNSEEN``.

The calibration CLI (``python -m repro.analysis.probalias``) compares
static estimates against profiled ground truth over the workloads
matrix: per-pair Brier score, gate-decision agreement, and an
end-to-end static-only compile+run (no profiling) whose output must be
byte-identical to the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.alias.manager import AliasManager
from repro.alias.memobj import HeapMemObject
from repro.analysis import dataflow
from repro.analysis.alatpressure import (
    P_ALIAS_NOPROFILE,
    P_ALIAS_SEEN,
    P_ALIAS_UNSEEN,
)
from repro.analysis.dominators import compute_dominators
from repro.ir.expr import VarRead, walk_expr
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import Alloc, Assign, Call, Stmt, Store

# -- the probability model (documented in DESIGN.md §15) -------------------

#: per-object alias weight of a shared heap (allocation-site) object:
#: heap objects are what indirect stores usually do hit
W_HEAP = 0.65
#: per-object alias weight of a shared named variable: named scalars
#: mostly leak into large sets through analysis conservatism
W_NAMED = 0.35
#: probability charged when the store's address resolved to nothing
#: (promotion rewrote it past the points-to solution): the dynamic
#: address may hit anything, but usually does not
P_UNKNOWN = 0.20
#: weight multiplier for a loop-carried store address (a striding
#: pointer rarely revisits one location)
LOOP_CARRIED_ATTENUATION = 0.5
#: weight multiplier for call mod sets (transitive GMOD summaries are
#: coarse: most summarized objects are untouched per dynamic call)
CALL_ATTENUATION = 0.5
#: minimum per-workload gate-decision agreement between static and
#: profiled pressure gating (the calibration CLI's acceptance bar)
AGREEMENT_THRESHOLD = 0.80


def combine_noisy_or(weights: Iterable[float]) -> float:
    """``1 - prod(1 - w)`` with each weight clamped to [0, 1].

    Monotone: adding a weight never lowers the result."""
    survive = 1.0
    for w in weights:
        survive *= 1.0 - min(1.0, max(0.0, w))
    return 1.0 - survive


@dataclass
class Estimate:
    """One (candidate, statement) alias probability plus provenance."""

    prob: float
    #: which source produced it: "profile", "static", or "hybrid"
    source: str
    #: model features behind the number (overlap size, loop structure,
    #: refutations...) — traced as ``probalias.estimate`` events
    features: dict = field(default_factory=dict)


# -- per-function context: loops + reaching definitions --------------------


def _def_of(stmt: Stmt) -> Optional[int]:
    """The variable id ``stmt`` defines, if any."""
    if isinstance(stmt, (Assign, Alloc)):
        return stmt.target.id
    if isinstance(stmt, Call) and stmt.result is not None:
        return stmt.result.id
    return None


#: pseudo block id of parameter definitions (outside every loop)
_ENTRY_DEF = -1


class _FunctionContext:
    """Loop forest plus reaching definitions for one function.

    Reaching definitions is the forward dataflow pass of the estimator:
    facts are ``(var_id, defining_block_id)`` pairs solved on
    :func:`repro.analysis.dataflow.solve`; a store's address variable is
    *loop-carried* when some definition reaching the store lies inside
    the store's innermost loop."""

    def __init__(self, fn: Function) -> None:
        from repro.analysis.loops import find_natural_loops

        fn.compute_preds()
        self.fn = fn
        self.loops = find_natural_loops(fn, compute_dominators(fn))
        self.block_of = {
            stmt.sid: block
            for block in fn.reachable_blocks()
            for stmt in block.stmts
        }

        defs_by_var: dict[int, set[int]] = {}
        block_defs: dict[int, dict[int, int]] = {}
        for block in fn.reachable_blocks():
            last: dict[int, int] = {}
            for stmt in block.stmts:
                v = _def_of(stmt)
                if v is not None:
                    last[v] = block.bid
            block_defs[block.bid] = last
            for v in last:
                defs_by_var.setdefault(v, set()).add(block.bid)
        for p in fn.params:
            defs_by_var.setdefault(p.id, set()).add(_ENTRY_DEF)

        gen = {
            bid: frozenset((v, bid) for v in last)
            for bid, last in block_defs.items()
        }
        kill = {
            bid: frozenset(
                (v, other)
                for v in last
                for other in defs_by_var[v]
                if other != bid
            )
            for bid, last in block_defs.items()
        }
        self.reaching = dataflow.solve(
            fn,
            dataflow.FORWARD,
            dataflow.gen_kill_transfer(gen, kill),
            boundary=frozenset((p.id, _ENTRY_DEF) for p in fn.params),
        )

    def reaching_def_blocks(self, stmt: Stmt, var_id: int) -> set[int]:
        """Block ids of the definitions of ``var_id`` reaching ``stmt``."""
        block = self.block_of.get(stmt.sid)
        if block is None:
            return set()
        facts = set(self.reaching.entry(block))
        for s in block.stmts:
            if s.sid == stmt.sid:
                break
            v = _def_of(s)
            if v is not None:
                facts = {(fv, fb) for (fv, fb) in facts if fv != v}
                facts.add((v, block.bid))
        return {b for (v, b) in facts if v == var_id}

    def loop_carried_addr(self, stmt: Store) -> bool:
        """Is the store's address recomputed inside its innermost loop?"""
        block = self.block_of.get(stmt.sid)
        if block is None:
            return False
        loop = self.loops.innermost_containing(block)
        if loop is None:
            return False
        for e in walk_expr(stmt.addr):
            if not isinstance(e, VarRead):
                continue
            for bid in self.reaching_def_blocks(stmt, e.var.id):
                if bid in loop.blocks:
                    return True
        return False


# -- the estimator ---------------------------------------------------------


class ProbAliasEstimator:
    """Static per-(candidate targets, store/call) alias probabilities."""

    def __init__(self, module: Module, am: AliasManager) -> None:
        self.module = module
        self.am = am
        self._ctx: dict[str, _FunctionContext] = {}
        self._fn_of_sid: dict[int, Function] = {}
        for fn in module.iter_functions():
            for stmt in fn.iter_stmts():
                self._fn_of_sid[stmt.sid] = fn

    def _context(self, fn: Function) -> _FunctionContext:
        ctx = self._ctx.get(fn.name)
        if ctx is None:
            ctx = self._ctx[fn.name] = _FunctionContext(fn)
        return ctx

    def object_weight(self, oid: int) -> float:
        obj = self.am.object_by_id(oid)
        if isinstance(obj, HeapMemObject):
            return W_HEAP
        return W_NAMED

    def estimate_store(
        self,
        fn: Optional[Function],
        stmt: Store,
        targets: frozenset[int],
    ) -> Estimate:
        """Probability the store invalidates a candidate whose home
        objects are ``targets`` (empty ``targets`` → nothing to hit)."""
        writes = self.am.store_write_ids(stmt)
        if fn is None:
            fn = self._fn_of_sid.get(stmt.sid)
        carried = False
        if fn is not None:
            carried = self._context(fn).loop_carried_addr(stmt)
        if not writes:
            return Estimate(
                P_UNKNOWN,
                "static",
                {"kind": "store", "unknown": True, "loop_carried": carried},
            )
        overlap = writes & targets
        if not overlap:
            raw = {
                o.id
                for o in self.am.access_targets_unfiltered(stmt.addr)
            }
            return Estimate(
                0.0,
                "static",
                {
                    "kind": "store",
                    "overlap": 0,
                    "fanout": len(writes),
                    # would have overlapped without the type filter
                    "type_refuted": bool(raw & targets),
                    "loop_carried": carried,
                },
            )
        atten = LOOP_CARRIED_ATTENUATION if carried else 1.0
        heap_overlap = sum(
            1
            for oid in overlap
            if isinstance(self.am.object_by_id(oid), HeapMemObject)
        )
        prob = combine_noisy_or(
            self.object_weight(oid) * atten for oid in overlap
        )
        return Estimate(
            prob,
            "static",
            {
                "kind": "store",
                "overlap": len(overlap),
                "heap_overlap": heap_overlap,
                "fanout": len(writes),
                "loop_carried": carried,
            },
        )

    def estimate_call(
        self,
        fn: Optional[Function],
        stmt: Call,
        targets: frozenset[int],
    ) -> Estimate:
        """Probability a call's transitive writes invalidate a candidate."""
        writes = {o.id for o in self.am.call_mod(stmt.callee)}
        overlap = writes & targets
        if not overlap:
            return Estimate(
                0.0, "static", {"kind": "call", "callee": stmt.callee}
            )
        prob = combine_noisy_or(
            self.object_weight(oid) * CALL_ATTENUATION for oid in overlap
        )
        return Estimate(
            prob,
            "static",
            {
                "kind": "call",
                "callee": stmt.callee,
                "overlap": len(overlap),
            },
        )

    def store_object_prob(self, stmt: Store, target_ids: frozenset[int]) -> float:
        """Decider-facing shorthand: probability ``stmt`` writes one of
        ``target_ids`` (function resolved from the statement)."""
        return self.estimate_store(None, stmt, target_ids).prob


# -- the ProbSource interface ----------------------------------------------


class ProbSource:
    """Where the pressure model's per-pair alias probabilities come from.

    ``_alias_risk`` calls one of the two hooks for every (live
    candidate, may-aliasing statement) pair it charges; implementations
    return an :class:`Estimate` (probability + provenance features)."""

    name = "base"

    def store_prob(
        self,
        fn: Function,
        stmt: Store,
        targets: frozenset[int],
        unknown: bool,
    ) -> Estimate:
        raise NotImplementedError

    def call_prob(
        self, fn: Function, stmt: Call, targets: frozenset[int]
    ) -> Estimate:
        raise NotImplementedError


class ProfileProbSource(ProbSource):
    """The paper's constants, driven by the training-run profile.

    Reproduces the pre-ProbSource ``_alias_risk`` behaviour exactly:
    no profile at all → ``P_ALIAS_NOPROFILE`` per pair; a store the
    profile observed writing the candidate's home → ``P_ALIAS_SEEN``;
    anything else → the flat ``P_ALIAS_UNSEEN`` residual."""

    name = "profile"

    def __init__(self, profile, am: AliasManager) -> None:
        self.profile = profile
        self.am = am

    def _object_keys(self, target_ids: frozenset[int]) -> set:
        from repro.speculation.profile import object_key

        keys = set()
        for oid in target_ids:
            obj = self.am.object_by_id(oid)
            if obj is not None:
                keys.add(object_key(obj))
        return keys

    def store_prob(self, fn, stmt, targets, unknown):
        if self.profile is None:
            return Estimate(
                P_ALIAS_NOPROFILE, self.name, {"profiled": False}
            )
        observed = self.profile.store_targets.get(stmt.sid, set())
        seen = bool(self._object_keys(targets) & observed)
        return Estimate(
            P_ALIAS_SEEN if seen else P_ALIAS_UNSEEN,
            self.name,
            {
                "profiled": True,
                "seen": seen,
                "executed": stmt.sid in self.profile.store_targets,
            },
        )

    def call_prob(self, fn, stmt, targets):
        if self.profile is None:
            return Estimate(
                P_ALIAS_NOPROFILE, self.name, {"profiled": False}
            )
        return Estimate(P_ALIAS_UNSEEN, self.name, {"profiled": True})


class StaticProbSource(ProbSource):
    """Serve the static estimator's probabilities (no profile needed)."""

    name = "static"

    def __init__(self, estimator: ProbAliasEstimator) -> None:
        self.estimator = estimator

    def store_prob(self, fn, stmt, targets, unknown):
        return self.estimator.estimate_store(fn, stmt, targets)

    def call_prob(self, fn, stmt, targets):
        return self.estimator.estimate_call(fn, stmt, targets)


class HybridProbSource(ProbSource):
    """Profile where the training run executed the store; static
    estimates everywhere else (instead of the flat ``P_ALIAS_UNSEEN``
    residual the profile-only source charges)."""

    name = "hybrid"

    def __init__(
        self, profiled: ProfileProbSource, static: StaticProbSource
    ) -> None:
        self.profiled = profiled
        self.static = static

    def store_prob(self, fn, stmt, targets, unknown):
        profile = self.profiled.profile
        if profile is not None and stmt.sid in profile.store_targets:
            est = self.profiled.store_prob(fn, stmt, targets, unknown)
        else:
            est = self.static.store_prob(fn, stmt, targets, unknown)
        est.features["hybrid"] = True
        return est

    def call_prob(self, fn, stmt, targets):
        # The profile records store targets only; calls always backfill.
        est = self.static.call_prob(fn, stmt, targets)
        est.features["hybrid"] = True
        return est


def make_prob_source(
    kind: str,
    module: Module,
    am: Optional[AliasManager],
    profile,
) -> Optional[ProbSource]:
    """Build the configured source for one compilation.

    ``kind`` is the ``--alias-prob`` value (``profile``/``static``/
    ``hybrid``).  Returns None for the profile default (the pressure
    model builds its own :class:`ProfileProbSource`, keeping the legacy
    path byte-identical)."""
    if kind == "profile" or am is None:
        return None
    static = StaticProbSource(ProbAliasEstimator(module, am))
    if kind == "static" or profile is None:
        return static
    if kind != "hybrid":
        raise ValueError(f"unknown alias-prob source: {kind!r}")
    return HybridProbSource(ProfileProbSource(profile, am), static)


# -- calibration: static vs profiled over the workloads matrix -------------


@dataclass
class ComparisonRow:
    """Static-vs-profiled comparison for one workload."""

    workload: str
    #: promoted candidates the pressure model scored
    candidates: int
    #: candidates where static and profiled gating agree (keep/demote)
    agreements: int
    profile_demotions: int
    static_demotions: int
    #: static store-pair estimates with profiled ground truth
    scored_pairs: int
    #: mean squared error of those estimates vs the 0/1 ground truth
    brier: float
    #: static-only compile+run produced the reference output
    output_match: bool
    cycles_profile: int
    cycles_static: int
    evictions_profile: int
    evictions_static: int
    recoveries_profile: int
    recoveries_static: int

    @property
    def agreement(self) -> float:
        if self.candidates == 0:
            return 1.0
        return self.agreements / self.candidates

    def problems(self) -> list[str]:
        out = []
        if self.agreement < AGREEMENT_THRESHOLD:
            out.append(
                f"{self.workload}: gate agreement {self.agreement:.2f} "
                f"below {AGREEMENT_THRESHOLD:.2f} "
                f"({self.agreements}/{self.candidates} candidates; "
                f"demotions static {self.static_demotions} vs profiled "
                f"{self.profile_demotions})"
            )
        if not self.output_match:
            out.append(
                f"{self.workload}: static-only output differs from the "
                f"reference interpreter"
            )
        return out


def compare_workload(name: str) -> ComparisonRow:
    """Static vs profiled speculation for one workload.

    Gate agreement and Brier score are computed on *one* module — the
    profile-guided compilation with the gate off — analyzed twice with
    the two sources, so the candidate sets line up pair for pair.  The
    end-to-end numbers come from separate full compilations (the
    profile-guided treatment vs the static-only mode, which never runs
    the profiler) whose outputs are differentially checked against the
    unoptimised interpreter."""
    # Local imports: the pipeline/workloads layers import repro.analysis.
    from repro.analysis.alatpressure import analyze_module_pressure
    from repro.pipeline import compile_source
    from repro.pipeline.options import PromotionGate
    from repro.speclint import facts_from_pre_stats
    from repro.speculation.profile import object_key
    from repro.workloads.programs import get_workload
    from repro.workloads.runner import (
        BASELINE,
        SPECULATIVE,
        STATIC_SPECULATIVE,
        run_benchmark,
    )

    workload = get_workload(name)
    options = SPECULATIVE()
    options.promotion_gate = PromotionGate.OFF
    output = compile_source(
        workload.source,
        options,
        train_args=list(workload.train_args),
        name=name,
    )
    am = output.alias_manager
    facts = facts_from_pre_stats(output.pre_stats, am)
    kwargs = dict(
        alat=output.options.machine.alat,
        am=am,
        targets_by_temp=facts.targets_by_temp,
    )
    mp_prof = analyze_module_pressure(
        output.module,
        profile=output.profile,
        prob_source=ProfileProbSource(output.profile, am),
        **kwargs,
    )
    mp_stat = analyze_module_pressure(
        output.module,
        prob_source=StaticProbSource(
            ProbAliasEstimator(output.module, am)
        ),
        **kwargs,
    )

    plan_prof = mp_prof.demotion_plan()
    plan_stat = mp_stat.demotion_plan()
    candidates = agreements = 0
    for fname, fp in mp_prof.functions.items():
        for t in fp.candidates:
            candidates += 1
            demote_p = t in plan_prof.get(fname, {})
            demote_s = t in plan_stat.get(fname, {})
            agreements += demote_p == demote_s

    # Brier score of the static store estimates against the profiled
    # 0/1 ground truth, over the pairs the training run can actually
    # ground (stores it executed).
    brier_sum = 0.0
    scored = 0
    for fp in mp_stat.functions.values():
        for pe in fp.pair_estimates:
            if pe.kind != "store":
                continue
            observed = output.profile.store_targets.get(pe.sid)
            if observed is None:
                continue
            targets = facts.targets_by_temp.get(pe.temp_id, frozenset())
            keys = set()
            for oid in targets:
                obj = am.object_by_id(oid)
                if obj is not None:
                    keys.add(object_key(obj))
            truth = 1.0 if keys & observed else 0.0
            brier_sum += (pe.prob - truth) ** 2
            scored += 1

    # End to end: profile-guided treatment vs static-only (HEURISTIC +
    # static gating, no profiling run).  run_benchmark raises when any
    # mode's output diverges from the reference interpreter.
    output_match = True
    try:
        bench = run_benchmark(name, {
            "baseline": BASELINE(),
            "speculative": SPECULATIVE(),
            "static": STATIC_SPECULATIVE(),
        })
    except AssertionError:
        output_match = False
        bench = run_benchmark(name)
        static_mode = bench.speculative  # placeholder numbers
    else:
        static_mode = bench.extras["static"]
    prof_mode = bench.speculative
    prof_alat = prof_mode.machine.alat_stats
    stat_alat = static_mode.machine.alat_stats
    return ComparisonRow(
        workload=name,
        candidates=candidates,
        agreements=agreements,
        profile_demotions=sum(len(v) for v in plan_prof.values()),
        static_demotions=sum(len(v) for v in plan_stat.values()),
        scored_pairs=scored,
        brier=brier_sum / scored if scored else 0.0,
        output_match=output_match,
        cycles_profile=prof_mode.counters.cpu_cycles,
        cycles_static=static_mode.counters.cpu_cycles,
        evictions_profile=prof_alat.capacity_evictions
        + prof_alat.store_collisions,
        evictions_static=stat_alat.capacity_evictions
        + stat_alat.store_collisions,
        recoveries_profile=prof_alat.check_misses,
        recoveries_static=stat_alat.check_misses,
    )


def run_comparison(
    names: Optional[list[str]] = None,
) -> tuple[list[ComparisonRow], list[str]]:
    """Compare static vs profiled speculation over the workloads matrix.

    Returns the per-workload rows and the acceptance problems (empty =
    every workload meets the agreement bar with matching outputs)."""
    from repro.workloads.programs import BENCHMARKS

    rows = [compare_workload(n) for n in (names or list(BENCHMARKS))]
    problems: list[str] = []
    for row in rows:
        problems.extend(row.problems())
    return rows, problems


def comparison_table(rows: list[ComparisonRow]) -> str:
    """Markdown static-vs-profiled table, one row per workload."""
    lines = [
        "| workload | agreement | Brier | demotions s/p | "
        "cycles static | cycles profile | evictions s/p | "
        "recoveries s/p |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in sorted(rows, key=lambda r: r.workload):
        lines.append(
            f"| {r.workload} | {r.agreement:.2f} | {r.brier:.3f} "
            f"| {r.static_demotions}/{r.profile_demotions} "
            f"| {r.cycles_static} | {r.cycles_profile} "
            f"| {r.evictions_static}/{r.evictions_profile} "
            f"| {r.recoveries_static}/{r.recoveries_profile} |"
        )
    return "\n".join(lines)


def _main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.probalias",
        description=(
            "Calibrate the static alias-probability estimator against "
            "profiled ground truth over the workloads matrix: per-pair "
            "Brier score, gate-decision agreement, and a static-only "
            "end-to-end run (no profiling) checked against the "
            "reference interpreter."
        ),
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        help="workload names (default: the full benchmark matrix)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any workload misses the agreement bar or "
        "diverges (CI gate)",
    )
    parser.add_argument(
        "--table",
        metavar="FILE",
        default=None,
        help="write the static-vs-profiled markdown table",
    )
    args = parser.parse_args(argv)

    rows, problems = run_comparison(args.workloads or None)

    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(comparison_table(rows) + "\n")
        print(f"table: wrote {args.table}")

    header = (
        f"{'workload':10s} {'agree':>6s} {'brier':>7s} {'cands':>6s} "
        f"{'demote s/p':>11s} {'cyc static':>11s} {'cyc prof':>10s} "
        f"{'evict s/p':>10s} {'recov s/p':>10s} {'out':>4s}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r.workload:10s} {r.agreement:6.2f} {r.brier:7.3f} "
            f"{r.candidates:6d} "
            f"{r.static_demotions:5d}/{r.profile_demotions:<5d} "
            f"{r.cycles_static:11d} {r.cycles_profile:10d} "
            f"{r.evictions_static:4d}/{r.evictions_profile:<5d} "
            f"{r.recoveries_static:4d}/{r.recoveries_profile:<5d} "
            f"{'ok' if r.output_match else 'DIFF':>4s}"
        )
    if problems:
        print()
        for p in problems:
            print(f"BELOW BAR: {p}")
        if args.strict:
            return 1
    else:
        print(f"\nall {len(rows)} workload(s) meet the agreement bar")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
