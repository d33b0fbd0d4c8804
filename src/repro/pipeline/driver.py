"""End-to-end compiler driver.

Pipeline per compilation::

    MiniC source
      └─ frontend (parse → sema → lower)          repro.minic
      └─ [profile run on train input]             repro.speculation.profile
      └─ O1: unaliased-scalar promotion           repro.pre.scalarrepl
      └─ O2+: alias analysis                      repro.alias
      └─ O2+: PRE register promotion              repro.pre
            O2  classical
            O3  + software-check promotion  (the paper's -O3 baseline)
            O3 + SpecMode.PROFILE/HEURISTIC: ALAT speculation (the paper)
      └─ code generation                           repro.target
      └─ simulation                                repro.machine

The profile must be collected on the *untransformed* module so its
statement/expression ids line up with what the promoter consults —
exactly like instrumenting the unoptimised binary, as the authors did.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.alias.manager import AliasManager
from repro.errors import ConfigError, SourceError, SpecLintError
from repro.ir.interp import InterpResult, run_module
from repro.ir.module import Module
from repro.ir.stmt import Stmt, Store
from repro.ir.verify import verify_module
from repro.machine.cpu import MachineResult, Simulator
from repro.minic.lower import compile_to_ir
from repro.obs.trace import TraceContext
from repro.pipeline.options import (
    AliasProbSource,
    CompilerOptions,
    OptLevel,
    PromotionGate,
    SpecLintMode,
    SpecMode,
)
from repro.pre.driver import FunctionPREStats, run_load_pre
from repro.pre.scalarrepl import promote_module_scalars
from repro.pre.ssapre import PREOptions
from repro.speculation.heuristics import make_heuristic_decider
from repro.speculation.profile import (
    AliasProfile,
    collect_alias_profile,
    make_profile_decider,
)
from repro.target.codegen import generate_machine_code
from repro.target.isa import MProgram

Value = Union[int, float]


def _all_stores_decider(stmt: Stmt, obj):
    """The software scheme needs no prediction: every indirect-store
    may-def is 'speculated' with the compare-and-reload repair, which
    makes the transformation unconditionally correct [30]."""
    return "soft" if isinstance(stmt, Store) else None


def _traced_decider(obs: TraceContext, fn_name: str, decider):
    """Wrap a speculation decider so every verdict becomes one
    ``spec.decision`` trace event (only installed when tracing is on)."""

    def wrapped(stmt, obj):
        verdict = decider(stmt, obj)
        obs.event(
            "spec.decision",
            function=fn_name,
            sid=stmt.sid,
            stmt=str(stmt),
            verdict=verdict,
        )
        return verdict

    return wrapped


def _emit_lowered_events(obs: TraceContext, module: Module) -> int:
    """One ``spec.lowered`` event per speculative annotation that
    survived to the final IR; returns the count."""
    from repro.ir.stmt import Assign, SpecFlag

    n = 0
    for fn in module.iter_functions():
        for stmt in fn.iter_stmts():
            if isinstance(stmt, Assign) and stmt.spec_flag is not SpecFlag.NONE:
                n += 1
                obs.event(
                    "spec.lowered",
                    function=fn.name,
                    sid=stmt.sid,
                    flag=stmt.spec_flag.value,
                    target=str(stmt.target),
                    recovery_stmts=len(stmt.recovery or ()),
                )
    return n


def _run_pressure_gate(
    output: "CompileOutput",
    opts: CompilerOptions,
    obs: TraceContext,
    info: dict,
) -> None:
    """The ``pressure`` phase: static ALAT pressure/profit analysis and
    (under ``PromotionGate.ON``) demotion of unprofitable candidates.

    Runs after PRE + completer selection so every surviving annotation
    is final, and before cleanup so demoted reloads get tidied like any
    other code.  Register numbers (and so predicted set indices) are the
    same deterministic assignment codegen will use."""
    from repro.analysis.alatpressure import analyze_module_pressure
    from repro.analysis.probalias import make_prob_source
    from repro.speclint import facts_from_pre_stats
    from repro.speclint.diagnostics import Diagnostic, Severity

    facts = facts_from_pre_stats(output.pre_stats, output.alias_manager)
    prob_source = make_prob_source(
        opts.alias_prob.value,
        output.module,
        output.alias_manager,
        output.profile,
    )
    pressure = analyze_module_pressure(
        output.module,
        opts.machine.alat,
        am=output.alias_manager,
        profile=output.profile,
        targets_by_temp=facts.targets_by_temp,
        prob_source=prob_source,
    )
    output.pressure = pressure
    plan = pressure.demotion_plan()
    if obs.enabled:
        for fp in pressure.functions.values():
            for pe in fp.pair_estimates:
                obs.event(
                    "probalias.estimate",
                    function=pe.function,
                    sid=pe.sid,
                    temp=pe.temp,
                    kind=pe.kind,
                    prob=round(pe.prob, 4),
                    source=pe.source,
                    features=pe.features,
                )
        for fn_name, fp in pressure.functions.items():
            demoted = plan.get(fn_name, {})
            for rep in fp.candidates.values():
                obs.event(
                    "pressure.decision",
                    function=fn_name,
                    temp=rep.name,
                    register=rep.register,
                    set_index=rep.set_index,
                    checks=rep.n_checks,
                    p_alias=round(rep.p_alias, 4),
                    p_conflict=round(rep.p_conflict, 4),
                    profit=round(rep.profit, 2),
                    verdict=(
                        "keep"
                        if rep.temp_id not in demoted
                        else "demote"
                        if opts.promotion_gate is PromotionGate.ON
                        else "flag"
                    ),
                )
    info["candidates"] = sum(1 for _ in pressure.all_candidates())
    info["predicted_peak"] = pressure.predicted_peak

    if opts.promotion_gate is PromotionGate.ON:
        from repro.pre.gate import apply_promotion_gate

        stats = apply_promotion_gate(output.module, plan)
        info["demoted"] = stats.total_demoted
    else:
        for fn_name, reasons in plan.items():
            fp = pressure.functions[fn_name]
            for temp_id, reason in sorted(reasons.items()):
                rep = fp.candidates[temp_id]
                output.diagnostics.append(
                    Diagnostic(
                        rule="PRESSURE",
                        severity=Severity.WARN,
                        message=(
                            f"speculative promotion of {rep.name} is "
                            f"predicted unprofitable ({reason}); "
                            f"--promotion-gate on would demote it"
                        ),
                        function=fn_name,
                    )
                )
        info["flagged"] = sum(len(r) for r in plan.values())


@dataclass
class CompileOutput:
    """Everything one compilation produced."""

    module: Module
    program: MProgram
    options: CompilerOptions
    alias_manager: Optional[AliasManager] = None
    profile: Optional[AliasProfile] = None
    pre_stats: dict[str, FunctionPREStats] = field(default_factory=dict)
    #: speculation-safety findings from the ``speclint`` phase (empty
    #: when the analyzer is off or the compilation is clean), plus one
    #: ``FALLBACK`` diagnostic per graceful-degradation retry taken.
    diagnostics: list = field(default_factory=list)
    #: True when an internal error forced a conservative recompilation;
    #: ``options`` then reflects the configuration that actually built
    #: the program, not the one requested.
    fallback: bool = False
    #: static ALAT pressure analysis from the ``pressure`` phase (None
    #: when the gate is off or the compilation does not speculate)
    pressure: Optional[object] = None
    #: the trace context the compilation ran under (a fresh disabled one
    #: when the caller passed none) — ``run()`` keeps using it.
    obs: TraceContext = field(default_factory=TraceContext)

    def run(
        self,
        args: Optional[list[Value]] = None,
        profile: bool = False,
        injector=None,
        host_profiler=None,
    ) -> MachineResult:
        """Simulate the compiled program.  With ``profile`` set, the
        result carries a :class:`repro.obs.RunProfile` attributing
        retired cycles and ALAT events to source locations.
        ``injector`` threads a :class:`repro.chaos.FaultInjector` into
        the machine (one injector per run — it owns a seeded RNG).
        ``host_profiler`` threads a
        :class:`repro.obs.telemetry.HostProfiler` into the simulator's
        dispatch loop for host wall-clock attribution."""
        with self.obs.phase("simulate"):
            if host_profiler is None:
                return Simulator(
                    self.program, self.options.machine, obs=self.obs,
                    profile=profile, injector=injector,
                ).run(args)
            hp = host_profiler
            t0 = hp.now()
            base_ns = hp.total_ns
            result = Simulator(
                self.program, self.options.machine, obs=self.obs,
                profile=profile, injector=injector, host_profiler=hp,
            ).run(args)
            # Whatever the simulator's own buckets did not claim inside
            # this bracket (method-call glue, result construction) lands
            # in ``sim.other`` so the breakdown tiles the simulate phase.
            residual = (hp.now() - t0) - (hp.total_ns - base_ns)
            if residual > 0:
                hp.add("sim.other", residual)
            return result

    def interpret(
        self,
        args: Optional[list[Value]] = None,
        max_steps: int = 50_000_000,
        host_profiler=None,
    ) -> InterpResult:
        """Run the (optimised) IR under the interpreter (oracle)."""
        return run_module(
            self.module, args, max_steps=max_steps,
            host_profiler=host_profiler,
        )

    @property
    def total_reloads(self) -> int:
        return sum(s.reloads for s in self.pre_stats.values())

    @property
    def total_checks(self) -> int:
        return sum(s.checks for s in self.pre_stats.values())

    def reloads_by_kind(self) -> dict[str, int]:
        out = {"direct": 0, "indirect": 0}
        for stats in self.pre_stats.values():
            for kind, n in stats.reloads_by_kind().items():
                out[kind] += n
        return out


def compile_source(
    source: str,
    options: Optional[CompilerOptions] = None,
    train_args: Optional[list[Value]] = None,
    profile: Optional[AliasProfile] = None,
    name: str = "program",
    obs: Optional[TraceContext] = None,
    max_steps: Optional[int] = None,
) -> CompileOutput:
    """Compile MiniC source under the given options.

    ``train_args`` drive the profiling run for ``SpecMode.PROFILE`` /
    ``SOFTWARE`` when no ready-made ``profile`` is supplied;
    ``max_steps`` bounds that interpreter run (fuel), so a runaway
    training input raises :class:`repro.errors.InterpTimeout` instead
    of hanging the compilation.

    ``obs`` threads a :class:`repro.obs.TraceContext` through every
    phase (timers, speculation decisions, codegen stats); omitted, a
    fresh disabled context is used so phase wall times still accumulate.
    """
    opts = options or CompilerOptions()
    obs = obs if obs is not None else TraceContext()

    with obs.phase("frontend") as info:
        module = compile_to_ir(source, name)
        info["functions"] = sum(1 for _ in module.iter_functions())

    needs_profile = opts.spec_mode in (SpecMode.PROFILE, SpecMode.SOFTWARE)
    if needs_profile and profile is None:
        with obs.phase("profile") as info:
            profile, _ = collect_alias_profile(
                module, train_args,
                **({"max_steps": max_steps} if max_steps is not None else {}),
            )
            info["train_args"] = list(train_args or [])

    attempts = [opts] + (_fallback_ladder(opts) if opts.fallback else [])
    fallback_diags: list = []
    for i, attempt in enumerate(attempts):
        # Optimisation phases mutate the module in place, so every retry
        # re-lowers from source.
        attempt_module = module if i == 0 else compile_to_ir(source, name)
        try:
            output = _compile_module(
                attempt_module, attempt, profile, name, obs
            )
        except (SourceError, SpecLintError, ConfigError):
            # User-facing verdicts, not internal crashes: a source error
            # or bad configuration will not compile any better at -O0,
            # and papering over a speclint finding would defeat it.
            raise
        except Exception as exc:
            if i + 1 >= len(attempts):
                raise
            retry = attempts[i + 1]
            obs.event(
                "pipeline.fallback",
                error=f"{type(exc).__name__}: {exc}",
                failed=attempt.describe(),
                retry=retry.describe(),
            )
            from repro.speclint.diagnostics import Diagnostic, Severity

            fallback_diags.append(
                Diagnostic(
                    rule="FALLBACK",
                    severity=Severity.WARN,
                    message=(
                        f"internal error under {attempt.describe()} "
                        f"({type(exc).__name__}: {exc}); retried with "
                        f"{retry.describe()}"
                    ),
                    function="<pipeline>",
                )
            )
            continue
        output.fallback = i > 0
        if fallback_diags:
            output.diagnostics = fallback_diags + output.diagnostics
        return output
    raise AssertionError("unreachable: attempts is never empty")


def _fallback_ladder(opts: CompilerOptions) -> list[CompilerOptions]:
    """Conservative retry configurations, in order: drop speculation
    first, then step the optimisation level down to -O1 and -O0.  Every
    rung disables further fallback bookkeeping knobs that could
    themselves fail the same way (speculation, extra rounds)."""
    ladder = []
    base = dataclasses.replace(
        opts, spec_mode=SpecMode.NONE, rounds=1, fallback=False
    )
    if opts.spec_mode is not SpecMode.NONE or opts.rounds != 1:
        ladder.append(base)
    for level in (OptLevel.O1, OptLevel.O0):
        if opts.opt_level > level:
            ladder.append(dataclasses.replace(base, opt_level=level))
    return ladder


def _compile_module(
    module: Module,
    opts: CompilerOptions,
    profile: Optional[AliasProfile],
    name: str,
    obs: TraceContext,
) -> CompileOutput:
    """Run every post-frontend phase on ``module`` (mutating it)."""
    output = CompileOutput(module, MProgram(name), opts, profile=profile, obs=obs)

    if opts.opt_level >= OptLevel.O1:
        with obs.phase("scalarrepl"):
            promote_module_scalars(module)

    if opts.opt_level >= OptLevel.O2:
        with obs.phase("alias"):
            am = AliasManager(module, opts.alias_analysis, opts.use_type_filter)
        output.alias_manager = am
        decider = None
        pre_opts = PREOptions(
            speculative=False,
            loop_speculation=opts.loop_speculation,
            alat_partial=opts.alat_partial,
        )
        if opts.opt_level >= OptLevel.O3:
            if opts.spec_mode is SpecMode.PROFILE:
                assert profile is not None
                decider = make_profile_decider(profile)
                pre_opts = PREOptions(
                    speculative=True,
                    loop_speculation=opts.loop_speculation,
                    alat_partial=opts.alat_partial,
                    softcheck=False,
                )
            elif opts.spec_mode is SpecMode.HEURISTIC:
                estimator = None
                if opts.alias_prob is not AliasProbSource.PROFILE:
                    # Static/hybrid gating: the heuristic decider also
                    # consults the per-pair probability estimates
                    # instead of the bare rule set.
                    from repro.analysis.probalias import ProbAliasEstimator

                    estimator = ProbAliasEstimator(module, am)
                decider = make_heuristic_decider(am, estimator=estimator)
                pre_opts = PREOptions(
                    speculative=True,
                    loop_speculation=opts.loop_speculation,
                    alat_partial=opts.alat_partial,
                    softcheck=False,
                )
            elif opts.spec_mode is SpecMode.SOFTWARE:
                assert profile is not None
                decider = make_profile_decider(profile)
                pre_opts = PREOptions(
                    speculative=True,
                    loop_speculation=opts.loop_speculation,
                    alat_partial=False,
                    softcheck=True,
                    indirect_speculation=False,  # scalars only [30]
                )
            else:
                # -O3 baseline: PRE with control speculation (ld.s-style
                # loop hoisting, which ORC's conventional PRE performs)
                # plus Nicolau software checks for the data speculation —
                # on scalar variables only, as in ORC (section 5 notes
                # the software scheme compares explicit addresses, which
                # is only practical for named scalars).
                decider = _all_stores_decider
                pre_opts = PREOptions(
                    speculative=True,
                    loop_speculation=opts.loop_speculation,
                    alat_partial=False,
                    softcheck=True,
                    indirect_speculation=False,
                )
        with obs.phase("pre") as info:
            for fn in module.iter_functions():
                fn_decider = decider
                if decider is not None and obs.enabled:
                    fn_decider = _traced_decider(obs, fn.name, decider)
                with obs.span("pre.fn", function=fn.name):
                    stats = run_load_pre(
                        fn, module, am, pre_opts, spec_decider=fn_decider,
                        rounds=opts.rounds, obs=obs,
                    )
                output.pre_stats[fn.name] = stats
                obs.event(
                    "pre.function",
                    function=fn.name,
                    saves=stats.saves,
                    reloads=stats.reloads,
                    checks=stats.checks,
                    inserts=stats.inserts,
                    speculative_inserts=stats.speculative_inserts,
                    invalidates=stats.invalidates,
                    left_saves=stats.left_saves,
                )
            if not pre_opts.softcheck:
                # Figure 1(c): the last check of a temp clears its entry.
                from repro.pre.completers import select_module_completers

                select_module_completers(module)
            if obs.enabled:
                info["lowered"] = _emit_lowered_events(obs, module)

        if (
            pre_opts.speculative
            and not pre_opts.softcheck
            and opts.promotion_gate is not PromotionGate.OFF
        ):
            with obs.phase("pressure") as info:
                _run_pressure_gate(output, opts, obs, info)

    if opts.opt_level >= OptLevel.O1 and opts.cleanup:
        from repro.opt import cleanup_module

        with obs.phase("cleanup"):
            cleanup_module(module)

    with obs.phase("verify"):
        verify_module(module)
    with obs.phase("codegen"):
        output.program = generate_machine_code(module, obs=obs)

    if opts.speclint is not SpecLintMode.OFF:
        from repro.speclint import run_speclint

        with obs.phase("speclint") as info:
            report = run_speclint(output, opts.speclint, obs=obs)
            info["errors"] = len(report.errors)
            info["warnings"] = len(report.warnings)
    return output


def compile_and_run(
    source: str,
    args: Optional[list[Value]] = None,
    options: Optional[CompilerOptions] = None,
    train_args: Optional[list[Value]] = None,
) -> MachineResult:
    """Compile and simulate in one call (examples/tests convenience)."""
    output = compile_source(source, options, train_args=train_args)
    return output.run(args)


def run_program(
    source: str,
    args: Optional[list[Value]] = None,
    max_steps: int = 50_000_000,
    host_profiler=None,
) -> InterpResult:
    """Interpret a MiniC program directly (no optimisation) — the
    reference oracle for everything else.  ``max_steps`` is the fuel
    budget; exhausting it raises :class:`repro.errors.InterpTimeout`."""
    return run_module(
        compile_to_ir(source), args, max_steps=max_steps,
        host_profiler=host_profiler,
    )
