"""The chaos harness: fault injection, differential campaign, reduction,
graceful pipeline degradation, and the tolerant workload matrix."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import (
    ChaosSelfTestError,
    FaultInjector,
    FaultPlan,
    GeneratedProgram,
    ReductionError,
    default_fault_plans,
    generate_program,
    reduce_lines,
    reduce_source,
    run_campaign,
    run_self_test,
)
from repro.chaos.campaign import SELF_TEST_PROGRAM, default_modes
from repro.errors import (
    ConfigError,
    InterpLimitExceeded,
    InterpTimeout,
    ParseError,
    ReproError,
    SpecLintError,
)
from repro.machine.alat import ALATConfig
from repro.machine.cache import CacheConfig, CacheLevelConfig
from repro.machine.cpu import MachineConfig, Simulator
from repro.obs.sinks import MemorySink
from repro.obs.trace import TraceContext
from repro.pipeline import (
    CompilerOptions,
    OptLevel,
    SpecMode,
    compile_source,
    run_program,
)

AGGRESSIVE = FaultPlan(
    name="aggressive",
    seed=7,
    alat_entries=2,
    alat_associativity=2,
    partial_bits=4,
    drop_alloc_rate=0.3,
    spurious_invalidate_rate=0.5,
    flush_rate=0.05,
)


def _compile_canonical():
    return compile_source(
        SELF_TEST_PROGRAM.source,
        CompilerOptions(
            opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, fallback=False
        ),
        train_args=list(SELF_TEST_PROGRAM.train_args),
    )


def _simulate(output, args, plan):
    sink = MemorySink()
    injector = FaultInjector(plan) if plan is not None else None
    sim = Simulator(
        output.program, output.options.machine,
        obs=TraceContext(sink), injector=injector,
    )
    return sim.run(list(args)), injector, sink


# ---------------------------------------------------------------------------
# ALATConfig validation
# ---------------------------------------------------------------------------


def test_alat_config_rejects_non_multiple_geometry():
    with pytest.raises(ConfigError, match="multiple"):
        ALATConfig(entries=6, associativity=4)


@pytest.mark.parametrize("entries,assoc", [(0, 2), (-4, 2), (4, 0), (4, -1)])
def test_alat_config_rejects_non_positive_geometry(entries, assoc):
    with pytest.raises(ConfigError, match="positive"):
        ALATConfig(entries=entries, associativity=assoc)


@pytest.mark.parametrize("bits", [0, -3, 65, 100])
def test_alat_config_rejects_bad_partial_bits(bits):
    with pytest.raises(ConfigError, match="partial_bits"):
        ALATConfig(partial_bits=bits)


def test_alat_config_error_is_repro_error():
    with pytest.raises(ReproError):
        ALATConfig(entries=3, associativity=2)


def test_alat_config_accepts_valid_geometry():
    cfg = ALATConfig(entries=64, associativity=4, partial_bits=64)
    assert cfg.sets == 16


# ---------------------------------------------------------------------------
# MachineConfig / CacheConfig validation (same contract as ALATConfig)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("issue_width", 0),
        ("issue_width", -1),
        ("branch_penalty", -1),
        ("recovery_penalty", -5),
        ("max_instructions", 0),
    ],
)
def test_machine_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        MachineConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [("line_words", 0), ("line_words", -8), ("memory_latency", -1),
     ("fp_min_latency", -9)],
)
def test_cache_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        CacheConfig(**{field: value})


@pytest.mark.parametrize(
    "lines,assoc,latency,match",
    [(0, 4, 2, "positive"), (-8, 4, 2, "positive"), (256, 0, 2, "positive"),
     (256, 4, -1, "hit_latency")],
)
def test_cache_level_config_rejects_bad_values(lines, assoc, latency, match):
    with pytest.raises(ConfigError, match=match):
        CacheLevelConfig(lines=lines, associativity=assoc, hit_latency=latency)


def test_machine_config_accepts_zero_penalties():
    cfg = MachineConfig(branch_penalty=0, recovery_penalty=0,
                        max_instructions=1)
    assert cfg.issue_width == 3


# ---------------------------------------------------------------------------
# fault injector: determinism + safety + accounting
# ---------------------------------------------------------------------------


def test_injector_is_deterministic_per_seed():
    out = _compile_canonical()
    runs = [_simulate(out, SELF_TEST_PROGRAM.ref_args, AGGRESSIVE)
            for _ in range(2)]
    (r1, i1, _), (r2, i2, _) = runs
    assert i1.stats.counts == i2.stats.counts
    assert i1.stats.total > 0
    assert r1.output == r2.output
    assert r1.counters.check_failures == r2.counters.check_failures


def test_faults_never_change_output():
    out = _compile_canonical()
    reference = run_program(
        SELF_TEST_PROGRAM.source, list(SELF_TEST_PROGRAM.ref_args)
    )
    for plan in [AGGRESSIVE] + default_fault_plans(seed=3):
        result, injector, _ = _simulate(
            out, SELF_TEST_PROGRAM.ref_args, plan
        )
        assert result.output == reference.output, plan.describe()
        assert result.exit_value == reference.exit_value


@pytest.mark.parametrize(
    "plan,args,expect_kinds",
    [
        # n=80 keeps p = &b, so ALAT entries survive to be victims
        (
            FaultPlan(name="inval-only", seed=5,
                      spurious_invalidate_rate=0.5),
            (80,),
            {"spurious_invalidate"},
        ),
        (
            FaultPlan(name="flush-only", seed=5, flush_rate=0.02),
            (80,),
            {"flush"},
        ),
        (
            AGGRESSIVE,
            SELF_TEST_PROGRAM.ref_args,
            {"drop_alloc", "clamp_entries", "narrow_partial_bits"},
        ),
    ],
)
def test_every_injected_fault_is_visible_in_stats_and_trace(
    plan, args, expect_kinds
):
    out = _compile_canonical()
    result, injector, sink = _simulate(out, args, plan)
    counts = injector.stats.counts
    for kind in expect_kinds:
        assert counts.get(kind, 0) > 0, (kind, counts)
    alat = result.alat_stats
    assert alat.chaos_dropped_allocations == counts.get("drop_alloc", 0)
    assert alat.chaos_spurious_invalidations == counts.get(
        "spurious_invalidate", 0
    )
    assert alat.chaos_flushes == counts.get("flush", 0)
    traced = sink.of_type("chaos.fault")
    assert len(traced) == injector.stats.total
    assert {e["kind"] for e in traced} == {k for k in counts}


def test_injector_clamps_geometry():
    out = _compile_canonical()
    sim = Simulator(
        out.program, out.options.machine, injector=FaultInjector(AGGRESSIVE)
    )
    assert sim.alat.config.entries == 2
    assert sim.alat.config.partial_bits == 4
    # the machine config object itself must not be mutated
    assert out.options.machine.alat.entries != 2 or \
        out.options.machine.alat is not sim.alat.config


def test_a_plan_that_never_flushes_adds_no_per_instruction_hook():
    """At ``flush_rate == 0`` the injector's context switch can never
    fire, so the probed loop calls nothing per instruction; the run
    draws the same numbers and injects the same faults."""
    out = _compile_canonical()
    no_flush = dataclasses.replace(AGGRESSIVE, flush_rate=0.0)
    sim = Simulator(
        out.program, out.options.machine, injector=FaultInjector(no_flush)
    )
    assert sim._probe.step is None
    result = sim.run(list(SELF_TEST_PROGRAM.ref_args))
    assert result.alat_stats.chaos_dropped_allocations > 0
    assert result.alat_stats.chaos_flushes == 0


def test_a_flushing_plan_keeps_the_per_instruction_hook():
    out = _compile_canonical()
    sim = Simulator(
        out.program, out.options.machine, injector=FaultInjector(AGGRESSIVE)
    )
    assert sim._probe.step is not None
    result = sim.run(list(SELF_TEST_PROGRAM.ref_args))
    assert result.alat_stats.chaos_flushes > 0


def test_chaos_stats_zero_without_injector():
    out = _compile_canonical()
    result = out.run(list(SELF_TEST_PROGRAM.ref_args))
    alat = result.alat_stats
    assert alat.chaos_dropped_allocations == 0
    assert alat.chaos_spurious_invalidations == 0
    assert alat.chaos_flushes == 0


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_program(1234, index=5)
    b = generate_program(1234, index=5)
    assert a == b
    c = generate_program(1235, index=5)
    assert c.source != a.source or c.ref_args != a.ref_args


def test_generated_programs_parse_and_run():
    for seed in range(30):
        program = generate_program(seed)
        result = run_program(
            program.source, list(program.ref_args), max_steps=2_000_000
        )
        assert isinstance(result.exit_value, int)


# ---------------------------------------------------------------------------
# reducer
# ---------------------------------------------------------------------------


def test_reduce_lines_is_minimal():
    lines = [f"line{i}" for i in range(30)]

    def interesting(cand):
        return "line7" in cand and "line23" in cand

    result = reduce_lines(lines, interesting)
    assert sorted(result) == ["line23", "line7"]


def test_reduce_lines_rejects_uninteresting_input():
    with pytest.raises(ReductionError):
        reduce_lines(["a", "b"], lambda cand: False)


def test_reduce_source_drops_blank_lines_and_predicate_exceptions():
    source = "a\n\nb\n\nneedle\n"

    def interesting(src):
        if "b" in src and "needle" not in src:
            raise ValueError("predicate crash counts as uninteresting")
        return "needle" in src

    assert reduce_source(source, interesting) == "needle\n"


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def test_campaign_smoke_no_divergences(tmp_path):
    report = run_campaign(
        seed=11, runs=4, failures_dir=str(tmp_path / "failures")
    )
    assert report.ok, report.summary()
    assert report.programs == 4
    # 3 modes x (1 no-fault + 3 plans) per program, minus skips
    assert report.runs + report.skipped * 12 == 4 * 12
    assert sum(report.faults_injected.values()) > 0
    assert "no divergences" in report.summary()


def test_campaign_skips_a_program_whose_oracle_overflows_the_host_stack():
    """Like fuel exhaustion, guest recursion too deep for the host stack
    leaves no reference behaviour: the program is skipped, not failed."""
    deep = GeneratedProgram(
        "deep",
        "int down(int n) {\n"
        "    if (n == 0) { return 0; }\n"
        "    return down(n - 1) + 1;\n"
        "}\n"
        "int main(int n) { return down(n); }\n",
        ref_args=(2000,),
        train_args=(3,),
    )
    report = run_campaign(seed=0, programs=[deep], failures_dir=None)
    assert report.ok, report.summary()
    assert (report.programs, report.skipped, report.runs) == (1, 1, 0)


def test_campaign_report_round_trips_as_json():
    report = run_campaign(seed=2, runs=2, failures_dir=None)
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["ok"] is True
    assert payload["programs"] == 2


def test_self_test_catches_and_minimises_planted_bug(tmp_path):
    report = run_self_test(
        seed=0, runs=1, failures_dir=str(tmp_path / "failures")
    )
    assert not report.ok
    divergences = [f for f in report.failures if f.kind == "divergence"]
    assert divergences
    reduced = [f for f in divergences if f.reduced_source]
    assert reduced
    smallest = min(len(f.reduced_source.splitlines()) for f in reduced)
    assert smallest <= 15
    # reduced reproducer is itself a valid, divergent program: it still
    # parses and the artifacts landed on disk
    artifacts = [p for f in report.failures for p in f.artifacts]
    assert any(p.endswith(".min.minic") for p in artifacts)


def test_self_test_restores_the_rewrite_flag():
    from repro.pre import ssapre

    run_self_test(seed=0, runs=1, failures_dir=None)
    assert ssapre.CHAOS_DISABLE_CHECK_REWRITE is False


PLANTED_CRASH_SOURCE = """\
int needle;
int other;
int arr[4];
int helper(int x) {
    return x + 1;
}
int main(int n) {
    int i;
    i = 0;
    while (i < n) {
        arr[i] = helper(i);
        i = i + 1;
    }
    other = arr[1];
    needle = needle + 3;
    print(other);
    return needle;
}
"""


def test_compile_crash_is_minimised_against_the_same_crash(monkeypatch):
    """A planted speclint crash is reduced to a program that the oracle
    still runs and that fails to compile the same way: the same
    exception type with the same set of error rule ids."""
    import repro.chaos.campaign as campaign
    from repro.speclint.diagnostics import Diagnostic, LintReport, Severity

    markers = (("SPEC002", "needle = needle + 3;"), ("SPEC005", "other = "))

    def planted(source, options=None, **kwargs):
        rules = [rule for rule, marker in markers if marker in source]
        if rules:
            raise SpecLintError(LintReport([
                Diagnostic(rule, Severity.ERROR, "planted", "main")
                for rule in rules
            ]))
        return compile_source(source, options, **kwargs)

    monkeypatch.setattr(campaign, "compile_source", planted)
    mode = default_modes()[1]
    program = GeneratedProgram("planted", PLANTED_CRASH_SOURCE, (3,), (2,))
    (failure,) = campaign.check_program(
        program, [mode], [None], campaign.CampaignReport(seed=0)
    )
    assert failure.kind == "crash"
    campaign.minimize_failure(failure, [mode])
    reduced = failure.reduced_source
    assert reduced is not None
    assert len(reduced.splitlines()) < len(PLANTED_CRASH_SOURCE.splitlines())
    assert all(marker in reduced for _, marker in markers)
    assert "print(other);" not in reduced and "return x + 1;" not in reduced
    run_program(reduced, [3])  # the oracle still runs it
    crash = (SpecLintError, frozenset({"SPEC002", "SPEC005"}))
    assert campaign.compile_crash(reduced, mode, (2,)) == crash
    predicate = campaign.crash_predicate(mode, (3,), (2,), crash)
    assert predicate(reduced)
    # one rule id fewer is another crash; no crash at all is none
    fewer = "".join(
        line for line in reduced.splitlines(keepends=True)
        if "other = " not in line
    )
    assert campaign.compile_crash(fewer, mode, (2,)) == (
        SpecLintError, frozenset({"SPEC002"})
    )
    assert not predicate(fewer)
    assert campaign.compile_crash("int main() { return 0; }", mode, ()) is None


#: ``python -m repro.chaos --seed 1 --runs 100 --minimize`` reduced two
#: generated programs to these; both failed to compile under cascaded
#: promotion with a speclint SPEC002 false positive (``(train, ref)``
#: args): SSAPRE forwards a stored value into every temp caching the
#: location, ``t1 = e; t2 = e; *(q) = e``, and the lint took the store
#: as a sync only for ``t2``.
SEED1_REDUCED_CRASHES = {
    "alias-64": ((82,), (18,), """\
int g0; int g1; int g2; int g3;
int arr[8];
int *p0;
int helper(int x) {
}
int main(int n) {
    p0 = &g0;
    int s = 0;
    for (int i = 0; i < n % 9; i = i + 1) {
            s = s + helper(((i + g1) * (*p0 * i)));
            *p0 = arr[i % 8];
            if (s > 4200) { break; }
            s = s + (arr[i % 8] * *p0);
    }
}
"""),
    "alias-87": ((100,), (14,), """\
int g0; int g1; int g2; int g3;
int *p0;
int *p1;
int calls;
int helper(int x) {
}
int main(int n) {
    p0 = &g0;
    p1 = &g0;
    int *heap = alloc(int, 8);
    p1 = &heap[0];
    int s = 0;
    for (int i = 0; i < n % 8; i = i + 1) {
            *p0 = ((g1 + g1) * (g0 * g1));
            s = s + *p1;
            *p1 = g3;
    }
    print(*p1); print(calls);
}
"""),
}


@pytest.mark.parametrize("name", sorted(SEED1_REDUCED_CRASHES))
def test_seed1_reduced_crash_compiles_and_matches_oracle(name):
    train, ref, source = SEED1_REDUCED_CRASHES[name]
    oracle = run_program(source, list(ref))
    options = CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, rounds=2,
        fallback=False,
    )
    result = compile_source(source, options, train_args=list(train)).run(
        list(ref)
    )
    assert result.output == oracle.output
    assert result.exit_value == oracle.exit_value


# ---------------------------------------------------------------------------
# graceful pipeline degradation
# ---------------------------------------------------------------------------

CANONICAL = SELF_TEST_PROGRAM.source


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic internal compiler error")


def test_fallback_recovers_and_reports(monkeypatch):
    import repro.pipeline.driver as driver

    monkeypatch.setattr(driver, "run_load_pre", _boom)
    sink = MemorySink()
    out = compile_source(
        CANONICAL,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[10],
        obs=TraceContext(sink),
    )
    assert out.fallback
    assert out.options.opt_level == OptLevel.O1
    events = sink.of_type("pipeline.fallback")
    assert len(events) == 2  # -O3/profile failed, then -O3/none failed
    assert "RuntimeError" in events[0]["error"]
    assert [d for d in out.diagnostics if d.rule == "FALLBACK"]
    # and the degraded program is still correct
    reference = run_program(CANONICAL, [150])
    result = out.run([150])
    assert result.output == reference.output
    assert result.exit_value == reference.exit_value


def test_fallback_disabled_propagates_internal_error(monkeypatch):
    import repro.pipeline.driver as driver

    monkeypatch.setattr(driver, "run_load_pre", _boom)
    with pytest.raises(RuntimeError, match="synthetic"):
        compile_source(
            CANONICAL,
            CompilerOptions(
                opt_level=OptLevel.O3,
                spec_mode=SpecMode.PROFILE,
                fallback=False,
            ),
            train_args=[10],
        )


def test_fallback_never_masks_source_errors():
    with pytest.raises(ParseError):
        compile_source("int main( {", CompilerOptions(fallback=True))


def test_no_fallback_on_clean_compilations():
    out = compile_source(
        CANONICAL,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[10],
    )
    assert not out.fallback
    assert not [d for d in out.diagnostics if d.rule == "FALLBACK"]


# ---------------------------------------------------------------------------
# interpreter fuel
# ---------------------------------------------------------------------------

SPIN = """
int main(int n) {
    int i = 0;
    while (i < 10000000) { i = i + 1; }
    return i;
}
"""


def test_interp_fuel_budget_raises_timeout():
    with pytest.raises(InterpTimeout):
        run_program(SPIN, [0], max_steps=5_000)


def test_interp_timeout_is_backwards_compatible():
    assert issubclass(InterpLimitExceeded, InterpTimeout)
    with pytest.raises(InterpLimitExceeded):
        run_program(SPIN, [0], max_steps=5_000)


# ---------------------------------------------------------------------------
# tolerant workload matrix
# ---------------------------------------------------------------------------


def test_workload_matrix_survives_one_failure(monkeypatch):
    import repro.workloads.runner as runner
    from repro.service.matrix import run_matrix

    real = runner.run_benchmark
    names = ["vortex", "vpr", "bzip2"]
    victim = names[1]

    def flaky(name, *args, **kwargs):
        if name == victim:
            raise RuntimeError("synthetic workload failure")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(runner, "run_benchmark", flaky)

    outcome = run_matrix(jobs=0, benchmarks=names)
    assert list(outcome.results) == ["vortex", "bzip2"]
    assert [f.name for f in outcome.failures] == [victim]
    assert outcome.failures[0].exc_type == "RuntimeError"
    assert outcome.failures[0].kind == "error"
    assert outcome.ledger.balanced()


# ---------------------------------------------------------------------------
# chaos CLI
# ---------------------------------------------------------------------------


def test_chaos_cli_clean_run(tmp_path, capsys):
    from repro.chaos.__main__ import main

    code = main([
        "--seed", "5", "--runs", "3", "--quiet",
        "--failures-dir", str(tmp_path / "failures"), "--json",
    ])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["programs"] == 3


def test_chaos_cli_rejects_bad_runs(tmp_path):
    from repro.chaos.__main__ import main

    with pytest.raises(SystemExit):
        main(["--runs", "0"])


# -- Figure 2 through the differential --------------------------------------

#: the dynamic fault kinds (the rest clamp the geometry before a run)
DYNAMIC_FAULTS = {"drop_alloc", "spurious_invalidate", "flush"}


def test_figure2_partial_redundancy_survives_the_differential():
    """Figure 2's partial redundancy, which PRE repairs with an
    ``invala.e``, through ``check_program`` under every default mode and
    fault plan, on inputs that take each branch.  The generator never
    emits this shape, so this is where the campaign injects faults
    around an ``invala.e``."""
    from repro.chaos.campaign import CampaignReport, check_program
    from repro.target.asmprinter import format_program
    from tests.test_pass_reference import PARTIAL_REDUNDANCY

    modes = default_modes()
    for mode in modes:
        output = compile_source(PARTIAL_REDUNDANCY, mode, train_args=[6])
        assert "invala.e" in format_program(output.program), mode.describe()
    stress = FaultPlan(name="stress", seed=0, spurious_invalidate_rate=0.4,
                       drop_alloc_rate=0.2, flush_rate=0.01)
    plans = [None] + [
        plan for seed in range(3) for plan in default_fault_plans(seed)
    ] + [stress]
    report = CampaignReport(seed=0)
    for ref_arg in (4, 6, 9, 102):
        program = GeneratedProgram(
            f"figure2-{ref_arg}", PARTIAL_REDUNDANCY, (ref_arg,), (6,)
        )
        assert check_program(program, modes, plans, report) == []
    assert report.runs == 4 * len(modes) * len(plans)
    assert sum(report.faults_injected.get(k, 0) for k in DYNAMIC_FAULTS) > 0
