"""Pipeline driver and public API."""

import pytest

import repro
from repro import (
    CompilerOptions,
    OptLevel,
    SpecMode,
    compile_and_run,
    compile_source,
    run_program,
)
from repro.alias.manager import AliasAnalysisKind


SIMPLE = """
int g;
int main(int n) {
    g = n;
    print(g + 1);
    return g;
}
"""


def test_public_api_surface():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_compile_and_run_convenience():
    res = compile_and_run(SIMPLE, [4])
    assert res.output == ["5"]
    assert res.exit_value == 4


def test_run_program_oracle():
    res = run_program(SIMPLE, [4])
    assert res.output == ["5"]


def test_opt_levels_monotone_cycles():
    src = """
    int g;
    int main(int n) {
        g = 2;
        int s = 0;
        for (int i = 0; i < n; i += 1) { s += g * i; }
        return s % 100;
    }
    """
    cycles = {}
    for lvl in (OptLevel.O0, OptLevel.O1, OptLevel.O2):
        out = compile_source(src, CompilerOptions(opt_level=lvl))
        cycles[lvl] = out.run([50]).counters.cpu_cycles
    assert cycles[OptLevel.O0] >= cycles[OptLevel.O1] >= cycles[OptLevel.O2]


def test_profile_mode_requires_no_explicit_profile():
    out = compile_source(
        SIMPLE,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[1],
    )
    assert out.profile is not None


def test_profile_reuse():
    from repro.minic import compile_to_ir
    from repro.speculation.profile import collect_alias_profile

    module = compile_to_ir(SIMPLE)
    profile, _ = collect_alias_profile(module, [1])
    # NOTE: a profile is only meaningful with the module it was
    # collected on; compile_source recompiles from source, so this is
    # only valid because sid/eid assignment is deterministic per parse.
    out = compile_source(
        SIMPLE,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        profile=profile,
    )
    assert out.profile is profile


def test_steensgaard_configuration():
    out = compile_source(
        SIMPLE,
        CompilerOptions(
            opt_level=OptLevel.O2, alias_analysis=AliasAnalysisKind.STEENSGAARD
        ),
    )
    assert out.alias_manager is not None
    assert out.alias_manager.kind is AliasAnalysisKind.STEENSGAARD
    assert out.run([3]).output == ["4"]


def test_describe():
    opts = CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE)
    text = opts.describe()
    assert "-O3" in text and "profile" in text


def test_describe_names_every_option_set_apart():
    """Chaos minimisation finds a failing mode by its name, and store
    run ids key on it: option sets that compile differently must not
    share one."""
    from repro.chaos.campaign import default_modes
    from repro.pipeline import PromotionGate
    from repro.service.workers import bench_spec_options
    from repro.workloads.runner import BASELINE, SPECULATIVE, STATIC_SPECULATIVE

    static_warn = STATIC_SPECULATIVE()
    static_warn.promotion_gate = PromotionGate.WARN
    modes = [
        *default_modes(), STATIC_SPECULATIVE(), static_warn,
        bench_spec_options("hybrid"),
    ]
    names = [m.describe() for m in modes]
    assert len(set(names)) == len(names), names
    # the paper's two configurations keep their names
    assert BASELINE().describe() == "-O3 andersen"
    assert SPECULATIVE().describe() == "-O3 spec=profile andersen"


def test_machine_config_threading():
    from repro import MachineConfig

    config = MachineConfig(issue_width=1)
    narrow = compile_source(SIMPLE, CompilerOptions(machine=config))
    wide = compile_source(SIMPLE, CompilerOptions())
    n = narrow.run([3])
    w = wide.run([3])
    assert n.output == w.output
    assert n.counters.cpu_cycles > w.counters.cpu_cycles


def test_compile_output_stats_aggregation():
    src = """
    int a; int b; int *p;
    int main(int n) {
        if (n > 10) { p = &a; } else { p = &b; }
        a = 1;
        int s = 0;
        for (int i = 0; i < n; i += 1) { s += a; *p = s; s += a; }
        return s % 100;
    }
    """
    out = compile_source(
        src,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[5],
    )
    assert out.total_reloads > 0
    kinds = out.reloads_by_kind()
    assert set(kinds) == {"direct", "indirect"}


def test_interpret_runs_optimised_ir():
    out = compile_source(SIMPLE, CompilerOptions(opt_level=OptLevel.O3))
    assert out.interpret([4]).output == ["5"]
