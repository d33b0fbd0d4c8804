"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.minic import compile_to_ir
from repro.ir.interp import run_module
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.workloads.programs import get_workload


def test_optimization_ladder_on_a_workload():
    """Each promotion level must preserve output; O0..O2 strictly help.
    O3's software checks are an *investment* (compare/reload overhead)
    that may cost a little on small inputs — allow slack there, exactly
    the trade-off the paper's ALAT treatment then removes."""
    w = get_workload("vortex")
    args = [40]
    cycles = {}
    outputs = set()
    for lvl in (OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.O3):
        out = compile_source(
            w.source, CompilerOptions(opt_level=lvl), train_args=list(w.train_args)
        )
        res = out.run(args)
        outputs.add(tuple(res.output))
        cycles[lvl] = res.counters.cpu_cycles
    assert len(outputs) == 1
    assert cycles[OptLevel.O0] >= cycles[OptLevel.O1] >= cycles[OptLevel.O2]
    assert cycles[OptLevel.O3] <= cycles[OptLevel.O2] * 1.15


def test_speculation_composes_with_cascade_and_cleanup():
    w = get_workload("mcf")
    args = [30]
    ref = run_module(compile_to_ir(w.source), args)
    for rounds in (1, 2):
        out = compile_source(
            w.source,
            CompilerOptions(
                opt_level=OptLevel.O3,
                spec_mode=SpecMode.PROFILE,
                rounds=rounds,
            ),
            train_args=list(w.train_args),
        )
        res = out.run(args)
        assert res.output == ref.output, rounds


def test_counters_internally_consistent():
    """Cross-counter invariants on a full workload run."""
    w = get_workload("gzip")
    out = compile_source(
        w.source,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=list(w.train_args),
    )
    res = out.run(list(w.ref_args))
    c = res.counters
    assert c.retired_indirect_loads <= c.retired_loads
    assert c.check_failures <= c.check_instructions
    assert c.data_access_cycles <= c.cpu_cycles * c.instructions  # sanity
    assert c.instructions >= c.retired_loads + c.retired_stores
    assert c.cpu_cycles > 0


def test_profile_from_multiple_training_runs():
    """Merged profiles from several train inputs are usable and safe."""
    from repro.speculation.profile import collect_alias_profile

    w = get_workload("twolf")
    module = compile_to_ir(w.source)
    merged, _ = collect_alias_profile(module, [20])
    for extra in ([50], [70]):
        p, _ = collect_alias_profile(module, extra)
        merged.merge(p)
    out = compile_source(
        w.source,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        profile=merged,
    )
    ref = run_module(compile_to_ir(w.source), [120])
    assert out.run([120]).output == ref.output


def test_example_scripts_import_and_expose_main():
    import importlib.util
    import pathlib

    examples = pathlib.Path(__file__).parent.parent / "examples"
    for script in sorted(examples.glob("*.py")):
        spec = importlib.util.spec_from_file_location(script.stem, script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert hasattr(mod, "main"), script.name


def test_custom_workload_example_end_to_end(capsys):
    import importlib.util
    import pathlib

    script = pathlib.Path(__file__).parent.parent / "examples" / "custom_workload.py"
    spec = importlib.util.spec_from_file_location("custom_workload", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.main()
    out = capsys.readouterr().out
    assert "hashjoin" in out and "Figure 8" in out
