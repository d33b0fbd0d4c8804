"""Benchmark workloads: differential correctness across the full mode
matrix (scaled-down inputs) and experiment-harness sanity."""

import pytest

from repro.workloads.programs import BENCHMARKS, FP_BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE, run_benchmark

from tests.conftest import assert_all_modes_agree


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_workload_all_modes_agree_small(name):
    """Every kernel, every compilation mode, interpreter + simulator —
    on a scaled-down input with the real train input as profile."""
    w = get_workload(name)
    small_args = [max(3, w.ref_args[0] // 20)]
    assert_all_modes_agree(w.source, small_args, train_args=list(w.train_args))


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_workload_misspeculation_safe(name):
    """Train on a tiny input so the profile is maximally wrong, then run
    a larger one: outputs must still match the oracle."""
    w = get_workload(name)
    args = [max(5, w.ref_args[0] // 10)]
    assert_all_modes_agree(w.source, args, train_args=[3])


def test_registry_complete():
    assert len(BENCHMARKS) == 10
    assert set(FP_BENCHMARKS) <= set(BENCHMARKS)
    assert list(BENCHMARKS)[:3] == ["gzip", "vpr", "mcf"]


def test_get_workload_unknown():
    with pytest.raises(KeyError):
        get_workload("specfp-psi")


def test_runner_validates_output():
    """The harness itself must differentially validate every run."""
    result = run_benchmark("vpr")
    assert result.baseline.machine.output == result.speculative.machine.output
    assert result.workload.name == "vpr"


def test_runner_cache():
    a = run_benchmark("vpr")
    b = run_benchmark("vpr")
    assert a is b  # memoized


def test_runner_cache_keys_on_full_options():
    """Two extra modes under one label but with different options are
    different measurements; the memo must not serve one for the other."""
    from repro.pipeline import CompilerOptions, OptLevel, SpecMode

    def extra(level):
        return {"x": CompilerOptions(opt_level=level, spec_mode=SpecMode.NONE,
                                     fallback=False)}

    o3 = run_benchmark("vortex", extra_modes=extra(OptLevel.O3))
    o0 = run_benchmark("vortex", extra_modes=extra(OptLevel.O0))
    assert o0 is not o3
    assert (o0.extras["x"].counters.cpu_cycles
            != o3.extras["x"].counters.cpu_cycles)
    assert run_benchmark("vortex", extra_modes=extra(OptLevel.O0)) is o0


def test_baseline_and_speculative_options_differ():
    base, spec = BASELINE(), SPECULATIVE()
    assert base.spec_mode != spec.spec_mode
    assert base.opt_level == spec.opt_level


def test_reduction_properties():
    r = run_benchmark("vortex")
    assert r.cycle_reduction_pct == pytest.approx(
        100.0
        * (r.baseline.counters.cpu_cycles - r.speculative.counters.cpu_cycles)
        / r.baseline.counters.cpu_cycles
    )
    kinds = r.reduced_loads_by_kind
    assert kinds["direct"] + kinds["indirect"] == (
        r.baseline.counters.retired_loads
        - r.speculative.counters.retired_loads
    )


def test_report_tables_render():
    from repro.workloads.report import (
        figure8_table,
        figure9_table,
        figure10_table,
        figure11_table,
        summary_table,
    )

    results = {"vpr": run_benchmark("vpr"), "vortex": run_benchmark("vortex")}
    for renderer in (figure8_table, figure9_table, figure10_table, figure11_table):
        table = renderer(results)
        assert "vpr" in table and "vortex" in table
    assert "Figure 8" in summary_table(results)


def test_records_json_is_sorted_run_records_without_host_times(
    tmp_path, monkeypatch
):
    """What the bench session commits as ``records.json`` and
    ``--report-json`` writes: each mode's run record, sorted, with no
    host section, and the same bytes whether or not the run was
    site-profiled (the results store turns profiling on)."""
    import json

    import repro.workloads.__main__ as cli
    from repro.service.job import ServiceLedger
    from repro.service.matrix import MatrixOutcome
    from repro.workloads.report import records_json
    from repro.workloads.runner import HOST_SECTIONS

    plain = {"vpr": run_benchmark("vpr")}
    profiled = {"vpr": run_benchmark("vpr", profile_sites=True)}
    assert profiled["vpr"].speculative.record["sites"]
    text = records_json(plain)
    assert records_json(profiled) == text
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    spec = doc["vpr"]["speculative"]
    assert spec == plain["vpr"].speculative.record
    assert not set(HOST_SECTIONS) & set(spec["metrics"])
    assert plain["vpr"].speculative.host_metrics  # kept beside the record

    outcome = MatrixOutcome(results=plain, failures=[], ledger=ServiceLedger())
    monkeypatch.setattr(cli, "run_matrix", lambda **kw: outcome)
    report = tmp_path / "report.json"
    assert cli.main(["--report-json", str(report)]) == 0
    assert report.read_text() == text


# -- CLI exit-code contract ---------------------------------------------


def _outcome(failures):
    from repro.service.job import ServiceLedger
    from repro.service.matrix import MatrixOutcome

    return MatrixOutcome(results={}, failures=failures, ledger=ServiceLedger())


def test_cli_exits_nonzero_on_any_workload_failure(monkeypatch, capsys):
    import repro.workloads.__main__ as cli
    from repro.workloads.runner import WorkloadFailure

    failure = WorkloadFailure("gzip", "RuntimeError", "boom", kind="error")
    monkeypatch.setattr(cli, "run_matrix", lambda **kw: _outcome([failure]))
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "FAILED gzip" in err
    assert "1 benchmark(s) failed" in err


def test_cli_exits_zero_on_clean_sweep(monkeypatch):
    import repro.workloads.__main__ as cli

    monkeypatch.setattr(cli, "run_matrix", lambda **kw: _outcome([]))
    assert cli.main([]) == 0


def test_cli_fuel_exhaustion_surfaces_as_timeout_failure(capsys):
    import repro.workloads.__main__ as cli

    # A 200-step budget kills every benchmark almost immediately, so
    # the sweep stays fast while exercising the real fuel plumbing.
    assert cli.main(["--fuel", "200"]) == 1
    err = capsys.readouterr().err
    assert "[timeout]" in err
