"""Benchmark workloads: differential correctness across the full mode
matrix (scaled-down inputs) and experiment-harness sanity."""

import pytest

from repro.workloads.programs import (
    BENCHMARKS,
    FP_BENCHMARKS,
    Workload,
    get_workload,
)
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

    def modes(level):
        return {
            "baseline": BASELINE(),
            "speculative": SPECULATIVE(),
            "x": CompilerOptions(opt_level=level, spec_mode=SpecMode.NONE,
                                 fallback=False),
        }

    o3 = run_benchmark("vortex", modes=modes(OptLevel.O3))
    o0 = run_benchmark("vortex", modes=modes(OptLevel.O0))
    assert o0 is not o3
    assert (o0.extras["x"].counters.cpu_cycles
            != o3.extras["x"].counters.cpu_cycles)
    assert run_benchmark("vortex", modes=modes(OptLevel.O0)) is o0


def _unregistered(scale: int) -> Workload:
    """A tiny workload outside the registry; every ``scale`` shares one
    name."""
    return Workload(
        name="tiny",
        source=(
            "int g;\n"
            "int main(int n) {\n"
            "    int i = 0;\n"
            "    while (i < n) { g = g + i * %d; i = i + 1; }\n"
            "    print(g);\n"
            "    return 0;\n"
            "}\n" % scale
        ),
        train_args=(4,),
        ref_args=(10,),
        is_float=False,
        description="sum of scaled indices",
    )


def test_runner_cache_keys_on_workload_content():
    """Two workloads with one name and different sources are different
    measurements (an ablation sweeps one kernel name over sources)."""
    one = run_benchmark(_unregistered(1))
    two = run_benchmark(_unregistered(2))
    assert one is not two
    assert one.speculative.machine.output == ["45"]
    assert two.speculative.machine.output == ["90"]
    assert run_benchmark(_unregistered(2)) is two
    assert two.workload == _unregistered(2)


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
    site-profiled (``--dashboard`` turns profiling on)."""
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


def test_cli_dashboard_renders_its_own_run(tmp_path):
    """``--dashboard`` site-profiles the run and renders it; the run
    records it writes beside are those of an unprofiled run."""
    import repro.workloads.__main__ as cli
    from repro.workloads.report import records_json

    html_path = tmp_path / "dashboard.html"
    report = tmp_path / "report.json"
    assert cli.main([
        "--benchmarks", "vpr", "--dashboard", str(html_path),
        "--report-json", str(report),
    ]) == 0
    assert report.read_text() == records_json({"vpr": run_benchmark("vpr")})
    html = html_path.read_text()
    assert "vpr" in html
    assert "<svg" in html and "ALAT site pressure" in html
    for marker in ("http://", "https://", "<script src", "<link"):
        assert marker not in html, f"external reference: {marker}"


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


def test_cli_cold_then_warm_cache_ledgers(tmp_path, capsys):
    """The matrix CLI over a service cache, twice in this process: a
    balanced cold ledger, then one verified hit serving the same
    artifact and the same run records (CI's service-smoke, one bench)."""
    import json

    import repro.workloads.__main__ as cli

    def run(tag):
        ledger = tmp_path / f"{tag}-ledger.json"
        report = tmp_path / f"{tag}.json"
        assert cli.main([
            "--benchmarks", "vpr", "--cache", str(tmp_path / "cache"),
            "--ledger-json", str(ledger), "--report-json", str(report),
        ]) == 0
        return json.loads(ledger.read_text()), report.read_bytes()

    cold, cold_report = run("cold")
    warm, warm_report = run("warm")
    assert cold["submitted"] == cold["completed"] == 1, cold
    assert cold["failed"] == cold["timed_out"] == 0, cold
    assert cold["cache"]["misses"] == cold["cache"]["stores"] == 1
    assert warm["submitted"] == warm["completed"] == warm["cache_hits"] == 1
    assert warm["cache"]["hits"] == 1 and warm["cache"]["misses"] == 0
    assert warm["cache"]["quarantined"] == 0
    assert list(warm["shas"]) == ["bench:vpr"]
    assert warm["shas"] == cold["shas"]
    assert warm_report == cold_report
    assert "cache=1/1" in capsys.readouterr().err
