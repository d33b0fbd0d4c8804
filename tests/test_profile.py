"""Cycle-attribution profiling, run diffing, and the regression gate.

The attribution contract is exact: every slot the simulator's clock
advances is charged to exactly one static instruction, so the per-line
percentages tile ``cpu_cycles`` and the profiled per-function delta in
a diff matches the counter delta to within rounding.
"""

import io
import json

import pytest

from repro.ir.loc import Loc
from repro.obs import (
    JsonlSink,
    MemorySink,
    ProfileReport,
    TraceContext,
    diff_runs,
    format_diff,
    read_jsonl,
)
from repro.obs.regress import (
    EXIT_NO_HISTORY,
    Flag,
    StoreHistory,
    compare_records,
    gate_metrics,
    gate_records,
    main as regress_main,
    make_record,
)
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.target.isa import ChkA, LdC

# Same conflicting-store loop as test_obs.py: trained on the clean path,
# run on the path where every iteration's store collides.
CONFLICT_SRC = """
int a;
int b;
int *p;

int main(int n) {
    if (n > 100) { p = &a; } else { p = &b; }
    a = 7;
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + a;
        *p = s;
        s = s + a;
        i = i + 1;
    }
    print(s);
    return 0;
}
"""
STORE_LINE = 13  # the "*p = s;" line above

SPEC_OPTS = dict(
    options=CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
    train_args=[10],
)


def profiled_run(args, source=CONFLICT_SRC, **opts):
    out = compile_source(source, **(opts or SPEC_OPTS))
    return out, out.run(args, profile=True)


# -- loc threading (the tentpole) ---------------------------------------


def test_locs_thread_from_source_to_machine_code():
    out, _ = profiled_run([150])
    instrs = out.program.function("main").instrs
    located = [i for i in instrs if i.loc is not None]
    assert len(located) / len(instrs) >= 0.9
    nlines = len(CONFLICT_SRC.splitlines())
    for i in located:
        assert isinstance(i.loc, Loc)
        assert 1 <= i.loc.line <= nlines


def test_check_instructions_inherit_the_guarded_stores_loc():
    out, _ = profiled_run([150])
    checks = [
        i for i in out.program.function("main").instrs
        if isinstance(i, (LdC, ChkA))
    ]
    assert checks, "speculative build must contain check instructions"
    assert all(i.loc is not None and i.loc.line == STORE_LINE for i in checks)


# -- RunProfile: exact tiling -------------------------------------------


def test_attribution_tiles_the_slot_clock_exactly():
    out, result = profiled_run([150])
    prof = result.profile
    assert prof is not None
    assert prof.total_slots > 0
    # every slot the clock advanced is attributed to some instruction
    assert prof.attributed_slots == prof.total_slots
    # ... and nearly all of them to a source line (acceptance: >= 90%)
    assert prof.located_slots / prof.total_slots >= 0.9


def test_per_function_cycles_sum_to_cpu_cycles():
    out, result = profiled_run([150])
    prof = result.profile
    total = sum(prof.per_function_cycles().values())
    # slots/width vs the floor-divided counter: within one cycle
    assert abs(total - result.counters.cpu_cycles) <= 1.0


def test_alat_sites_attribute_collisions_and_failures():
    out, result = profiled_run([150])
    sites = list(result.profile.sites.values())
    assert sites, "speculative conflict run must populate ALAT sites"
    agg_failures = sum(s.check_failures for s in sites)
    agg_collisions = sum(s.collisions for s in sites)
    assert agg_failures == result.counters.check_failures
    assert agg_collisions == result.alat_stats.store_collisions
    assert agg_collisions > 0
    hot = max(sites, key=lambda s: s.checks)
    assert hot.allocations > 0
    assert hot.failure_rate > 0.9  # adversarial profile: ~every check fails
    assert hot.kinds & {"ld.a", "ld.sa", "ld.c", "ld.c.nc", "chk.a", "chk.a.nc"}


def test_unprofiled_run_counters_are_bit_identical():
    out = compile_source(CONFLICT_SRC, **SPEC_OPTS)
    profiled = out.run([150], profile=True)
    plain = compile_source(CONFLICT_SRC, **SPEC_OPTS).run([150])
    assert plain.profile is None
    assert profiled.counters.as_dict() == plain.counters.as_dict()
    assert profiled.output == plain.output
    from dataclasses import asdict

    assert asdict(profiled.alat_stats) == asdict(plain.alat_stats)


# -- ProfileReport -------------------------------------------------------


def test_report_listing_and_hot_lines():
    out, result = profiled_run([150])
    report = ProfileReport(result.profile, CONFLICT_SRC, result.counters)
    assert report.attribution_pct >= 90.0
    text = report.render(top=5)
    assert "% attributed to source lines" in text
    assert "*p = s;" in text  # listing echoes the source
    assert "miss" in text  # per-line misspeculation rate
    assert "hottest lines" in text
    assert "ALAT sites" in text
    # the site table carries the collision story
    assert "ld.c" in text or "chk.a" in text


def test_report_to_dict_and_events():
    out, result = profiled_run([150])
    report = ProfileReport(result.profile, CONFLICT_SRC)
    d = report.to_dict(top=3)
    assert d["attribution_pct"] >= 90.0
    assert len(d["hot_lines"]) == 3
    assert d["sites"]
    json.dumps(d)  # JSON-clean

    sink = MemorySink()
    report.emit_events(TraceContext(sink))
    lines = sink.of_type("profile.line")
    assert lines and all("cycle_pct" in e for e in lines)
    assert sink.of_type("profile.site")
    # disabled context: no events, no error
    report.emit_events(TraceContext())
    report.emit_events(None)


# -- diff ----------------------------------------------------------------


def test_diff_matches_counters_within_one_percent():
    base_opts = dict(
        options=CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.NONE),
        train_args=[10],
    )
    _, base = profiled_run([150], **base_opts)
    _, spec = profiled_run([150])
    diff = diff_runs(base, spec)
    c = diff["cycles"]
    assert c["baseline"] == base.counters.cpu_cycles
    assert c["delta"] == base.counters.cpu_cycles - spec.counters.cpu_cycles
    # profiled per-function delta agrees with the counter delta (<= 1%)
    tolerance = max(1.0, 0.01 * max(abs(c["delta"]), 1))
    assert abs(c["profiled_delta"] - c["delta"]) <= tolerance
    assert diff["loads"]["eliminated"] == (
        base.counters.retired_loads - spec.counters.retired_loads
    )
    assert diff["check_overhead"]["check_failures"] == spec.counters.check_failures
    assert "main" in diff["per_function"]

    text = format_diff(diff)
    assert "cpu cycles" in text
    assert "per-function" in text
    json.dumps(diff)


def test_diff_without_profiles_omits_per_function():
    out = compile_source(CONFLICT_SRC, **SPEC_OPTS)
    r1 = out.run([150])
    r2 = compile_source(CONFLICT_SRC, **SPEC_OPTS).run([150])
    diff = diff_runs(r1, r2)
    assert "per_function" not in diff
    format_diff(diff)


# -- regression gate -----------------------------------------------------


def _counters(cycles=1000, loads=50):
    return {
        "cpu_cycles": cycles,
        "data_access_cycles": 80,
        "retired_loads": loads,
        "check_failures": 2,
        "recovery_cycles": 10,
    }


def test_gate_seeds_then_passes_then_flags(tmp_path):
    hist = StoreHistory(str(tmp_path / "history"))
    rec = make_record("gzip", {"speculative": _counters()})

    first = gate_records(hist, {"gzip": rec})
    assert first.seeded == ["gzip"] and not first.flags and not first.failed
    assert len(hist.load("gzip")) == 1

    # identical second run: checked, no flags, history grows
    second = gate_records(hist, {"gzip": make_record("gzip", {"speculative": _counters()})})
    assert second.checked == ["gzip"] and not second.flags
    assert len(hist.load("gzip")) == 2

    # >10% cycle regression: fail-severity flag
    bad = make_record("gzip", {"speculative": _counters(cycles=1200)})
    third = gate_records(hist, {"gzip": bad})
    assert third.failed
    flag = next(f for f in third.flags if f.severity == "fail")
    assert flag.counter == "cpu_cycles" and flag.bench == "gzip"
    assert flag.pct == pytest.approx(20.0)
    assert "REGRESSION" in str(flag)
    assert hist.load("gzip")[-1]["modes"]["speculative"]["cpu_cycles"] == 1200


def test_gate_warn_counters_do_not_fail(tmp_path):
    hist = StoreHistory(str(tmp_path / "h"))
    gate_records(hist, {"b": make_record("b", {"speculative": _counters()})})
    worse_loads = make_record("b", {"speculative": _counters(loads=100)})
    report = gate_records(hist, {"b": worse_loads})
    assert report.flags and not report.failed
    assert all(f.severity == "warn" for f in report.flags)
    assert "warning" in report.format()


def test_gate_within_threshold_is_quiet(tmp_path):
    hist = StoreHistory(str(tmp_path / "h"))
    gate_records(hist, {"b": make_record("b", {"speculative": _counters()})})
    slightly = make_record("b", {"speculative": _counters(cycles=1050)})
    report = gate_records(hist, {"b": slightly}, threshold=0.10)
    assert not report.flags
    assert "no counters regressed" in report.format()


def test_gate_no_update_leaves_history_untouched(tmp_path):
    hist = StoreHistory(str(tmp_path / "h"))
    gate_records(hist, {"b": make_record("b", {"speculative": _counters()})})
    gate_records(
        hist, {"b": make_record("b", {"speculative": _counters(cycles=9999)})},
        update=False,
    )
    assert len(hist.load("b")) == 1


def test_compare_records_skips_new_modes_and_zero_baselines():
    prev = {"bench": "b", "modes": {"speculative": {"cpu_cycles": 0}}}
    cur = {
        "bench": "b",
        "modes": {
            "speculative": {"cpu_cycles": 100},
            "baseline": {"cpu_cycles": 50},  # no previous: skipped
        },
    }
    assert compare_records(prev, cur) == []


def test_gate_metrics_consumes_harness_shape_and_cli(tmp_path):
    metrics = {
        "gzip": {
            "speculative": {"counters": _counters()},
            "baseline": {"counters": _counters(cycles=1100)},
        }
    }
    hist = str(tmp_path / "history")
    report = gate_metrics(StoreHistory(hist), metrics)
    assert report.seeded == ["gzip"]

    mpath = tmp_path / "metrics.json"
    # regressed speculative cycles beyond threshold
    metrics["gzip"]["speculative"]["counters"]["cpu_cycles"] = 2000
    mpath.write_text(json.dumps(metrics))
    rc = regress_main(["--metrics", str(mpath), "--store", hist])
    assert rc == 1
    rc = regress_main(
        ["--metrics", str(mpath), "--store", hist, "--warn-only", "--no-update"]
    )
    assert rc == 0


def test_gate_cli_refuses_to_gate_without_history(tmp_path, capsys):
    """No history and no --allow-seed: a distinct exit code plus a clear
    message, and nothing written — a misconfigured --store path must
    not silently seed and pass CI."""
    metrics = {"gzip": {"speculative": {"counters": _counters()}}}
    mpath = tmp_path / "metrics.json"
    mpath.write_text(json.dumps(metrics))
    hist = str(tmp_path / "nonexistent-history")

    rc = regress_main(["--metrics", str(mpath), "--store", hist])
    assert rc == EXIT_NO_HISTORY and rc not in (0, 1)
    err = capsys.readouterr().err
    assert "no benchmark history" in err and "gzip" in err
    assert "--allow-seed" in err
    assert StoreHistory(hist).load("gzip") == []


def test_gate_cli_allow_seed_records_baseline(tmp_path):
    metrics = {"gzip": {"speculative": {"counters": _counters()}}}
    mpath = tmp_path / "metrics.json"
    mpath.write_text(json.dumps(metrics))
    hist = str(tmp_path / "history")

    rc = regress_main(
        ["--metrics", str(mpath), "--store", hist, "--allow-seed"]
    )
    assert rc == 0
    assert len(StoreHistory(hist).load("gzip")) == 1

    # with history present, subsequent runs gate normally
    rc = regress_main(["--metrics", str(mpath), "--store", hist])
    assert rc == 0
    assert len(StoreHistory(hist).load("gzip")) == 2


# -- JsonlSink exception safety -----------------------------------------


def test_jsonl_sink_mid_run_raise_leaves_valid_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(str(path), autoflush=True)
    obs = TraceContext(sink)
    with pytest.raises(RuntimeError):
        with obs:
            with obs.phase("pre"):
                obs.event("spec.decision", verdict="alat")
                raise RuntimeError("boom")
    # file closed by the context manager; every line parses
    events = read_jsonl(str(path))
    names = [e["event"] for e in events]
    assert names == ["phase.begin", "spec.decision", "phase.end"]
    assert events[-1]["error"] == "RuntimeError: boom"


def test_jsonl_sink_unserialisable_value_leaves_file_untouched(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(str(path)) as sink:
        sink.emit({"event": "ok", "n": 1})
        sink.emit({"event": "odd", "obj": object()})  # stringified, fine
    for line in path.read_text().splitlines():
        json.loads(line)


def test_jsonl_sink_emit_after_close_is_noop():
    buf = io.StringIO()
    sink = JsonlSink(buf)
    sink.emit({"a": 1})
    sink.close()
    sink.close()  # idempotent
    sink.emit({"b": 2})
    assert [json.loads(l) for l in buf.getvalue().splitlines()] == [{"a": 1}]


def test_jsonl_sink_autoflush_flushes_per_event(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(str(path), autoflush=True)
    sink.emit({"event": "one"})
    # visible on disk before close — a hard crash would keep it
    assert json.loads(path.read_text())["event"] == "one"
    sink.close()


# -- phase error bracket -------------------------------------------------


def test_phase_end_carries_error_when_body_raises():
    sink = MemorySink()
    obs = TraceContext(sink)
    with pytest.raises(ValueError):
        with obs.phase("frontend"):
            raise ValueError("bad token")
    end = sink.of_type("phase.end")[0]
    assert end["phase"] == "frontend"
    assert end["error"] == "ValueError: bad token"
    assert end["wall_ms"] >= 0
    # wall time still accumulated
    assert "frontend" in obs.phase_times


def test_phase_end_has_no_error_field_on_success():
    sink = MemorySink()
    obs = TraceContext(sink)
    with obs.phase("frontend"):
        pass
    assert "error" not in sink.of_type("phase.end")[0]
