"""Run reports and their renderings.

* ``build_metrics`` / ``format_summary`` round-trip on a real
  compile + simulate, including the ``host`` section;
* golden-file tests for the Chrome trace and collapsed-stack exporters
  (hand-built deterministic spans — regenerate with
  ``REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_report.py``);
* golden-file tests for the workload report tables, rendered from
  run records;
* the HTML dashboard of a matrix run (:mod:`repro.obs.dashboard`).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import HostProfiler, Span, TraceContext, chrome_trace, collapsed_stacks
from repro.obs.report import build_host_metrics, build_metrics, format_summary
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

PROGRAM = """
int main(int n) {
    int a = 7;
    int *p = &a;
    int s = 0;
    int i = 0;
    while (i < n) {
        *p = i;
        s = s + a;
        i = i + 1;
    }
    return s;
}
"""


# -- metrics round-trip on a real run ------------------------------------


def _real_run():
    obs = TraceContext(track_memory=True)
    try:
        options = CompilerOptions(
            opt_level=OptLevel.O3, spec_mode=SpecMode.HEURISTIC, fallback=False
        )
        output = compile_source(PROGRAM, options, obs=obs)
        host = HostProfiler()
        result = output.run([80], host_profiler=host)
    finally:
        obs.close()
    return output, result, obs, host


def test_build_metrics_has_host_section():
    output, result, obs, host = _real_run()
    metrics = build_metrics(output, result, obs, host=host)
    assert metrics["counters"]["instructions"] > 0
    assert "phase_wall_ms" in metrics and "phase_mem_kb" in metrics
    h = metrics["host"]
    assert h["wall_ms"] > 0
    assert h["simulate_wall_ms"] > 0
    assert h["sim_steps_per_sec"] > 0
    assert h["peak_kb"] > 0
    assert h["profile"]["total_ms"] > 0
    assert any(k.startswith("sim.op.") for k in h["profile"]["buckets"])
    json.dumps(metrics)  # the whole dict stays JSON-ready


def test_format_summary_renders_host_line():
    output, result, obs, host = _real_run()
    text = format_summary(build_metrics(output, result, obs, host=host))
    assert "-- host" in text
    assert "steps/s=" in text
    assert "peak " in text  # per-phase KiB column
    assert "profiled" in text and "buckets" in text


def test_build_host_metrics_without_anything():
    assert build_host_metrics(None, None) == {}
    assert build_host_metrics(None, TraceContext()) == {}


# -- exporter golden files -----------------------------------------------


def _synthetic_obs() -> TraceContext:
    obs = TraceContext(record_spans=False)  # keep it inert; we fill spans
    obs.spans = [
        Span(1, None, "frontend", 0.0, wall_ms=2.0),
        Span(3, 2, "pre.fn", 2.5, wall_ms=2.0, fields={"function": "main"}),
        Span(2, None, "pre", 2.0, wall_ms=3.0, child_wall_ms=2.0),
        Span(
            4, None, "simulate", 5.0, wall_ms=10.0, mem_kb=12.5,
            child_wall_ms=0.0,
        ),
    ]
    return obs


def _synthetic_host() -> HostProfiler:
    hp = HostProfiler()
    hp.add("sim.issue", 4_000_000, count=100)
    hp.add("sim.op.Ld", 2_000_000, count=50)
    hp.add("sim.cache", 1_000_000, count=25)
    return hp


def _check_golden(name: str, text: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REGEN_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        assert text == fh.read(), f"golden mismatch: {name}"


def test_chrome_trace_golden():
    doc = chrome_trace(_synthetic_obs(), _synthetic_host())
    _check_golden(
        "chrome_trace.json",
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )


def test_flamegraph_golden():
    lines = collapsed_stacks(_synthetic_obs(), _synthetic_host())
    _check_golden("flamegraph.txt", "\n".join(lines) + "\n")


def test_synthetic_flamegraph_accounting():
    lines = collapsed_stacks(_synthetic_obs(), _synthetic_host())
    values = {ln.rsplit(" ", 1)[0]: int(ln.rsplit(" ", 1)[1]) for ln in lines}
    # host total is 7 ms; simulate self (10 ms) shrinks to 3 ms
    assert values["simulate"] == 3000
    assert values["simulate;sim.issue"] == 4000
    assert values["pre;pre.fn"] == 2000
    assert values["pre"] == 1000  # 3 ms wall minus 2 ms child


# -- workload report tables (golden) --------------------------------------


def _stored_matrix_results():
    """Two benches of fixed counters/host numbers rebuilt from plain run
    records and host sections (``BenchmarkResult.from_records``) —
    deterministic inputs, so the figure and matrix renderers can be
    golden-tested byte-for-byte."""
    from repro.workloads.runner import BenchmarkResult

    def counters(cycles, data, loads, indirect, checks, failures):
        return {
            "cpu_cycles": cycles,
            "data_access_cycles": data,
            "retired_loads": loads,
            "retired_indirect_loads": indirect,
            "check_instructions": checks,
            "check_failures": failures,
            "recovery_cycles": failures * 25,
            "rse_cycles": 6 if checks else 4,
        }

    fixtures = {
        "gzip": (
            counters(10_000, 3_000, 1_000, 400, 0, 0),
            counters(9_200, 2_500, 860, 340, 40, 2),
        ),
        "vortex": (
            counters(20_000, 8_000, 2_500, 900, 0, 0),
            counters(18_500, 6_600, 2_100, 760, 120, 0),
        ),
    }
    results = {}
    for bench, (base, spec) in fixtures.items():
        records, host = {}, {}
        for mode, ctr, wall, steps in (
            ("baseline", base, 120.0, 480_000.0),
            ("speculative", spec, 110.5, 520_000.0),
        ):
            records[mode] = {
                "bench": bench, "mode": mode, "metrics": {"counters": ctr},
            }
            host[mode] = {
                "host": {"wall_ms": wall, "simulate_wall_ms": wall - 20.0,
                         "sim_steps_per_sec": steps},
            }
        results[bench] = BenchmarkResult.from_records(records, host)
    return results


@pytest.mark.parametrize(
    "golden_name, renderer_name",
    [
        ("figure8_table.txt", "figure8_table"),
        ("figure9_table.txt", "figure9_table"),
        ("figure10_table.txt", "figure10_table"),
        ("figure11_table.txt", "figure11_table"),
        ("matrix_table.txt", "matrix_table"),
    ],
)
def test_report_table_golden(golden_name, renderer_name):
    from repro.workloads import report

    renderer = getattr(report, renderer_name)
    _check_golden(golden_name, renderer(_stored_matrix_results()) + "\n")


def test_figures_as_dict_golden():
    from repro.workloads.report import figures_as_dict

    doc = figures_as_dict(_stored_matrix_results())
    _check_golden(
        "figures_dict.json",
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )


def test_stored_mode_reconstructs_derived_ratios():
    """A mode rebuilt from its record must rebuild the two derived
    counter properties the figure tables lean on (they are @property on
    Counters, not persisted fields)."""
    results = _stored_matrix_results()
    spec = results["gzip"].speculative
    assert spec.counters.misspeculation_ratio == pytest.approx(2 / 40)
    assert spec.counters.checks_per_load == pytest.approx(40 / (860 + 40))
    assert spec.retired_direct_loads == 860 - 340


# -- HTML dashboard ---------------------------------------------------------


def _dashboard_results():
    """Three benches of one run, the speculative modes site-profiled."""
    from repro.workloads.runner import BenchmarkResult

    def record(bench, mode, cycles, site_collisions=None):
        rec = {
            "bench": bench,
            "mode": mode,
            "metrics": {
                "counters": {
                    "cpu_cycles": cycles,
                    "data_access_cycles": cycles // 3,
                    "retired_loads": 100,
                    "retired_indirect_loads": 40,
                    "check_instructions": 10,
                    "check_failures": 1,
                    "recovery_cycles": 5,
                },
                "alat": {"capacity_evictions": 2, "store_collisions": 1},
            },
        }
        if site_collisions is not None:
            rec["sites"] = [{"site": "p", "line": 3, "allocations": 5,
                             "collisions": site_collisions, "evictions": 1}]
        return rec

    host = {"host": {"wall_ms": 12.5, "sim_steps_per_sec": 1e6}}
    return {
        bench: BenchmarkResult.from_records(
            {"baseline": record(bench, "baseline", 2000 + i),
             "speculative": record(bench, "speculative", 1500, i)},
            {"baseline": host, "speculative": host},
        )
        for i, bench in enumerate(("gzip", "vpr", "mcf"))
    }


def test_dashboard_is_self_contained():
    from repro.obs.dashboard import render_dashboard

    html = render_dashboard(_dashboard_results())
    assert html.lstrip().startswith("<!DOCTYPE html>")
    for bench in ("gzip", "vpr", "mcf"):
        assert bench in html
    assert "<svg" in html  # site bars inline
    assert "prefers-color-scheme" in html  # dark mode present
    # self-contained: no external fetches of any kind
    for marker in ("http://", "https://", "<script src", "<link"):
        assert marker not in html, f"external reference: {marker}"


def test_dashboard_sections_present():
    from repro.obs.dashboard import render_dashboard

    html = render_dashboard(_dashboard_results())
    assert "ALAT site pressure" in html
    assert "baseline" in html and "speculative" in html
    assert "cpu" in html.lower()
