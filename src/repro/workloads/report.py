"""Text renderings of the paper's evaluation figures.

Each function takes the ``{name: BenchmarkResult}`` map produced by
:func:`repro.service.matrix.run_matrix` and returns the
figure as a formatted table, with the paper's observed values noted in
the caption for side-by-side comparison (EXPERIMENTS.md records both).
"""

from __future__ import annotations

import json

from repro.workloads.runner import BenchmarkResult


def _rule(width: int = 78) -> str:
    return "-" * width


def figure8_table(results: dict[str, BenchmarkResult]) -> str:
    """Figure 8: % reduction vs baseline in CPU cycles, data-access
    cycles and retired loads (paper: cycles −1..7%, loads >5% for half
    the benchmarks, FP gains largest)."""
    lines = [
        "Figure 8. Performance of speculative register promotion",
        "(percent reduction vs the -O3 baseline; higher is better)",
        _rule(),
        f"{'benchmark':<10}{'CPU cycles %':>14}{'data access %':>15}{'retired loads %':>17}",
        _rule(),
    ]
    for name, r in results.items():
        lines.append(
            f"{name:<10}{r.cycle_reduction_pct:>14.2f}"
            f"{r.data_access_reduction_pct:>15.2f}"
            f"{r.load_reduction_pct:>17.2f}"
        )
    lines.append(_rule())
    return "\n".join(lines)


def figure9_table(results: dict[str, BenchmarkResult]) -> str:
    """Figure 9: split of eliminated loads into direct vs indirect
    (paper: indirect majority for ammp, gzip, mcf, parser)."""
    lines = [
        "Figure 9. Percentage of load types among total reduced loads",
        _rule(),
        f"{'benchmark':<10}{'reduced':>9}{'direct':>9}{'indirect':>10}"
        f"{'direct %':>10}{'indirect %':>12}",
        _rule(),
    ]
    for name, r in results.items():
        kinds = r.reduced_loads_by_kind
        total = kinds["direct"] + kinds["indirect"]
        dpct = 100.0 * kinds["direct"] / total if total else 0.0
        ipct = 100.0 * kinds["indirect"] / total if total else 0.0
        lines.append(
            f"{name:<10}{total:>9}{kinds['direct']:>9}{kinds['indirect']:>10}"
            f"{dpct:>10.1f}{ipct:>12.1f}"
        )
    lines.append(_rule())
    return "\n".join(lines)


def figure10_table(results: dict[str, BenchmarkResult]) -> str:
    """Figure 10: mis-speculation ratio and check density (paper:
    generally tiny; gzip ~5% ratio with negligible check counts)."""
    lines = [
        "Figure 10. Mis-speculation in speculative register promotion",
        _rule(),
        f"{'benchmark':<10}{'checks':>9}{'failures':>10}"
        f"{'mis-spec %':>12}{'checks/loads %':>16}",
        _rule(),
    ]
    for name, r in results.items():
        c = r.speculative.counters
        lines.append(
            f"{name:<10}{c.check_instructions:>9}{c.check_failures:>10}"
            f"{r.misspeculation_ratio_pct:>12.2f}{r.checks_per_load_pct:>16.2f}"
        )
    lines.append(_rule())
    return "\n".join(lines)


def figure11_table(results: dict[str, BenchmarkResult]) -> str:
    """Figure 11: RSE cycle increase (paper: ammp +55.4%, gzip +10.6%,
    absolute RSE share ~0.001% of execution — negligible)."""
    lines = [
        "Figure 11. RSE memory cycles increase",
        _rule(),
        f"{'benchmark':<10}{'base RSE':>10}{'spec RSE':>10}"
        f"{'increase %':>12}{'share of cycles %':>19}",
        _rule(),
    ]
    for name, r in results.items():
        lines.append(
            f"{name:<10}{r.baseline.counters.rse_cycles:>10}"
            f"{r.speculative.counters.rse_cycles:>10}"
            f"{r.rse_increase_pct:>12.1f}{r.rse_share_of_cycles_pct:>19.4f}"
        )
    lines.append(_rule())
    return "\n".join(lines)


def figures_as_dict(results: dict[str, BenchmarkResult]) -> dict:
    """All four figures as plain data (for JSON export / plotting)."""
    out: dict = {"figure8": {}, "figure9": {}, "figure10": {}, "figure11": {}}
    for name, r in results.items():
        out["figure8"][name] = {
            "cpu_cycles_reduction_pct": r.cycle_reduction_pct,
            "data_access_reduction_pct": r.data_access_reduction_pct,
            "retired_loads_reduction_pct": r.load_reduction_pct,
        }
        kinds = r.reduced_loads_by_kind
        out["figure9"][name] = dict(kinds)
        c = r.speculative.counters
        out["figure10"][name] = {
            "checks": c.check_instructions,
            "failures": c.check_failures,
            "misspeculation_ratio_pct": r.misspeculation_ratio_pct,
            "checks_per_load_pct": r.checks_per_load_pct,
        }
        out["figure11"][name] = {
            "baseline_rse_cycles": r.baseline.counters.rse_cycles,
            "speculative_rse_cycles": r.speculative.counters.rse_cycles,
            "increase_pct": r.rse_increase_pct,
            "share_of_cycles_pct": r.rse_share_of_cycles_pct,
        }
    return out


def summary_table(results: dict[str, BenchmarkResult]) -> str:
    """One-screen overview across all figures."""
    parts = [
        figure8_table(results),
        "",
        figure9_table(results),
        "",
        figure10_table(results),
        "",
        figure11_table(results),
    ]
    return "\n".join(parts)


# -- host-side performance (this repo's harness, not a paper figure) ----


def matrix_table(results: dict[str, BenchmarkResult]) -> str:
    """Figure 8 extended with host-side columns: wall-clock ms and
    simulated steps per host second for the speculative run.  The host
    columns measure *this reproduction's* harness (the baseline ROADMAP
    item 2 optimises against), not anything from the paper."""
    lines = [
        "Benchmark matrix (paper reductions + host-side performance)",
        "(reductions vs -O3 baseline; host columns measure the harness)",
        _rule(),
        f"{'benchmark':<10}{'CPU cycles %':>14}{'data access %':>15}"
        f"{'loads %':>9}{'wall ms':>10}{'steps/s':>12}",
        _rule(),
    ]
    for name, r in results.items():
        host = r.speculative.host_metrics
        wall = host.get("wall_ms", 0.0)
        steps = host.get("sim_steps_per_sec", 0.0)
        lines.append(
            f"{name:<10}{r.cycle_reduction_pct:>14.2f}"
            f"{r.data_access_reduction_pct:>15.2f}"
            f"{r.load_reduction_pct:>9.2f}"
            f"{wall:>10.1f}{steps:>12,.0f}"
        )
    lines.append(_rule())
    return "\n".join(lines)


def records_json(results: dict[str, BenchmarkResult]) -> str:
    """``{bench: {mode: run record}}`` as sorted-key JSON: what the
    benchmark session commits as ``benchmarks/results/records.json``
    and what ``--report-json`` writes, byte for byte.

    Run records are deterministic (host times ride beside them), so two
    runs of the same code give the same bytes whatever the pool size or
    cache state.  A site-profiled run's ``sites`` list is left out, so
    the bytes do not depend on whether the run was site-profiled
    (``--dashboard`` turns profiling on)."""
    doc = {
        name: {
            mode.label: {k: v for k, v in mode.record.items() if k != "sites"}
            for mode in r.modes
        }
        for name, r in results.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
