"""Figure 8 — performance of speculative register promotion.

Paper: total CPU cycles drop 1–7% vs the -O3 baseline, driven by
reduced data-access cycles, which in turn come from eliminated retired
loads; FP benchmarks (ammp, art, equake) gain more because FP loads
cost 9 cycles.  The bench asserts the qualitative shape of every
benchmark's measurement before publishing the table.
"""

from __future__ import annotations

import pytest

from repro.workloads import figure8_table
from repro.workloads.programs import BENCHMARKS

from conftest import publish_table


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_fig8_benchmark(all_results, name):
    result = all_results[name]
    # Shape assertions (who wins, roughly by how much):
    assert result.cycle_reduction_pct > -0.5, (
        f"{name}: speculation must not lose cycles "
        f"({result.cycle_reduction_pct:+.2f}%)"
    )
    assert result.cycle_reduction_pct < 15.0, (
        f"{name}: gain implausibly large ({result.cycle_reduction_pct:+.2f}%)"
    )
    # cycle gains are explained by data-access gains
    assert result.data_access_reduction_pct >= result.cycle_reduction_pct - 1.0


def test_fig8_table(all_results):
    table = figure8_table(all_results)
    publish_table("figure8_performance", table)
    # Paper shape: at least half the benchmarks lose >5% of their loads,
    # and several land in the 1-7% cycle band.
    big_load_cuts = sum(
        1 for r in all_results.values() if r.load_reduction_pct > 5.0
    )
    assert big_load_cuts >= len(all_results) // 2
    in_band = sum(
        1 for r in all_results.values() if 1.0 <= r.cycle_reduction_pct <= 8.0
    )
    assert in_band >= 5
