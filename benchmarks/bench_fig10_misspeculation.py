"""Figure 10 — mis-speculation in speculative register promotion.

Paper: the mis-speculation ratio (failed checks / executed checks) is
generally very small; gzip reaches ~5% but its check count is
negligible next to total loads, so the penalty does not matter.
"""

from __future__ import annotations

import pytest

from repro.workloads import figure10_table

from conftest import publish_table


def test_fig10_table(all_results):
    table = figure10_table(all_results)
    publish_table("figure10_misspeculation", table)


def test_fig10_ratios_generally_small(all_results):
    ratios = {
        name: r.misspeculation_ratio_pct for name, r in all_results.items()
    }
    # most benchmarks mis-speculate (almost) never
    near_zero = sum(1 for v in ratios.values() if v < 1.0)
    assert near_zero >= 6, ratios


def test_fig10_gzip_is_the_outlier(all_results):
    gzip = all_results["gzip"]
    assert 1.0 <= gzip.misspeculation_ratio_pct <= 10.0
    # ...but its checks are a tiny fraction of its loads, so the
    # penalty is negligible (the paper's exact argument)
    assert gzip.checks_per_load_pct < 25.0
    assert gzip.cycle_reduction_pct > 0


def test_fig10_checks_actually_execute(all_results):
    # the treatment must really be speculating somewhere
    total_checks = sum(
        r.speculative.counters.check_instructions for r in all_results.values()
    )
    assert total_checks > 1000
