"""Static vs profile-guided speculation (probabilistic alias analysis).

DESIGN.md §15: the static estimator prices every (candidate, store)
pair from points-to overlap, loop structure and call summaries — no
training run.  This bench runs the full comparison over the workload
matrix: gate-decision agreement against profiled gating on one shared
compilation, Brier score of the static estimates against the profiled
0/1 ground truth, and the end-to-end cost of the static-only
configuration (heuristic speculation + static gating) relative to the
profile-guided one.  Expectation: agreement at or above the 0.80
acceptance bar everywhere, identical outputs, and static-only cycles
within a few percent of profiled.
"""

from __future__ import annotations

import pytest

from repro.analysis.probalias import (
    AGREEMENT_THRESHOLD,
    comparison_table,
    compare_workload,
)
from repro.workloads.programs import BENCHMARKS

from conftest import publish_table


@pytest.fixture(scope="module")
def rows():
    return {name: compare_workload(name) for name in BENCHMARKS}


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_static_agrees_and_matches_output(rows, name):
    row = rows[name]
    assert row.output_match, f"{name}: static-only output diverged"
    assert row.agreement >= AGREEMENT_THRESHOLD, (
        f"{name}: gate agreement {row.agreement:.2f} "
        f"({row.agreements}/{row.candidates})"
    )
    assert row.brier <= 0.25, f"{name}: Brier {row.brier:.3f}"


def test_static_cycles_close_to_profiled(rows):
    """No profile costs something (the estimator cannot see which
    aliasing is real at run time — mcf's pointer chains pay ~5%) but
    must stay in the same league per workload and across the matrix."""
    worse = []
    for name, row in rows.items():
        slowdown = (
            100.0
            * (row.cycles_static - row.cycles_profile)
            / row.cycles_profile
        )
        if slowdown > 8.0:
            worse.append(f"{name}: static {slowdown:+.2f}% cycles")
    assert not worse, worse
    total_s = sum(r.cycles_static for r in rows.values())
    total_p = sum(r.cycles_profile for r in rows.values())
    assert 100.0 * (total_s - total_p) / total_p <= 3.0


def test_static_vs_profile_table(rows):
    publish_table("static_vs_profile", comparison_table(list(rows.values())))
