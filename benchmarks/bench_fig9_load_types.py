"""Figure 9 — direct vs indirect loads among the eliminated loads.

Paper: indirect loads account for the majority of reduced loads in
ammp, gzip, mcf and parser — the benchmarks whose hot paths chase
pointers — because only the ALAT scheme can speculatively promote
indirect references (section 5 contrasts this with SLAT, and the -O3
software scheme is scalar-only).
"""

from __future__ import annotations

import pytest

from repro.workloads import figure9_table

from conftest import publish_table

#: Benchmarks the paper singles out as indirect-dominated.
INDIRECT_HEAVY = ("ammp", "gzip", "mcf")


def test_fig9_table(all_results):
    table = figure9_table(all_results)
    publish_table("figure9_load_types", table)


def test_fig9_indirect_majority(all_results):
    for name in INDIRECT_HEAVY:
        kinds = all_results[name].reduced_loads_by_kind
        total = kinds["direct"] + kinds["indirect"]
        assert total > 0, f"{name}: no loads eliminated at all"
        share = kinds["indirect"] / total
        assert share >= 0.5, (
            f"{name}: indirect share {share:.0%} — the paper reports an "
            "indirect majority here"
        )


def test_fig9_parser_substantial_indirect(all_results):
    kinds = all_results["parser"].reduced_loads_by_kind
    total = kinds["direct"] + kinds["indirect"]
    assert total > 0
    assert kinds["indirect"] / total >= 0.4


def test_fig9_scalar_benchmarks_direct(all_results):
    # vpr/vortex/bzip2/twolf reduce mostly named scalars
    for name in ("vpr", "vortex", "bzip2", "twolf"):
        kinds = all_results[name].reduced_loads_by_kind
        total = kinds["direct"] + kinds["indirect"]
        assert total > 0
        assert kinds["direct"] / total >= 0.5
