"""Ablation A — ALAT capacity sweep.

The ALAT is small (32 entries, 2-way on Itanium).  Entries evicted for
capacity make later checks fail spuriously, turning free ld.c's back
into loads.  Sweeping the entry count shows the check-failure knee and
confirms 32 entries suffice for these workloads (the paper's section 5
notes the ALAT "requires fewer entries than the register file").
"""

from __future__ import annotations

import pytest

from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig
from repro.workloads import run_benchmark
from repro.workloads.programs import BENCHMARKS

from conftest import publish_table, record_benchmark

SIZES = (2, 4, 8, 16, 32, 64)
#: check-heavy workloads where capacity pressure is visible
WORKLOADS = ("ammp", "equake", "mcf")


def _run_with_alat_entries(name: str, entries: int):
    config = MachineConfig(alat=ALATConfig(entries=entries, associativity=2))
    return run_benchmark(name, machine_config=config, use_cache=False)


@pytest.fixture(scope="module")
def sweep():
    rows = {}
    for name in WORKLOADS:
        rows[name] = {}
        for entries in SIZES:
            r = _run_with_alat_entries(name, entries)
            record_benchmark(
                r, suite="ablation:alat_size",
                config={"alat_entries": entries},
            )
            c = r.speculative.counters
            rows[name][entries] = (
                c.check_failures,
                r.cycle_reduction_pct,
                r.speculative.machine.alat_stats.capacity_evictions,
            )
    return rows


def test_alat_size_table(sweep):
    def render():
        lines = [
            "Ablation A. ALAT capacity sweep (check failures / cycle gain % / evictions)",
            "-" * 78,
            f"{'benchmark':<10}" + "".join(f"{s:>11}" for s in SIZES),
            "-" * 78,
        ]
        for name, row in sweep.items():
            cells = "".join(
                f"{row[s][0]:>5}/{row[s][1]:>4.1f}%" for s in SIZES
            )
            lines.append(f"{name:<10}{cells}")
        lines.append("-" * 78)
        return "\n".join(lines)

    table = render()
    publish_table("ablation_alat_size", table)


def test_small_alat_fails_more_checks(sweep):
    for name, row in sweep.items():
        tiny_failures = row[SIZES[0]][0]
        full_failures = row[32][0]
        assert tiny_failures >= full_failures, (
            f"{name}: shrinking the ALAT must not reduce failures"
        )


def test_itanium_size_is_sufficient(sweep):
    """32 entries behave like 64 on these working sets."""
    for name, row in sweep.items():
        assert row[32][0] <= row[64][0] + max(5, row[64][0] // 5)


def test_capacity_evictions_monotone(sweep):
    for name, row in sweep.items():
        assert row[2][2] >= row[64][2]
