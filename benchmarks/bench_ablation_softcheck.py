"""Ablation B — ALAT checks vs software checks for the same
speculation decisions.

``SpecMode.SOFTWARE`` runs the *profile-guided* speculation through
Nicolau-style compare-and-reload instead of the ALAT.  The paper's
section 5 argument: "The major advantage of using ALAT is that the
comparison of addresses is done implicitly by hardware" — so the ALAT
build should retire fewer instructions than the software build at the
same promotion decisions.
"""

from __future__ import annotations

import pytest

from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.ir.interp import run_module
from repro.minic import compile_to_ir

from conftest import publish_table, record_counters

WORKLOADS = ("gzip", "vpr", "parser", "vortex", "art")


def _measure(name: str, mode: SpecMode):
    w = get_workload(name)
    out = compile_source(
        w.source,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=mode),
        train_args=list(w.train_args),
        name=w.name,
    )
    return out.run(list(w.ref_args))


@pytest.fixture(scope="module")
def pairs():
    rows = {}
    for name in WORKLOADS:
        ref = run_module(
            compile_to_ir(get_workload(name).source),
            list(get_workload(name).ref_args),
        )
        alat = _measure(name, SpecMode.PROFILE)
        soft = _measure(name, SpecMode.SOFTWARE)
        assert alat.output == ref.output, f"{name}: ALAT build diverged"
        assert soft.output == ref.output, f"{name}: software build diverged"
        record_counters(
            "ablation:softcheck", name, SpecMode.PROFILE.value,
            alat.counters, config={"checks": "alat"},
        )
        record_counters(
            "ablation:softcheck", name, SpecMode.SOFTWARE.value,
            soft.counters, config={"checks": "software"},
        )
        rows[name] = (alat.counters, soft.counters)
    return rows


def test_softcheck_table(pairs):
    def render():
        lines = [
            "Ablation B. ALAT vs software checks (same profile-guided decisions)",
            "-" * 78,
            f"{'benchmark':<10}{'ALAT cycles':>13}{'soft cycles':>13}"
            f"{'ALAT instr':>12}{'soft instr':>12}{'ALAT adv %':>11}",
            "-" * 78,
        ]
        for name, (alat, soft) in pairs.items():
            adv = (
                100.0 * (soft.cpu_cycles - alat.cpu_cycles) / soft.cpu_cycles
                if soft.cpu_cycles
                else 0.0
            )
            lines.append(
                f"{name:<10}{alat.cpu_cycles:>13}{soft.cpu_cycles:>13}"
                f"{alat.instructions:>12}{soft.instructions:>12}{adv:>10.2f}%"
            )
        lines.append("-" * 78)
        return "\n".join(lines)

    table = render()
    publish_table("ablation_softcheck", table)


def test_alat_not_slower_overall(pairs):
    alat_total = sum(a.cpu_cycles for a, _ in pairs.values())
    soft_total = sum(s.cpu_cycles for _, s in pairs.values())
    assert alat_total <= soft_total * 1.01


def test_software_mode_uses_no_checks(pairs):
    for name, (_alat, soft) in pairs.items():
        # Software builds may retain ld.sa control speculation but
        # perform their data-speculation repairs with compares, not
        # ALAT check instructions.
        assert soft.check_failures == 0
