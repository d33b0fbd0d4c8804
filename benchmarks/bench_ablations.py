"""Ablations A–E — the paper's own arguments, measured as sweeps.

Every sweep point is one :func:`repro.workloads.run_benchmark` call, the
harness behind Figures 8–11: it compiles each mode, simulates it on the
ref input, and checks its output against the unoptimised interpreter.
An axis is a value in the modes table — a machine geometry, a workload,
an extra mode — not a new measurement loop.

* **A** (section 5): the ALAT is small; does capacity pressure matter?
* **B** (section 5): the ALAT compares addresses for free; software
  checks pay for the comparison.
* **C** (sections 2.5 and 4): a misspeculation can cost more than it
  saves.
* **D** (section 3.1): heuristic rules can stand in for the profile.
* **E** (section 5): hardware support absorbs imprecision in the static
  alias analysis.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.alias.manager import AliasAnalysisKind
from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig
from repro.pipeline import SpecMode
from repro.workloads import BASELINE, SPECULATIVE, Workload, run_benchmark

from conftest import publish_table


def _gain(base, spec) -> float:
    """Cycle gain of ``spec`` over ``base`` (two modes' counters), %."""
    return 100.0 * (base.cpu_cycles - spec.cpu_cycles) / base.cpu_cycles


def _paper_modes(**changes) -> dict:
    """The baseline and speculative modes, both with ``changes``."""
    return {
        "baseline": dataclasses.replace(BASELINE(), **changes),
        "speculative": dataclasses.replace(SPECULATIVE(), **changes),
    }


# -- A: ALAT capacity ------------------------------------------------------
#
# The ALAT is small (32 entries, 2-way on Itanium).  Entries evicted for
# capacity make later checks fail spuriously, turning free ld.c's back
# into loads.  Sweeping the entry count shows the check-failure knee and
# confirms 32 entries suffice for these workloads (the paper's section
# 5 notes the ALAT "requires fewer entries than the register file").

SIZES = (2, 4, 8, 16, 32, 64)
#: check-heavy workloads where capacity pressure is visible
ALAT_WORKLOADS = ("ammp", "equake", "mcf")


@pytest.fixture(scope="module")
def alat_sweep():
    """``{workload: {entries: (check failures, cycle gain %,
    capacity evictions)}}`` of the speculative mode."""
    rows = {}
    for name in ALAT_WORKLOADS:
        rows[name] = {}
        for entries in SIZES:
            machine = MachineConfig(
                alat=ALATConfig(entries=entries, associativity=2)
            )
            r = run_benchmark(
                name, _paper_modes(machine=machine), use_cache=False
            )
            rows[name][entries] = (
                r.speculative.counters.check_failures,
                r.cycle_reduction_pct,
                r.speculative.machine.alat_stats.capacity_evictions,
            )
    return rows


def test_alat_size_table(alat_sweep):
    lines = [
        "Ablation A. ALAT capacity sweep (check failures / cycle gain % / evictions)",
        "-" * 78,
        f"{'benchmark':<10}" + "".join(f"{s:>11}" for s in SIZES),
        "-" * 78,
    ]
    for name, row in alat_sweep.items():
        cells = "".join(f"{row[s][0]:>5}/{row[s][1]:>4.1f}%" for s in SIZES)
        lines.append(f"{name:<10}{cells}")
    lines.append("-" * 78)
    publish_table("ablation_alat_size", "\n".join(lines))


def test_small_alat_fails_more_checks(alat_sweep):
    for name, row in alat_sweep.items():
        assert row[SIZES[0]][0] >= row[32][0], (
            f"{name}: shrinking the ALAT must not reduce failures"
        )


def test_itanium_size_is_sufficient(alat_sweep):
    """32 entries behave like 64 on these working sets."""
    for name, row in alat_sweep.items():
        assert row[32][0] <= row[64][0] + max(5, row[64][0] // 5)


def test_capacity_evictions_monotone(alat_sweep):
    for name, row in alat_sweep.items():
        assert row[2][2] >= row[64][2]


# -- B, D, E: one run per workload, six modes ------------------------------
#
# B swaps the ALAT for Nicolau-style compare-and-reload checks under the
# same profile-guided decisions (``software``).  D swaps the profile for
# heuristic rules that guess from points-to shape (``heuristic``).  E
# swaps Andersen's solver for Steensgaard's coarser unification under
# both paper modes: a less precise analysis makes more loads look
# aliased, which the baseline cannot promote but speculation can.

#: one run per workload of the union; each table reports its own rows
MODE_WORKLOADS = ("gzip", "vpr", "parser", "vortex", "twolf", "art")
SOFTCHECK_WORKLOADS = ("gzip", "vpr", "parser", "vortex", "art")
HEURISTIC_WORKLOADS = MODE_WORKLOADS
ALIAS_WORKLOADS = ("gzip", "vpr", "parser", "vortex", "twolf")


def _modes() -> dict:
    o3 = BASELINE()
    steensgaard = _paper_modes(alias_analysis=AliasAnalysisKind.STEENSGAARD)
    return {
        **_paper_modes(),
        "software": dataclasses.replace(o3, spec_mode=SpecMode.SOFTWARE),
        "heuristic": dataclasses.replace(o3, spec_mode=SpecMode.HEURISTIC),
        **{f"{label}-steensgaard": o for label, o in steensgaard.items()},
    }


@pytest.fixture(scope="module")
def mode_runs():
    """``{workload: {mode label: counters}}``."""
    rows = {}
    for name in MODE_WORKLOADS:
        r = run_benchmark(name, _modes(), use_cache=False)
        rows[name] = {mode.label: mode.counters for mode in r.modes}
    return rows


def test_softcheck_table(mode_runs):
    lines = [
        "Ablation B. ALAT vs software checks (same profile-guided decisions)",
        "-" * 78,
        f"{'benchmark':<10}{'ALAT cycles':>13}{'soft cycles':>13}"
        f"{'ALAT instr':>12}{'soft instr':>12}{'ALAT adv %':>11}",
        "-" * 78,
    ]
    for name in SOFTCHECK_WORKLOADS:
        alat = mode_runs[name]["speculative"]
        soft = mode_runs[name]["software"]
        lines.append(
            f"{name:<10}{alat.cpu_cycles:>13}{soft.cpu_cycles:>13}"
            f"{alat.instructions:>12}{soft.instructions:>12}"
            f"{_gain(soft, alat):>10.2f}%"
        )
    lines.append("-" * 78)
    publish_table("ablation_softcheck", "\n".join(lines))


def test_alat_not_slower_overall(mode_runs):
    alat_total = sum(
        mode_runs[n]["speculative"].cpu_cycles for n in SOFTCHECK_WORKLOADS
    )
    soft_total = sum(
        mode_runs[n]["software"].cpu_cycles for n in SOFTCHECK_WORKLOADS
    )
    assert alat_total <= soft_total * 1.01


def test_software_mode_uses_no_checks(mode_runs):
    # Software builds may retain ld.sa control speculation but perform
    # their data-speculation repairs with compares, not ALAT checks.
    for name in SOFTCHECK_WORKLOADS:
        assert mode_runs[name]["software"].check_failures == 0


def test_heuristics_table(mode_runs):
    lines = [
        "Ablation D. Profile-guided vs heuristic speculation (cycle gain %)",
        "-" * 64,
        f"{'benchmark':<10}{'profile %':>12}{'heuristic %':>13}{'captured':>10}",
        "-" * 64,
    ]
    for name in HEURISTIC_WORKLOADS:
        run = mode_runs[name]
        p = _gain(run["baseline"], run["speculative"])
        h = _gain(run["baseline"], run["heuristic"])
        captured = f"{100.0 * h / p:.0f}%" if p > 0.5 else "n/a"
        lines.append(f"{name:<10}{p:>12.2f}{h:>13.2f}{captured:>10}")
    lines.append("-" * 64)
    publish_table("ablation_heuristics", "\n".join(lines))


def test_heuristics_never_catastrophic(mode_runs):
    for name in HEURISTIC_WORKLOADS:
        run = mode_runs[name]
        h = _gain(run["baseline"], run["heuristic"])
        assert h > -3.0, f"{name}: heuristic speculation lost {h:.2f}%"


def test_profile_at_least_matches_heuristics_overall(mode_runs):
    total_p = total_h = 0.0
    for name in HEURISTIC_WORKLOADS:
        run = mode_runs[name]
        total_p += _gain(run["baseline"], run["speculative"])
        total_h += _gain(run["baseline"], run["heuristic"])
    assert total_p >= total_h - 1.0


def _solver_gains(run) -> tuple[float, float]:
    """(Andersen, Steensgaard) speculative cycle gain, %."""
    return (
        _gain(run["baseline"], run["speculative"]),
        _gain(run["baseline-steensgaard"], run["speculative-steensgaard"]),
    )


def test_alias_analysis_table(mode_runs):
    lines = [
        "Ablation E. Speculative gain under different pointer analyses (cycle %)",
        "-" * 64,
        f"{'benchmark':<10}{'andersen %':>13}{'steensgaard %':>15}",
        "-" * 64,
    ]
    for name in ALIAS_WORKLOADS:
        andersen, steensgaard = _solver_gains(mode_runs[name])
        lines.append(f"{name:<10}{andersen:>13.2f}{steensgaard:>15.2f}")
    lines.append("-" * 64)
    publish_table("ablation_alias_analysis", "\n".join(lines))


def test_speculation_not_hurt_by_coarser_analysis(mode_runs):
    """Coarser static analysis should not reduce the total speculative
    advantage (hardware absorbs the imprecision)."""
    gains = [_solver_gains(mode_runs[name]) for name in ALIAS_WORKLOADS]
    total_and = sum(andersen for andersen, _ in gains)
    total_ste = sum(steensgaard for _, steensgaard in gains)
    assert total_ste >= total_and - 1.5


# -- C: gain against the true aliasing rate --------------------------------
#
# Section 4 warns: "A high mis-speculation ratio can decrease the benefit
# of speculative optimization or even degrade performance ... for the
# chk.a, there is a relatively large penalty to jump to and back from
# the recovery code" (section 2.5).  ld.c failures only cost the
# reload, so plain value speculation can hardly lose; the degradation
# risk lives in **cascaded** promotion, where a failed chk.a pays the
# recovery trap.  This sweep drives a pointer-chain kernel (rounds=2,
# chk.a checks) whose *address* really changes on a controllable
# fraction of iterations, trained on an input where it never does.

#: ``main(n)``: the pointer p (promoted, checked with chk.a after
#: cascade promotion) is really redirected when i % RATE == 0 beyond
#: the training region (train n=40 < 50).
TEMPLATE = """
int a; int b; int c;
int *p;
int *other;
int **q;
int **w;
int out;

int main(int n) {
    q = &p;
    p = &a;
    other = &c;
    a = 3;
    b = 9;
    int i = 0;
    while (i < n) {
        if (i > 50 && i %% %(rate)d == 0) {
            w = &p;                  // really redirects the pointer
        } else {
            w = &other;
        }
        out = out + *(*q);
        *w = &b;                     // address-ambiguous pointer store
        out = out + *(*q) %% 13;
        i = i + 1;
    }
    print(out);
    print(*p);
    return out %% 251;
}
"""

RATES = (1000, 50, 10, 4, 2, 1)


def misspec_kernel(rate: int) -> Workload:
    """The kernel aliasing on every ``rate``-th iteration past 50."""
    return Workload(
        name="misspec_kernel",
        source=TEMPLATE % {"rate": rate},
        train_args=(40,),
        ref_args=(2000,),
        is_float=False,
        description=f"pointer chain redirected every {rate} iterations",
    )


@pytest.fixture(scope="module")
def rate_sweep():
    """``{rate: (cycle gain %, misspeculation ratio %)}``."""
    rows = {}
    for rate in RATES:
        r = run_benchmark(
            misspec_kernel(rate), _paper_modes(rounds=2), use_cache=False
        )
        rows[rate] = (r.cycle_reduction_pct, r.misspeculation_ratio_pct)
    return rows


def test_misspec_rate_table(rate_sweep):
    lines = [
        "Ablation C. Gain vs true aliasing rate (adversarial kernel)",
        "-" * 64,
        f"{'alias every':>12}{'mis-spec ratio %':>18}{'cycle gain %':>14}",
        "-" * 64,
    ]
    for rate in RATES:
        gain, ratio = rate_sweep[rate]
        lines.append(f"{rate:>12}{ratio:>18.1f}{gain:>14.2f}")
    lines.append("-" * 64)
    publish_table("ablation_misspec_rate", "\n".join(lines))


def test_gain_decays_with_aliasing(rate_sweep):
    assert rate_sweep[1000][0] > rate_sweep[1][0], (
        "gains must shrink as true aliasing grows"
    )


def test_ratio_monotone(rate_sweep):
    assert rate_sweep[1000][1] <= rate_sweep[10][1] <= rate_sweep[1][1] + 1e-9


def test_rare_aliasing_still_wins(rate_sweep):
    assert rate_sweep[1000][0] > 0


def test_constant_aliasing_degrades(rate_sweep):
    """With the address changing every iteration, recovery traps should
    erode most (or all) of the speculative advantage."""
    assert rate_sweep[1][0] < rate_sweep[1000][0] * 0.7
