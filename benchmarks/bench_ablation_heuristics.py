"""Ablation D — profile-guided vs heuristic speculation.

Section 3.1: "Other speculation methods, such as using heuristic rules,
can also [be] applied in this framework."  This bench compares the two
deciders: the profile knows exactly which stores never hit which
targets; the heuristics guess from points-to shape (fanout, heap
mixing).  Expectation: heuristics capture part of the profile's win and
never corrupt results.
"""

from __future__ import annotations

import pytest

from repro.ir.interp import run_module
from repro.minic import compile_to_ir
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.workloads.programs import get_workload

from conftest import publish_table, record_counters

WORKLOADS = ("gzip", "vpr", "parser", "vortex", "twolf", "art")


@pytest.fixture(scope="module")
def rows():
    out_rows = {}
    for name in WORKLOADS:
        w = get_workload(name)
        ref = run_module(compile_to_ir(w.source), list(w.ref_args))
        counters = {}
        for mode in (SpecMode.NONE, SpecMode.PROFILE, SpecMode.HEURISTIC):
            out = compile_source(
                w.source,
                CompilerOptions(opt_level=OptLevel.O3, spec_mode=mode),
                train_args=list(w.train_args),
                name=w.name,
            )
            res = out.run(list(w.ref_args))
            assert res.output == ref.output, f"{name}/{mode}: diverged"
            record_counters(
                "ablation:heuristics", name, mode.value, res.counters
            )
            counters[mode] = res.counters
        out_rows[name] = counters
    return out_rows


def _gain(counters, mode):
    base = counters[SpecMode.NONE].cpu_cycles
    return 100.0 * (base - counters[mode].cpu_cycles) / base


def test_heuristics_table(rows):
    def render():
        lines = [
            "Ablation D. Profile-guided vs heuristic speculation (cycle gain %)",
            "-" * 64,
            f"{'benchmark':<10}{'profile %':>12}{'heuristic %':>13}{'captured':>10}",
            "-" * 64,
        ]
        for name, counters in rows.items():
            p = _gain(counters, SpecMode.PROFILE)
            h = _gain(counters, SpecMode.HEURISTIC)
            captured = f"{100.0 * h / p:.0f}%" if p > 0.5 else "n/a"
            lines.append(f"{name:<10}{p:>12.2f}{h:>13.2f}{captured:>10}")
        lines.append("-" * 64)
        return "\n".join(lines)

    table = render()
    publish_table("ablation_heuristics", table)


def test_heuristics_never_catastrophic(rows):
    for name, counters in rows.items():
        h = _gain(counters, SpecMode.HEURISTIC)
        assert h > -3.0, f"{name}: heuristic speculation lost {h:.2f}%"


def test_profile_at_least_matches_heuristics_overall(rows):
    total_p = sum(_gain(c, SpecMode.PROFILE) for c in rows.values())
    total_h = sum(_gain(c, SpecMode.HEURISTIC) for c in rows.values())
    assert total_p >= total_h - 1.0
