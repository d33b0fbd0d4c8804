"""Ablation E — pointer-analysis precision vs speculation opportunity.

ORC's baseline runs a *sequence* of pointer analyses (section 4).  This
ablation swaps the solver under both configurations:

* a **less precise** static analysis (Steensgaard's unification) makes
  more loads look aliased, which the *baseline* cannot promote — so the
  speculative treatment has more to win;
* a **more precise** analysis (Andersen) closes part of that gap
  statically.

The paper's framing ("one alternative to a more precise alias analysis
is to have hardware support") predicts the speculative gain should not
*increase* when the static analysis gets better.
"""

from __future__ import annotations

import pytest

from repro.alias.manager import AliasAnalysisKind
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.ir.interp import run_module
from repro.minic import compile_to_ir
from repro.workloads.programs import get_workload

from conftest import publish_table, record_counters

WORKLOADS = ("gzip", "vpr", "parser", "vortex", "twolf")


def _gain(name: str, kind: AliasAnalysisKind) -> float:
    w = get_workload(name)
    ref = run_module(compile_to_ir(w.source), list(w.ref_args))
    cycles = {}
    for mode in (SpecMode.NONE, SpecMode.PROFILE):
        out = compile_source(
            w.source,
            CompilerOptions(
                opt_level=OptLevel.O3, spec_mode=mode, alias_analysis=kind
            ),
            train_args=list(w.train_args),
            name=w.name,
        )
        res = out.run(list(w.ref_args))
        assert res.output == ref.output, f"{name}/{kind.value}/{mode}: diverged"
        record_counters(
            "ablation:alias_analysis", name, mode.value, res.counters,
            config={"alias_analysis": kind.value},
        )
        cycles[mode] = res.counters.cpu_cycles
    return 100.0 * (cycles[SpecMode.NONE] - cycles[SpecMode.PROFILE]) / cycles[
        SpecMode.NONE
    ]


@pytest.fixture(scope="module")
def gains():
    return {
        name: {
            kind: _gain(name, kind)
            for kind in (AliasAnalysisKind.ANDERSEN, AliasAnalysisKind.STEENSGAARD)
        }
        for name in WORKLOADS
    }


def test_alias_analysis_table(gains):
    def render():
        lines = [
            "Ablation E. Speculative gain under different pointer analyses (cycle %)",
            "-" * 64,
            f"{'benchmark':<10}{'andersen %':>13}{'steensgaard %':>15}",
            "-" * 64,
        ]
        for name, row in gains.items():
            lines.append(
                f"{name:<10}{row[AliasAnalysisKind.ANDERSEN]:>13.2f}"
                f"{row[AliasAnalysisKind.STEENSGAARD]:>15.2f}"
            )
        lines.append("-" * 64)
        return "\n".join(lines)

    table = render()
    publish_table("ablation_alias_analysis", table)


def test_correct_under_both_solvers(gains):
    # the fixture already differentially validated every run
    assert set(gains) == set(WORKLOADS)


def test_speculation_not_hurt_by_coarser_analysis(gains):
    """Coarser static analysis should not reduce the total speculative
    advantage (hardware absorbs the imprecision)."""
    total_and = sum(r[AliasAnalysisKind.ANDERSEN] for r in gains.values())
    total_ste = sum(r[AliasAnalysisKind.STEENSGAARD] for r in gains.values())
    assert total_ste >= total_and - 1.5
