"""The pressure analysis, liveness, the dead-code sweep, speclint and
SSAPRE against the code they replaced.

``tests/reference_pressure.py`` keeps the ALAT pressure analysis that
built gen/kill for every statement and computed dominators and loops
for every function; ``tests/reference_liveness.py`` keeps the liveness
solve that walked every statement again in each DCE round, its solver,
and the sweep's decision; ``tests/reference_speclint.py`` keeps speclint's
IR and MIR rules.  The compile tests run every kernel, 100 generated
programs, Figure 2 and the class-B program of ROADMAP item 1 under every
mode of ``tests.corpus.compile_modes()`` and, at every call the compiler
makes, require of the passes in use:

* the same pressure report, field by field (every ``FunctionPressure``
  and ``CandidateReport``, the pair estimates in order, the peaks and
  the residue), the same demotion plan, and the same armed facts for
  speclint's SPEC006;
* the same live-in and live-out set of every block;
* the same statements removed in each DCE round, and the same count;
* the same speclint diagnostics, field by field and in order, from the
  IR rules and from the MIR rules.

``tests/reference_ssapre.py`` keeps SSAPRE and candidate collection as
they were before they computed each round's facts once.  The same
programs compile under every mode twice, once with the reference in
the PRE driver's place, and must give the same machine code and the
same ``PREResult`` for every candidate, in order.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

import repro.speclint
from repro.analysis import alatpressure
from repro.chaos.generator import generate_program
from repro.errors import SpecLintError
from repro.ir.stmt import InvalidateCheck
from repro.opt import dce
from repro.pipeline import compile_source
from repro.pre import driver as pre_driver
from repro.speclint import Severity
from repro.target.asmprinter import format_program
from repro.workloads.programs import BENCHMARKS, get_workload
from tests import (
    reference_liveness,
    reference_pressure,
    reference_speclint,
    reference_ssapre,
)
from tests.corpus import chaos_program, compile_modes, service_program

#: generated programs per test, and tests per corpus
BATCH = 10
BATCHES = 5

#: Figure 2's partial redundancy, which PRE repairs with an invala.e:
#: no kernel and none of the generated programs here has one
PARTIAL_REDUNDANCY = """
int a; int b;
int *r;
int main(int n) {
    if (n > 100) { r = &a; } else { r = &b; }
    int x = 0;
    int y = 0;
    if (n % 2 == 0) { x = a + 1; }
    *r = n;
    if (n % 3 == 0) { y = a + 3; }
    print(x); print(y);
    return 0;
}
"""


@pytest.fixture
def checked_passes(monkeypatch):
    """Check every call against the reference.  The returned Counter
    counts the checks made, by kind."""
    checked: collections.Counter = collections.Counter()
    analyze = alatpressure.analyze_module_pressure
    armed = alatpressure.armed_by_stmt
    liveness = dce.compute_liveness
    sweep = dce._sweep_dead_assigns
    lint_ir = repro.speclint.lint_module
    lint_mir = repro.speclint.lint_program

    def analyze_checked(module, *args, **kwargs):
        reference = reference_pressure.analyze_module_pressure(module, *args, **kwargs)
        result = analyze(module, *args, **kwargs)
        assert result == reference
        assert result.demotion_plan() == reference.demotion_plan()
        checked["pressure"] += 1
        checked["candidates"] += sum(1 for _ in result.all_candidates())
        checked["invalas"] += sum(
            isinstance(stmt, InvalidateCheck)
            for fn in module.iter_functions() for stmt in fn.iter_stmts()
        )
        return result

    def armed_checked(fn):
        result = armed(fn)
        assert result == reference_pressure.armed_by_stmt(fn)
        checked["armed"] += 1
        return result

    def liveness_checked(fn, *args):
        result = liveness(fn, *args)
        reference = reference_liveness.compute_liveness(fn)
        assert result.live_in == reference.live_in
        assert result.live_out == reference.live_out
        checked["liveness"] += 1
        return result

    def sweep_checked(fn):
        expected = reference_liveness.dead_assigns(fn)
        before = [list(block.stmts) for block in fn.blocks]
        removed = sweep(fn)
        kept = {stmt.sid for stmt in fn.iter_stmts()}
        gone = [
            stmt.sid for stmts in before for stmt in reversed(stmts)
            if stmt.sid not in kept
        ]
        assert gone == expected
        assert removed == len(expected)
        checked["sweeps"] += 1
        checked["removed"] += removed
        return removed

    def lint_ir_checked(module, *args, **kwargs):
        reference = reference_speclint.lint_module(module, *args, **kwargs)
        result = lint_ir(module, *args, **kwargs)
        assert diagnostic_fields(result) == diagnostic_fields(reference)
        checked["speclint"] += 1
        checked["lint_errors"] += sum(d.severity is Severity.ERROR for d in result)
        return result

    def lint_mir_checked(program):
        reference = reference_speclint.lint_program(program)
        result = lint_mir(program)
        assert diagnostic_fields(result) == diagnostic_fields(reference)
        checked["speclint_mir"] += 1
        return result

    monkeypatch.setattr(alatpressure, "analyze_module_pressure", analyze_checked)
    monkeypatch.setattr(alatpressure, "armed_by_stmt", armed_checked)
    monkeypatch.setattr(dce, "compute_liveness", liveness_checked)
    monkeypatch.setattr(dce, "_sweep_dead_assigns", sweep_checked)
    monkeypatch.setattr(repro.speclint, "lint_module", lint_ir_checked)
    monkeypatch.setattr(repro.speclint, "lint_program", lint_mir_checked)
    return checked


def diagnostic_fields(diags) -> list[tuple]:
    return [
        (d.rule, d.severity, d.message, d.function, d.loc, d.sid)
        for d in diags
    ]


def compile_every_mode(source: str, train_args) -> None:
    for options in compile_modes():
        # A failed check must fail the test, not a compile retried at a
        # lower level.
        assert not options.fallback
        try:
            compile_source(source, options, train_args=list(train_args))
        except SpecLintError as exc:
            # the one known speclint SPEC002 shape left, about 1
            # program in 2,800 (copy propagation, ROADMAP item 1)
            assert {d.rule for d in exc.report.errors} == {"SPEC002"}


def assert_every_check_ran(checked) -> None:
    assert set(checked) >= {
        "pressure", "candidates", "armed", "liveness", "sweeps",
        "speclint", "speclint_mir",
    }


def test_partial_redundancy(checked_passes):
    compile_every_mode(PARTIAL_REDUNDANCY, [6])
    assert_every_check_ran(checked_passes)
    assert checked_passes["invalas"] > 0


def test_class_b_program(checked_passes):
    """Chaos seed 1 #388, the class-B SPEC002 shape of ROADMAP item 1:
    the one program here on which speclint reports an error."""
    program = generate_program(random.Random("1:388"), 388)
    compile_every_mode(program.source, program.train_args)
    assert checked_passes["speclint"] == len(compile_modes())
    assert checked_passes["lint_errors"] > 0


@pytest.mark.parametrize("name", BENCHMARKS)
def test_kernels(name, checked_passes):
    workload = get_workload(name)
    compile_every_mode(workload.source, workload.train_args)
    assert_every_check_ran(checked_passes)


@pytest.mark.parametrize("batch", range(BATCHES))
@pytest.mark.parametrize("corpus", [chaos_program, service_program])
def test_generated_programs(corpus, batch, checked_passes):
    for index in range(batch * BATCH, (batch + 1) * BATCH):
        program = corpus(index)
        compile_every_mode(program.source, program.train_args)
    assert_every_check_ran(checked_passes)
    assert checked_passes["removed"] > 0


# -- SSAPRE against its reference -------------------------------------------


def pre_outcome(source: str, options, train_args) -> tuple:
    """What one compile produced: the machine code and every
    candidate's ``PREResult`` (its candidate and temp by name), or the
    speclint rules it failed."""
    try:
        output = compile_source(source, options, train_args=list(train_args))
    except SpecLintError as exc:
        return ("speclint", sorted(d.rule for d in exc.report.errors))
    results = {
        fn: [
            (r.candidate.kind, str(r.candidate.template),
             r.temp.name if r.temp is not None else None)
            + tuple(
                getattr(r, f.name) for f in dataclasses.fields(r)
                if f.name not in ("candidate", "temp")
            )
            for r in stats.results
        ]
        for fn, stats in output.pre_stats.items()
    }
    return (format_program(output.program), results)


def assert_pre_matches_reference(source: str, train_args, monkeypatch) -> int:
    """Compile under every mode with the reference SSAPRE and with the
    compiler's; returns the candidates compared."""
    compared = 0
    for options in compile_modes():
        assert not options.fallback
        with monkeypatch.context() as patch:
            patch.setattr(pre_driver, "SSAPRE", reference_ssapre.SSAPRE)
            patch.setattr(
                pre_driver, "collect_candidates",
                reference_ssapre.collect_candidates,
            )
            reference = pre_outcome(source, options, train_args)
        outcome = pre_outcome(source, options, train_args)
        assert outcome == reference, options.describe()
        if outcome[0] != "speclint":
            compared += sum(len(r) for r in outcome[1].values())
    return compared


def test_ssapre_partial_redundancy(monkeypatch):
    assert assert_pre_matches_reference(PARTIAL_REDUNDANCY, [6], monkeypatch) > 0


@pytest.mark.parametrize("name", BENCHMARKS)
def test_ssapre_kernels(name, monkeypatch):
    workload = get_workload(name)
    assert assert_pre_matches_reference(
        workload.source, workload.train_args, monkeypatch
    ) > 0


@pytest.mark.parametrize("batch", range(BATCHES))
@pytest.mark.parametrize("corpus", [chaos_program, service_program])
def test_ssapre_generated_programs(corpus, batch, monkeypatch):
    compared = 0
    for index in range(batch * BATCH, (batch + 1) * BATCH):
        program = corpus(index)
        compared += assert_pre_matches_reference(
            program.source, program.train_args, monkeypatch
        )
    assert compared > 0
