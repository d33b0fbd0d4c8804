"""Speculation-safety analyzer (``repro.speclint``).

A static verifier for the data-speculation protocol CodeMotion emits
(paper sections 2.4, 3.4-3.5): after SSAPRE the IR-level rules check
that every ``ld.c``/``chk.a`` is anchored by an advanced load, that no
speculated-away store can reach a reuse without a check, that ``chk.a``
recovery re-executes the full cascade chain, that hoisted ``ld.sa``
loads keep their repair inside the loop, that ``invala.e`` placements
dominate the region they clear, and that no loop keeps more advanced
loads simultaneously live than the ALAT has entries.  After codegen the
MIR-level rules re-check dominance and recovery-block structure over
the label/branch CFG.  A differential translation-validation mode
(:mod:`repro.speclint.tv`) interprets the conservative and speculative
programs side by side and reports the first divergent observable.

Every finding is a :class:`Diagnostic` with a stable ``SPEC###`` rule
id, a severity, and the source :class:`~repro.ir.loc.Loc` — rendered as
text or JSON, emitted as ``speclint.diag`` trace events, and enforced
by the ``speclint`` pipeline phase (strict mode fails the compilation
on any error-severity finding).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SpecLintError
from repro.obs.trace import TraceContext
from repro.speclint.diagnostics import (
    Diagnostic,
    LintReport,
    RULE_TABLE,
    Severity,
)
from repro.speclint.rules import PromotionFacts, lint_module
from repro.speclint.mir import lint_program
from repro.speclint.tv import diff_executions, validate_translation

if TYPE_CHECKING:
    from repro.pipeline.driver import CompileOutput

__all__ = [
    "Diagnostic",
    "LintReport",
    "PromotionFacts",
    "RULE_TABLE",
    "Severity",
    "diff_executions",
    "lint_module",
    "lint_output",
    "lint_program",
    "run_speclint",
    "validate_translation",
]


def facts_from_pre_stats(pre_stats: dict, alias_manager) -> PromotionFacts:
    """Build the temp -> memory-object metadata the alias-aware rules
    consume from the per-function PRE statistics the driver kept."""
    targets_by_temp: dict[int, frozenset[int]] = {}
    var_by_temp: dict[int, int] = {}
    for stats in pre_stats.values():
        for result in stats.results:
            if result.temp is None:
                continue
            cand = result.candidate
            ids = set(cand.target_ids)
            if cand.var is not None:
                var_by_temp[result.temp.id] = cand.var.id
                if alias_manager is not None:
                    obj = alias_manager.object_of_var(cand.var)
                    if obj is not None:
                        ids.add(obj.id)
            targets_by_temp[result.temp.id] = frozenset(ids)
    return PromotionFacts(
        targets_by_temp=targets_by_temp, var_by_temp=var_by_temp
    )


def lint_output(output: "CompileOutput") -> LintReport:
    """Run the full analyzer (IR rules + MIR rules) over one
    compilation's final module and machine program."""
    facts = facts_from_pre_stats(output.pre_stats, output.alias_manager)
    diags = lint_module(
        output.module,
        alias_manager=output.alias_manager,
        facts=facts,
        alat_entries=output.options.machine.alat.entries,
    )
    diags.extend(lint_program(output.program))
    return LintReport(diags)


def run_speclint(
    output: "CompileOutput",
    mode,
    obs: Optional[TraceContext] = None,
) -> LintReport:
    """Analyze ``output``, emit one ``speclint.diag`` trace event per
    finding, and raise :class:`SpecLintError` in strict mode when any
    error-severity diagnostic is present.  Returns the report."""
    from repro.pipeline.options import SpecLintMode

    report = lint_output(output)
    # Extend rather than replace: the pressure gate already parked its
    # diagnostics on the output.
    output.diagnostics.extend(report.diagnostics)
    if obs is not None and obs.enabled:
        for diag in report.diagnostics:
            obs.event("speclint.diag", **diag.as_event())
    if mode is SpecLintMode.STRICT and report.errors:
        raise SpecLintError(report)
    return report
