"""Compilation options mirroring the paper's experimental modes.

The paper's baseline is ORC at ``-O3``: classical PRE-based register
promotion *plus* the software run-time disambiguation of Nicolau [30].
The treatment adds ALAT-based alias speculation on top.  The matrix:

===================  =====================================================
``O0``               no promotion at all (codegen only)
``O1``               unaliased-scalar promotion only
``O2``               + classical (non-speculative) PRE register promotion
``O3``               + software run-time checks — **the paper's baseline**
===================  =====================================================

``SpecMode.PROFILE`` / ``HEURISTIC`` add the paper's speculative
promotion (ALAT checks) on top of the chosen level; ``SOFTWARE`` runs
the same speculation decisions through the Nicolau-style compare/reload
scheme instead of the ALAT (ablation B).

Always on where they apply, and not options: scalar cleanup after
promotion (``O1`` up), the type-based alias filter (``O2`` up), loop
speculation (``ld.sa``, Figure 3, whenever promotion speculates) and
the ``invala.e`` scheme for partial redundancy (Figure 2, under ALAT
speculation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.alias.manager import AliasAnalysisKind
from repro.machine.cpu import MachineConfig


class OptLevel(enum.IntEnum):
    O0 = 0
    O1 = 1
    O2 = 2
    O3 = 3


class SpecLintMode(enum.Enum):
    """How the ``speclint`` phase treats speculation-safety findings."""

    #: error-severity findings abort the compilation (the default)
    STRICT = "strict"
    #: findings are collected on ``CompileOutput.diagnostics`` only
    WARN = "warn"
    #: the analyzer does not run
    OFF = "off"


class PromotionGate(enum.Enum):
    """How the static ALAT pressure analysis gates speculative promotion
    (:mod:`repro.analysis.alatpressure`)."""

    #: the pressure phase does not run
    OFF = "off"
    #: negative-profit candidates produce ``PRESSURE`` warnings on
    #: ``CompileOutput.diagnostics`` but stay promoted (the default)
    WARN = "warn"
    #: negative-profit candidates (plus their cascade dependents) are
    #: demoted back to conservative loads before codegen
    ON = "on"


class AliasProbSource(enum.Enum):
    """Where the pressure model's per-pair alias probabilities come
    from (:mod:`repro.analysis.probalias`)."""

    #: the training-run alias profile and the paper's constants (the
    #: default; requires a profiled spec mode for real probabilities)
    PROFILE = "profile"
    #: the static estimator only — no profiling run consulted at all
    STATIC = "static"
    #: the profile where the training run executed the store, static
    #: estimates backfilling everything else (instead of the flat
    #: ``P_ALIAS_UNSEEN`` residual)
    HYBRID = "hybrid"


class SpecMode(enum.Enum):
    #: no alias speculation (classical promotion only)
    NONE = "none"
    #: χ_s/μ_s from an alias profile (paper's main configuration)
    PROFILE = "profile"
    #: χ_s/μ_s from heuristic rules (no training run needed)
    HEURISTIC = "heuristic"
    #: profile-driven speculation lowered to software checks [30]
    SOFTWARE = "software"


@dataclass
class CompilerOptions:
    opt_level: OptLevel = OptLevel.O3
    spec_mode: SpecMode = SpecMode.NONE
    alias_analysis: AliasAnalysisKind = AliasAnalysisKind.ANDERSEN
    #: promotion rounds (2 enables cascaded pointer chains, section 2.4)
    rounds: int = 1
    #: speculation-safety analyzer (repro.speclint) after codegen
    speclint: SpecLintMode = SpecLintMode.STRICT
    #: static ALAT pressure gate on speculative promotion (off|warn|on);
    #: only consulted when the compilation speculates through the ALAT
    promotion_gate: PromotionGate = PromotionGate.WARN
    #: alias-probability source for the pressure gate (and, under
    #: ``SpecMode.HEURISTIC``, the speculation decider):
    #: profile|static|hybrid
    alias_prob: AliasProbSource = AliasProbSource.PROFILE
    machine: MachineConfig = field(default_factory=MachineConfig)

    def describe(self) -> str:
        """A name for the compiled program: every field that changes it
        and is off its default is named, so two option sets share a
        name only when they compile alike (``speclint`` only acts on
        failures; ``machine`` is keyed separately wherever runs are
        identified)."""
        parts = [f"-O{int(self.opt_level)}"]
        if self.spec_mode is not SpecMode.NONE:
            parts.append(f"spec={self.spec_mode.value}")
        if self.alias_prob is not AliasProbSource.PROFILE:
            parts.append(f"alias-prob={self.alias_prob.value}")
        if self.rounds != 1:
            parts.append(f"rounds={self.rounds}")
        if self.promotion_gate is not PromotionGate.WARN:
            parts.append(f"gate={self.promotion_gate.value}")
        parts.append(self.alias_analysis.value)
        return " ".join(parts)
