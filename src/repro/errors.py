"""Shared exception hierarchy for the repro compiler and simulator.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems: the MiniC frontend, the mid-level IR, the optimiser, the code
generator and the machine simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """Invalid machine/compiler configuration (bad ALAT geometry...)."""


class SourceError(ReproError):
    """Error in MiniC source code, carrying a source location.

    Attributes:
        line: 1-based line number of the offending token, or 0 if unknown.
        column: 1-based column number, or 0 if unknown.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """Invalid character or malformed token in MiniC source."""


class ParseError(SourceError):
    """Syntax error in MiniC source."""


class SemanticError(SourceError):
    """Type error or symbol-resolution error in MiniC source."""


class IRError(ReproError):
    """Malformed IR detected by construction or verification."""


class VerificationError(IRError):
    """The IR verifier found a structural violation (bug in a pass)."""


class SpecLintError(IRError):
    """The speculation-safety analyzer found an error-severity violation
    of the ALAT protocol (strict mode only).

    Carries the full :class:`repro.speclint.LintReport` so callers can
    inspect every diagnostic, not just the rendered message.
    """

    def __init__(self, report) -> None:
        self.report = report
        errors = getattr(report, "errors", [])
        head = f"speclint: {len(errors)} speculation-safety error(s)"
        body = report.format() if hasattr(report, "format") else str(report)
        super().__init__(f"{head}\n{body}")


class InterpError(ReproError):
    """Runtime error while interpreting IR (bad address, div by zero...)."""


class InterpTimeout(InterpError):
    """The interpreter exhausted its fuel/step budget.

    Fuzzing and workload harnesses pass a bounded ``max_steps`` so a
    generated or adversarial program can never hang the process; they
    catch this class to record the run as "timed out" and move on.
    """


class InterpLimitExceeded(InterpTimeout):
    """The interpreter hit its step budget (likely a non-terminating run).

    Kept as the concrete raised class for backwards compatibility;
    ``InterpTimeout`` is the documented catch point.
    """


class CodegenError(ReproError):
    """The code generator could not lower an IR construct."""


class MachineError(ReproError):
    """Runtime fault in the machine simulator.

    A fault that leaves :meth:`repro.machine.cpu.Simulator.run` carries
    ``output``, the lines the guest printed before it.
    """

    output: tuple[str, ...] = ()


class MachineLimitExceeded(MachineError):
    """The simulator hit its cycle/instruction budget."""
