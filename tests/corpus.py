"""The compile modes and generated programs that the compile-path
reference tests share.

Plain Python (no pytest import), so ``tests/test_generated_code.py`` can
run as a script under any interpreter to print its golden lines.
"""

from __future__ import annotations

import random

from repro.chaos.campaign import default_modes
from repro.chaos.generator import GeneratedProgram, generate_program
from repro.pipeline import CompilerOptions, OptLevel, SpecMode
from repro.workloads.runner import BASELINE, SPECULATIVE, STATIC_SPECULATIVE


def compile_modes() -> list[CompilerOptions]:
    """Every compile mode the reference tests run: the -O3 baseline,
    the three speculative matrix modes, the software scheme and the
    campaign's modes (``SPECULATIVE()`` and the first campaign mode
    compile alike)."""
    software = CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.SOFTWARE, fallback=False
    )
    return [BASELINE(), SPECULATIVE(), STATIC_SPECULATIVE(), software] + default_modes()


def distinct_modes() -> list[CompilerOptions]:
    """``compile_modes()`` with each compiled-alike mode once."""
    return list({o.describe(): o for o in compile_modes()}.values())


def chaos_program(index: int) -> GeneratedProgram:
    """Program ``index`` of the campaign corpus (``run_campaign(0)``)."""
    return generate_program(random.Random(f"0:{index}"), index)


def service_program(index: int) -> GeneratedProgram:
    """Program ``index`` of the service-cache benchmark's corpus."""
    return generate_program(random.Random(f"svc:0:{index}"), index)
