"""The code the compiler generates for a fixed corpus of generated
programs, pinned line by line.

``regression-gate`` pins the ten kernels through their run records;
this golden pins 30 campaign and 30 service-cache programs under every
distinct mode of ``tests.corpus.compile_modes()``.  Each line holds a
sha of the printed program plus the PRE check and reload counts and
the machine instruction count, so a compile-path change that moves any
generated instruction shows here as a changed line.

Regenerate (and explain the change in CHANGES.md) with::

    PYTHONPATH=src python -m tests.test_generated_code \\
        > tests/golden/generated_code.txt
"""

from __future__ import annotations

import hashlib
import os
import sys

from repro.errors import SpecLintError
from repro.pipeline import compile_source
from repro.target.asmprinter import format_program
from tests.corpus import chaos_program, distinct_modes, service_program

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "generated_code.txt")

PROGRAMS = 30


def _corpus():
    for i in range(PROGRAMS):
        yield f"chaos:{i}", chaos_program(i)
    for i in range(PROGRAMS):
        yield f"svc:{i}", service_program(i)


def _line(label: str, program, options) -> str:
    mode = options.describe()
    try:
        out = compile_source(
            program.source, options, train_args=list(program.train_args)
        )
    except SpecLintError as exc:
        rules = ",".join(sorted({d.rule for d in exc.report.errors}))
        return f"{label} | {mode} | speclint {rules}"
    sha = hashlib.sha256(format_program(out.program).encode()).hexdigest()[:16]
    checks = out.total_checks
    reloads = sum(s.reloads for s in out.pre_stats.values())
    minstrs = sum(len(f.instrs) for f in out.program.functions.values())
    return f"{label} | {mode} | {sha} | {checks} | {reloads} | {minstrs}"


def golden_lines() -> list[str]:
    modes = distinct_modes()
    return [
        _line(label, program, options)
        for label, program in _corpus()
        for options in modes
    ]


def test_generated_code_matches_the_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    got = golden_lines()
    moved = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not moved, "generated code moved:\n" + "\n".join(
        f"- {e}\n+ {g}" for e, g in moved[:10]
    )
    assert len(got) == len(expected)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in golden_lines()))
