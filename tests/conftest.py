"""Shared test helpers.

The central facility is :func:`assert_all_modes_agree`: compile one
program under every compilation mode and check that interpreter and
simulator outputs all match the unoptimised reference — the repository's
correctness backbone (DESIGN.md section 5).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import pytest

from repro.pipeline import (
    CompilerOptions,
    OptLevel,
    SpecMode,
    compile_source,
    run_program,
)

Value = Union[int, float]

ALL_MODES: list[tuple[OptLevel, SpecMode]] = [
    (OptLevel.O0, SpecMode.NONE),
    (OptLevel.O1, SpecMode.NONE),
    (OptLevel.O2, SpecMode.NONE),
    (OptLevel.O3, SpecMode.NONE),
    (OptLevel.O3, SpecMode.PROFILE),
    (OptLevel.O3, SpecMode.HEURISTIC),
    (OptLevel.O3, SpecMode.SOFTWARE),
]


def assert_all_modes_agree(
    source: str,
    args: Optional[Sequence[Value]] = None,
    train_args: Optional[Sequence[Value]] = None,
    modes: Optional[list[tuple[OptLevel, SpecMode]]] = None,
) -> None:
    """Differential correctness across the whole mode matrix."""
    args = list(args or [])
    train = list(train_args if train_args is not None else args)
    ref = run_program(source, args)
    for lvl, mode in modes or ALL_MODES:
        out = compile_source(
            source,
            CompilerOptions(opt_level=lvl, spec_mode=mode),
            train_args=train,
        )
        ires = out.interpret(args)
        assert ires.output == ref.output, (
            f"interp mismatch at O{int(lvl)}/{mode.value}: "
            f"{ires.output} != {ref.output}"
        )
        assert ires.exit_value == ref.exit_value
        mres = out.run(args)
        assert mres.output == ref.output, (
            f"machine mismatch at O{int(lvl)}/{mode.value}: "
            f"{mres.output} != {ref.output}"
        )
        assert mres.exit_value == ref.exit_value


@pytest.fixture
def pointer_alias_program() -> str:
    """The canonical p-may-point-to-{a,b} example from the paper."""
    return """
    int a;
    int b;
    int *p;

    int main(int n) {
        int s = 0;
        int i = 0;
        if (n > 100) { p = &a; } else { p = &b; }
        a = 7;
        while (i < n) {
            s = s + a;
            *p = s;
            s = s + a;
            i = i + 1;
        }
        print(s);
        print(a);
        print(b);
        return 0;
    }
    """


def translated_regions(program) -> int:
    """How many regions the simulator's translated tier holds for
    ``program``, over every function and machine configuration."""
    return sum(
        len(tier.regions)
        for mf in program.functions.values()
        for tier in mf.decoded().translations.values()
    )
