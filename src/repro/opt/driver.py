"""Cleanup pipeline: fold → propagate → eliminate, to a fixed point."""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.module import Module
from repro.opt.constfold import fold_constants_in_function
from repro.opt.copyprop import propagate_copies_in_function
from repro.opt.dce import eliminate_dead_code_in_function

#: safety valve; a function converges in 1.5 iterations on average
#: (1,499 rounds for 999 functions over the chaos-campaign corpus)
_MAX_ITERATIONS = 6


def cleanup_function(fn: Function) -> int:
    """Run the cleanup passes on one function until convergence.

    Returns the total number of changes applied.  Must run *after* all
    promotion rounds: folding replaces expression nodes, which
    invalidates any HSSA/PRE occurrence maps built earlier.
    """
    total = 0
    for _ in range(_MAX_ITERATIONS):
        fold_constants_in_function(fn)
        changes = propagate_copies_in_function(fn)
        changes += eliminate_dead_code_in_function(fn)
        total += changes
        if changes == 0:
            break
    fn.compute_preds()
    return total


def cleanup_module(module: Module) -> int:
    """Clean up every function of ``module``.  The result is not
    verified here: the pipeline verifies the final IR once, right
    before code generation."""
    return sum(cleanup_function(fn) for fn in module.iter_functions())
