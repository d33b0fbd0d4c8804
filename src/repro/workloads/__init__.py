"""Synthetic SPEC CPU2000 stand-ins and the experiment harness.

The paper evaluates ten SPEC CPU2000 benchmarks (integer: gzip, vpr,
mcf, parser, vortex, bzip2, twolf; floating point: ammp, art, equake).
SPEC sources and inputs cannot be redistributed and vastly exceed a
Python simulator's budget, so each benchmark here is a MiniC kernel
reproducing the *aliasing structure* that drives the paper's results:
global pointers with fat static points-to sets that are clean at run
time, pointer-chasing loops over heap structures, and FP structure
walks (see DESIGN.md, substitution table).

Each workload has *train* and *ref* parameter sets; the harness mirrors
the paper's methodology — profile on train, measure on ref, against the
-O3 baseline (classical PRE + software run-time checks).
"""

from repro.workloads.programs import BENCHMARKS, Workload, get_workload
from repro.workloads.runner import (
    BenchmarkResult,
    ModeResult,
    WorkloadFailure,
    run_benchmark,
    run_record,
    BASELINE,
    SPECULATIVE,
)
from repro.workloads.report import (
    figure8_table,
    figure9_table,
    figure10_table,
    figure11_table,
    figures_as_dict,
    matrix_table,
    records_json,
)

__all__ = [
    "BENCHMARKS",
    "Workload",
    "get_workload",
    "BenchmarkResult",
    "ModeResult",
    "WorkloadFailure",
    "run_benchmark",
    "run_record",
    "BASELINE",
    "SPECULATIVE",
    "figure8_table",
    "figure9_table",
    "figure10_table",
    "figure11_table",
    "figures_as_dict",
    "matrix_table",
    "records_json",
]
