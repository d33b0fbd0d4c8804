"""Experiment harness: compile + profile + simulate per benchmark.

Methodology mirrors the paper (section 4): the alias profile is
collected on the *train* input, the generated code runs on the *ref*
input, and the baseline for comparison is the -O3 configuration
(classical PRE register promotion plus Nicolau-style software run-time
checks).  Every run's observable output is differentially checked
against the unoptimised interpreter before any number is reported.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.machine.counters import Counters
from repro.machine.cpu import MachineResult
from repro.obs import JsonlSink, TraceContext
from repro.pipeline import (
    CompileOutput,
    CompilerOptions,
    OptLevel,
    SpecMode,
    compile_source,
    run_program,
)
from repro.workloads.programs import Workload, get_workload

#: default interpreter fuel per workload run (oracle + profile train).
#: Generous — the largest ref run (mcf) retires 247,522 oracle steps —
#: but finite, so a runaway workload surfaces as a structured
#: ``timeout`` failure (:class:`repro.errors.InterpTimeout`) instead of
#: hanging the matrix.
DEFAULT_INTERP_FUEL = 50_000_000


def BASELINE() -> CompilerOptions:
    """The paper's -O3 baseline: classical PRE + software checks.

    ``fallback`` is off: a measurement that silently degraded to -O0
    would corrupt every reduction percentage it feeds into."""
    return CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.NONE, fallback=False
    )


def SPECULATIVE() -> CompilerOptions:
    """-O3 + profile-guided ALAT speculation (the paper's treatment)."""
    return CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, fallback=False
    )


def STATIC_SPECULATIVE() -> CompilerOptions:
    """-O3 + static-only ALAT speculation: heuristic decisions priced by
    the probalias estimator, promotion gated ON by the same static
    probabilities — no alias-profiling (train) run at all."""
    from repro.pipeline import AliasProbSource, PromotionGate

    return CompilerOptions(
        opt_level=OptLevel.O3,
        spec_mode=SpecMode.HEURISTIC,
        alias_prob=AliasProbSource.STATIC,
        promotion_gate=PromotionGate.ON,
        fallback=False,
    )


@dataclass
class WorkloadFailure:
    """One benchmark that failed to compile, run, or validate."""

    name: str
    exc_type: str
    error: str
    #: ``line:column`` when the exception carried a source location
    loc: Optional[str] = None
    #: failure class: ``"error"`` or ``"timeout"`` (interpreter fuel /
    #: service wall-clock exhausted) — what CI and the service report
    kind: str = "error"

    def format(self) -> str:
        where = f" at {self.loc}" if self.loc else ""
        tag = " [timeout]" if self.kind == "timeout" else ""
        return f"{self.name}{where}: {self.exc_type}: {self.error}{tag}"


#: ``build_metrics`` sections that measure the host, not the program:
#: they stay out of a run record and ride beside it
HOST_SECTIONS = ("phase_wall_ms", "phase_mem_kb", "host")


@dataclass
class ModeResult:
    """One (benchmark, compilation mode) measurement.

    ``record`` is its run record (:func:`run_record`) and ``host`` the
    host-side sections kept out of it.  A live run also keeps its
    options, compile output and machine result; a mode rebuilt from its
    record (:meth:`from_record`) has none of them."""

    label: str
    counters: Counters
    record: dict
    host: dict = field(default_factory=dict)
    options: Optional[CompilerOptions] = None
    compile_output: Optional[CompileOutput] = None
    machine: Optional[MachineResult] = None

    @classmethod
    def from_record(cls, record: dict, host: dict) -> "ModeResult":
        """Rebuild from a run record and its host sections."""
        metrics = record.get("metrics", {})
        known = {f.name for f in dataclasses.fields(Counters)}
        counters = Counters(**{
            k: v for k, v in metrics.get("counters", {}).items() if k in known
        })
        return cls(record.get("mode", "?"), counters, record, host)

    @property
    def retired_direct_loads(self) -> int:
        c = self.counters
        return c.retired_loads - c.retired_indirect_loads

    @property
    def host_metrics(self) -> dict:
        """Host-side performance of this measurement (wall ms, simulate
        wall ms, simulated steps per host second)."""
        return self.host.get("host", {})


def run_record(
    bench: str,
    label: str,
    options: CompilerOptions,
    output: CompileOutput,
    machine: MachineResult,
) -> tuple[dict, dict]:
    """The run record of one live measurement, and its host sections.

    The record holds the deterministic ``build_metrics`` sections, the
    options string and machine geometry, and — when the run was
    profiled — per-ALAT-site stats.  It is what a ``bench`` job returns
    (the host sections ride in the job's ``extra``), what
    ``records.json`` holds, and what :meth:`BenchmarkResult.from_records`
    rebuilds the figure tables from."""
    from repro.obs import build_metrics

    metrics = build_metrics(output, machine)
    host = {k: metrics.pop(k) for k in HOST_SECTIONS if k in metrics}
    record = {
        "bench": bench,
        "mode": label,
        "config": {"options": options.describe()},
        "machine": dataclasses.asdict(options.machine),
        "metrics": metrics,
    }
    profile = machine.profile
    if profile is not None and profile.sites:
        record["sites"] = [site.as_dict() for site in profile.sites.values()]
    return record, host


@dataclass
class BenchmarkResult:
    """Baseline vs speculative measurement for one benchmark."""

    workload: Optional[Workload]
    baseline: ModeResult
    speculative: ModeResult
    extras: dict[str, ModeResult] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls,
        records: dict[str, dict],
        host: dict[str, dict],
        workload: Optional[Workload] = None,
    ) -> "BenchmarkResult":
        """Rebuild from ``{mode label: run record}`` and ``{mode label:
        host sections}``.  The reduction properties are the real ones,
        so a table rendered from records is byte-identical to one
        computed from the live runs that wrote them."""
        modes = {
            label: ModeResult.from_record(rec, host.get(label, {}))
            for label, rec in records.items()
        }
        return cls(
            workload, modes.pop("baseline"), modes.pop("speculative"), modes
        )

    @property
    def modes(self) -> list[ModeResult]:
        return [self.baseline, self.speculative, *self.extras.values()]

    # -- Figure 8 -----------------------------------------------------

    def _reduction(self, attr: str) -> float:
        base = getattr(self.baseline.counters, attr)
        spec = getattr(self.speculative.counters, attr)
        if base == 0:
            return 0.0
        return 100.0 * (base - spec) / base

    @property
    def cycle_reduction_pct(self) -> float:
        return self._reduction("cpu_cycles")

    @property
    def data_access_reduction_pct(self) -> float:
        return self._reduction("data_access_cycles")

    @property
    def load_reduction_pct(self) -> float:
        return self._reduction("retired_loads")

    # -- Figure 9 -----------------------------------------------------

    @property
    def reduced_loads_by_kind(self) -> dict[str, int]:
        return {
            "direct": self.baseline.retired_direct_loads
            - self.speculative.retired_direct_loads,
            "indirect": self.baseline.counters.retired_indirect_loads
            - self.speculative.counters.retired_indirect_loads,
        }

    # -- Figure 10 ----------------------------------------------------

    @property
    def misspeculation_ratio_pct(self) -> float:
        return 100.0 * self.speculative.counters.misspeculation_ratio

    @property
    def checks_per_load_pct(self) -> float:
        return 100.0 * self.speculative.counters.checks_per_load

    # -- Figure 11 ----------------------------------------------------

    @property
    def rse_increase_pct(self) -> float:
        base = self.baseline.counters.rse_cycles
        spec = self.speculative.counters.rse_cycles
        if base == 0:
            return 0.0 if spec == 0 else 100.0
        return 100.0 * (spec - base) / base

    @property
    def rse_share_of_cycles_pct(self) -> float:
        c = self.speculative.counters
        if c.cpu_cycles == 0:
            return 0.0
        return 100.0 * c.rse_cycles / c.cpu_cycles


_cache: dict[str, BenchmarkResult] = {}


def _run_mode(
    workload: Workload,
    label: str,
    options: CompilerOptions,
    expected_output: list[str],
    obs: Optional[TraceContext] = None,
    profile: bool = False,
    fuel: int = DEFAULT_INTERP_FUEL,
) -> ModeResult:
    output = compile_source(
        workload.source,
        options,
        train_args=list(workload.train_args),
        name=workload.name,
        obs=obs,
        max_steps=fuel,
    )
    try:
        machine = output.run(list(workload.ref_args), profile=profile)
    finally:
        if obs is not None:
            obs.close()
    if machine.output != expected_output:
        raise AssertionError(
            f"{workload.name}/{label}: output mismatch vs reference\n"
            f"  got:      {machine.output}\n"
            f"  expected: {expected_output}"
        )
    record, host = run_record(workload.name, label, options, output, machine)
    return ModeResult(
        label, machine.counters, record, host, options, output, machine
    )


def run_benchmark(
    workload: Union[Workload, str],
    modes: Optional[dict[str, CompilerOptions]] = None,
    use_cache: bool = True,
    trace_dir: Optional[str] = None,
    profile_sites: bool = False,
    fuel: Optional[int] = None,
) -> BenchmarkResult:
    """Measure one benchmark under every mode of ``modes``.

    ``workload`` is a :class:`Workload` or a registered name.  ``modes``
    maps each label to its options and must hold ``baseline`` and
    ``speculative`` (the default is exactly those two: :func:`BASELINE`
    and :func:`SPECULATIVE`); any further label is an extra.  A sweep
    is a series of calls over one axis of these options, the machine
    geometry (``CompilerOptions.machine``) included.  Every mode's
    output is checked against the unoptimised interpreter.

    The memo keys on the whole workload (its source and inputs, not
    only its name) and on every mode's options.  With ``trace_dir``
    set, every mode run streams its structured event trace to
    ``{trace_dir}/{benchmark}.{mode}.jsonl``.  With ``profile_sites``,
    each run collects the per-ALAT-site attribution profile
    (observational only — simulated counters are identical) so the
    run records carry per-site collision/eviction stats.
    ``fuel`` bounds every interpreter run (the reference oracle and the
    profile-training run); default :data:`DEFAULT_INTERP_FUEL`.
    """
    from repro.service.job import options_to_dict

    if isinstance(workload, str):
        workload = get_workload(workload)
    if modes is None:
        modes = {"baseline": BASELINE(), "speculative": SPECULATIVE()}
    fuel = fuel if fuel is not None else DEFAULT_INTERP_FUEL
    key = json.dumps(
        [dataclasses.asdict(workload),
         {label: options_to_dict(o) for label, o in modes.items()},
         trace_dir, profile_sites, fuel],
        sort_keys=True,
    )
    if use_cache and key in _cache:
        return _cache[key]

    def _obs(label: str) -> Optional[TraceContext]:
        if trace_dir is None:
            return None
        import os

        os.makedirs(trace_dir, exist_ok=True)
        return TraceContext(
            JsonlSink(os.path.join(trace_dir, f"{workload.name}.{label}.jsonl"))
        )

    reference = run_program(
        workload.source, list(workload.ref_args), max_steps=fuel
    )
    runs = {
        label: _run_mode(
            workload, label, options, reference.output, _obs(label),
            profile=profile_sites, fuel=fuel,
        )
        for label, options in modes.items()
    }
    result = BenchmarkResult(
        workload, runs.pop("baseline"), runs.pop("speculative"), runs
    )

    if use_cache:
        _cache[key] = result
    return result
