"""The differential chaos campaign: generate → compile → fault → compare.

For every generated program (``repro.chaos.generator``) and every
compilation mode in the matrix, the compiled program is simulated under
each fault plan and its observable behaviour (printed lines + exit
value) compared against the unoptimised interpreter — the semantics
oracle.  The paper's safety argument says ALAT entry loss is never
observable, so **any** divergence under **any** plan is a compiler bug.

Three failure kinds:

``divergence``
    machine output differs from the oracle (the headline invariant);
``crash``
    the compiler or simulator raised an internal error;
``accounting``
    an injected fault is missing from ``ALATStats`` or from the
    ``chaos.fault`` trace rows — the observability layer lied.

Divergences and compile crashes are minimised with line-level ddmin
(``repro.chaos.reducer``): a reduced divergence still disagrees with the
oracle under the same mode and plan, and a reduced crash still fails to
compile the same way (:func:`compile_crash`).  Failures are written to
``chaos/failures/`` as ``<stem>.minic`` / ``<stem>.min.minic`` /
``<stem>.json``.

``run_self_test`` proves the harness has teeth: it disables the ld.c
insertion in ``repro.pre.ssapre`` (a real miscompile — a speculated
value consumed unchecked), runs a small campaign with the static
analyzer off, and asserts the bug is caught *and* reduced to a
reproducer of at most :data:`SELF_TEST_MAX_LINES` lines.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos.faults import FaultInjector, FaultPlan, default_fault_plans
from repro.chaos.generator import GeneratedProgram, generate_program
from repro.chaos.reducer import ReductionError, reduce_source
from repro.errors import InterpError, ReproError, SpecLintError
from repro.machine.cpu import Simulator
from repro.obs.sinks import MemorySink
from repro.obs.trace import TraceContext
from repro.pipeline.driver import compile_source, run_program
from repro.pipeline.options import (
    CompilerOptions,
    OptLevel,
    SpecLintMode,
    SpecMode,
)
from repro.service.job import JobSpec, options_to_dict
from repro.service.pool import JobPool

#: interpreter fuel per oracle run — generous for generated programs
#: (bounded loops), tight enough that a generator bug cannot hang a
#: campaign (`InterpTimeout` skips the program).
INTERP_FUEL = 2_000_000

#: a reduced self-test reproducer longer than this fails the self-test
SELF_TEST_MAX_LINES = 15


class ChaosSelfTestError(ReproError):
    """The harness failed to catch (or to minimise) the planted bug."""


def default_modes() -> list[CompilerOptions]:
    """The speculative configurations worth fuzzing: profile-driven
    speculation, cascaded (two-round) promotion, and the heuristic
    decider."""
    return [
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        CompilerOptions(
            opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, rounds=2
        ),
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.HEURISTIC),
    ]


@dataclass
class CampaignFailure:
    """One confirmed harness finding (pre- and post-reduction)."""

    program: str
    kind: str  # "divergence" | "crash" | "accounting"
    mode: str
    plan: FaultPlan
    detail: str
    source: str
    ref_args: tuple
    train_args: tuple
    reduced_source: Optional[str] = None
    artifacts: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "kind": self.kind,
            "mode": self.mode,
            "plan": self.plan.as_dict(),
            "detail": self.detail,
            "ref_args": list(self.ref_args),
            "train_args": list(self.train_args),
            "source": self.source,
            "reduced_source": self.reduced_source,
            "artifacts": self.artifacts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignFailure":
        return cls(**{
            **d,
            "plan": FaultPlan(**d["plan"]),
            "ref_args": tuple(d["ref_args"]),
            "train_args": tuple(d["train_args"]),
        })


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign."""

    seed: int
    programs: int = 0
    #: simulator runs compared against the oracle
    runs: int = 0
    #: programs skipped because the *oracle* timed out or faulted
    skipped: int = 0
    #: per-kind injected-fault totals across every run
    faults_injected: dict[str, int] = field(default_factory=dict)
    failures: list[CampaignFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note_faults(self, counts: dict[str, int]) -> None:
        for kind, n in counts.items():
            self.faults_injected[kind] = self.faults_injected.get(kind, 0) + n

    def summary(self) -> str:
        lines = [
            f"chaos: {self.programs} programs, {self.runs} differential "
            f"runs, {self.skipped} skipped (seed {self.seed})",
            "faults injected: "
            + (
                ", ".join(
                    f"{k}={n}" for k, n in sorted(self.faults_injected.items())
                )
                or "none"
            ),
        ]
        if self.ok:
            lines.append("no divergences — speculation survived every fault plan")
        else:
            lines.append(f"{len(self.failures)} FAILURE(S):")
            for f in self.failures:
                lines.append(
                    f"  [{f.kind}] {f.program} under {f.mode} / "
                    f"{f.plan.describe()}: {f.detail}"
                )
                for path in f.artifacts:
                    lines.append(f"    -> {path}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "programs": self.programs,
            "runs": self.runs,
            "skipped": self.skipped,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "ok": self.ok,
            "failures": [f.as_dict() for f in self.failures],
        }


# -- one differential run ------------------------------------------------


def _simulate(output, args, plan: Optional[FaultPlan]):
    """Simulate a compiled program under one fault plan with a memory
    trace attached; returns (MachineResult, injector, sink)."""
    sink = MemorySink()
    injector = FaultInjector(plan) if plan is not None else None
    sim = Simulator(
        output.program,
        output.options.machine,
        obs=TraceContext(sink),
        injector=injector,
    )
    return sim.run(list(args)), injector, sink


def _accounting_mismatch(injector, alat_stats, sink) -> Optional[str]:
    """Cross-check the three fault ledgers; None when they agree."""
    pairs = (
        ("drop_alloc", alat_stats.chaos_dropped_allocations),
        ("spurious_invalidate", alat_stats.chaos_spurious_invalidations),
        ("flush", alat_stats.chaos_flushes),
    )
    for kind, in_stats in pairs:
        in_injector = injector.stats.counts.get(kind, 0)
        if in_injector != in_stats:
            return (
                f"fault ledger mismatch for {kind}: injector counted "
                f"{in_injector}, ALATStats counted {in_stats}"
            )
    traced = len(sink.of_type("chaos.fault"))
    if traced != injector.stats.total:
        return (
            f"trace ledger mismatch: {traced} chaos.fault event(s) for "
            f"{injector.stats.total} injected fault(s)"
        )
    return None


def _behaviour(result) -> tuple[list[str], int]:
    return (result.output, result.exit_value)


def check_program(
    program: GeneratedProgram,
    modes: list[CompilerOptions],
    plans: list[Optional[FaultPlan]],
    report: CampaignReport,
) -> list[CampaignFailure]:
    """Run one program through the full mode × plan matrix.

    ``repro.service.workers`` runs exactly this per ``chaos`` job, with
    ``report`` collecting the mergeable per-program counts (``runs``,
    ``skipped``, ``faults_injected``)."""
    try:
        oracle = run_program(
            program.source, list(program.ref_args), max_steps=INTERP_FUEL
        )
    except InterpError:
        # Oracle could not establish reference behaviour (fuel, or a
        # generator edge case) — no comparison is possible.
        report.skipped += 1
        return []
    expected = _behaviour(oracle)

    failures = []
    for mode in modes:
        try:
            output = compile_source(
                program.source, mode, train_args=list(program.train_args)
            )
        except Exception as exc:
            failures.append(
                CampaignFailure(
                    program=program.name,
                    kind="crash",
                    mode=mode.describe(),
                    plan=FaultPlan(),
                    detail=f"compile: {type(exc).__name__}: {exc}",
                    source=program.source,
                    ref_args=program.ref_args,
                    train_args=program.train_args,
                )
            )
            continue
        for plan in plans:
            report.runs += 1
            try:
                result, injector, sink = _simulate(
                    output, program.ref_args, plan
                )
            except Exception as exc:
                failures.append(
                    CampaignFailure(
                        program=program.name,
                        kind="crash",
                        mode=mode.describe(),
                        plan=plan or FaultPlan(),
                        detail=f"simulate: {type(exc).__name__}: {exc}",
                        source=program.source,
                        ref_args=program.ref_args,
                        train_args=program.train_args,
                    )
                )
                break
            if injector is not None:
                report.note_faults(injector.stats.counts)
                mismatch = _accounting_mismatch(
                    injector, result.alat_stats, sink
                )
                if mismatch is not None:
                    failures.append(
                        CampaignFailure(
                            program=program.name,
                            kind="accounting",
                            mode=mode.describe(),
                            plan=plan,
                            detail=mismatch,
                            source=program.source,
                            ref_args=program.ref_args,
                            train_args=program.train_args,
                        )
                    )
                    break
            if _behaviour(result) != expected:
                failures.append(
                    CampaignFailure(
                        program=program.name,
                        kind="divergence",
                        mode=mode.describe(),
                        plan=plan or FaultPlan(),
                        detail=(
                            f"expected exit={expected[1]} "
                            f"output={expected[0]!r}; got "
                            f"exit={result.exit_value} "
                            f"output={result.output!r}"
                        ),
                        source=program.source,
                        ref_args=program.ref_args,
                        train_args=program.train_args,
                    )
                )
                # one finding per mode is enough; further plans on the
                # same broken compilation would only repeat it
                break
    return failures


# -- reduction + artifacts ----------------------------------------------


def divergence_predicate(
    mode: CompilerOptions,
    plan: Optional[FaultPlan],
    ref_args,
    train_args,
) -> Callable[[str], bool]:
    """Interestingness for ddmin: candidate still compiles, still runs,
    and still disagrees with the oracle under the same mode and plan."""

    def interesting(source: str) -> bool:
        try:
            oracle = run_program(source, list(ref_args), max_steps=INTERP_FUEL)
        except Exception:
            return False
        try:
            output = compile_source(source, mode, train_args=list(train_args))
            result, _, _ = _simulate(output, ref_args, plan)
        except Exception:
            return False
        return _behaviour(result) != _behaviour(oracle)

    return interesting


def compile_crash(
    source: str, mode: CompilerOptions, train_args
) -> Optional[tuple]:
    """How compiling ``source`` under ``mode`` fails: None when it
    compiles, else the exception type plus, for a speclint error, the
    set of error rule ids (``SPEC002``, …)."""
    try:
        compile_source(source, mode, train_args=list(train_args))
    except Exception as exc:
        rules = None
        if isinstance(exc, SpecLintError):
            rules = frozenset(d.rule for d in exc.report.errors)
        return (type(exc), rules)
    return None


def crash_predicate(
    mode: CompilerOptions,
    ref_args,
    train_args,
    crash: tuple,
) -> Callable[[str], bool]:
    """Interestingness for ddmin on a compile crash: the candidate's
    oracle still runs, and compiling it under the same mode fails the
    same way (:func:`compile_crash` equals ``crash``)."""

    def interesting(source: str) -> bool:
        try:
            run_program(source, list(ref_args), max_steps=INTERP_FUEL)
        except Exception:
            return False
        return compile_crash(source, mode, train_args) == crash

    return interesting


def _mode_by_description(description: str, modes: list[CompilerOptions]):
    for mode in modes:
        if mode.describe() == description:
            return mode
    return None


def minimize_failure(
    failure: CampaignFailure,
    modes: list[CompilerOptions],
    max_tests: int = 800,
) -> None:
    """Attach a 1-minimal reproducer to a divergence or compile-crash
    failure in place."""
    mode = _mode_by_description(failure.mode, modes)
    if mode is None:
        return
    if failure.kind == "divergence":
        plan = failure.plan if failure.plan.name != "none" else None
        predicate = divergence_predicate(
            mode, plan, failure.ref_args, failure.train_args
        )
    elif failure.kind == "crash" and failure.detail.startswith("compile:"):
        crash = compile_crash(failure.source, mode, failure.train_args)
        if crash is None:
            return  # did not crash again: nothing to reduce against
        predicate = crash_predicate(
            mode, failure.ref_args, failure.train_args, crash
        )
    else:
        return
    try:
        failure.reduced_source = reduce_source(
            failure.source, predicate, max_tests=max_tests
        )
    except ReductionError:
        # Non-reproducible under re-run — leave unreduced but keep the
        # original failure; determinism bugs are still bugs.
        failure.reduced_source = None


def write_failure_artifacts(
    failure: CampaignFailure, failures_dir: str, index: int
) -> None:
    os.makedirs(failures_dir, exist_ok=True)
    stem = f"{index:03d}-{failure.kind}-{failure.program}"
    src = os.path.join(failures_dir, f"{stem}.minic")
    with open(src, "w") as fh:
        fh.write(failure.source)
    failure.artifacts.append(src)
    if failure.reduced_source is not None:
        mini = os.path.join(failures_dir, f"{stem}.min.minic")
        with open(mini, "w") as fh:
            fh.write(failure.reduced_source)
        failure.artifacts.append(mini)
    meta = os.path.join(failures_dir, f"{stem}.json")
    with open(meta, "w") as fh:
        json.dump(failure.as_dict(), fh, indent=2)
        fh.write("\n")
    failure.artifacts.append(meta)


# -- the campaign --------------------------------------------------------


#: programs per pool drain: results, and ``progress`` callbacks, arrive
#: chunk by chunk instead of once at the end of the campaign
CHUNK = 25


def _program_job(program: GeneratedProgram, modes: list[dict],
                 plans: list[Optional[dict]], seed: int) -> JobSpec:
    return JobSpec(
        kind="chaos",
        payload={
            "name": program.name,
            "source": program.source,
            "ref_args": list(program.ref_args),
            "train_args": list(program.train_args),
            "modes": modes,
            "plans": plans,
            "seed": seed,
        },
        label=f"chaos:{program.name}",
    )


def _job_failures(jr, report: CampaignReport) -> list[CampaignFailure]:
    """Merge one ``chaos`` job into the report; returns its failures.
    A job the pool could not complete is an honest ``crash`` failure —
    fault tolerance must not hide broken runs."""
    if not jr.ok:
        payload = jr.spec.payload
        return [
            CampaignFailure(
                program=payload["name"],
                kind="crash",
                mode="<service>",
                plan=FaultPlan(),
                detail=(
                    f"service {jr.state}: "
                    + (jr.error.format() if jr.error else "no result")
                ),
                source=payload["source"],
                ref_args=tuple(payload["ref_args"]),
                train_args=tuple(payload["train_args"]),
            )
        ]
    artifact = jr.artifact
    report.runs += artifact["runs"]
    report.skipped += artifact["skipped"]
    report.note_faults(artifact["faults_injected"])
    return [CampaignFailure.from_dict(fd) for fd in artifact["failures"]]


def run_campaign(
    seed: int = 0,
    runs: int = 200,
    modes: Optional[list[CompilerOptions]] = None,
    plans: Optional[list[FaultPlan]] = None,
    minimize: bool = False,
    minimize_limit: int = 5,
    failures_dir: Optional[str] = "chaos/failures",
    programs: Optional[list[GeneratedProgram]] = None,
    progress: Optional[Callable[[CampaignReport], None]] = None,
    jobs: int = 0,
) -> CampaignReport:
    """Run ``runs`` generated programs (or the given ``programs``)
    through the mode × fault-plan differential matrix.

    Every compiled program is additionally simulated with **no** fault
    plan — the plain translation-validation run — so a miscompile that
    needs no fault to surface is still caught.

    Each program is one ``chaos`` job on a ``jobs``-sized
    :class:`~repro.service.pool.JobPool`; the default ``0`` runs them
    in this process.  Programs are generated here and results merged in
    submission order, so the report is the same at every pool size.
    Minimisation, the expensive sequential tail, stays in this process.
    """
    modes = modes if modes is not None else default_modes()
    plans = plans if plans is not None else default_fault_plans(seed)
    report = CampaignReport(seed=seed)
    if programs is None:
        # str-seeded so (campaign seed, index) fully determines the
        # program; tuples are not valid random.Random seeds.
        programs = [
            generate_program(random.Random(f"{seed}:{i}"), i)
            for i in range(runs)
        ]
    mode_dicts = [options_to_dict(m) for m in modes]
    plan_dicts = [None] + [p.as_dict() for p in plans]
    specs = [_program_job(p, mode_dicts, plan_dicts, seed) for p in programs]

    with JobPool(jobs=jobs) as pool:
        for start in range(0, len(specs), CHUNK):
            for jr in pool.run(specs[start:start + CHUNK]):
                report.programs += 1
                for failure in _job_failures(jr, report):
                    if minimize and len(report.failures) < minimize_limit:
                        minimize_failure(failure, modes)
                    if failures_dir is not None:
                        write_failure_artifacts(
                            failure, failures_dir, len(report.failures)
                        )
                    report.failures.append(failure)
                if progress is not None:
                    progress(report)
    return report


# -- self test -----------------------------------------------------------

#: the paper's canonical may-alias example: train input takes the
#: p = &b arm, ref input the p = &a arm, so profile-guided speculation
#: promotes ``a`` across ``*p = s`` and the ld.c *must* catch the
#: collision.  With the check rewrite disabled this diverges on the
#: very first program the self-test runs.
SELF_TEST_PROGRAM = GeneratedProgram(
    name="canonical-alias",
    source="""int a;
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
""",
    ref_args=(150,),
    train_args=(10,),
)


@contextlib.contextmanager
def _broken_check_rewrite():
    """Plant the bug: ld.c insertion disabled inside SSAPRE."""
    from repro.pre import ssapre

    before = ssapre.CHAOS_DISABLE_CHECK_REWRITE
    ssapre.CHAOS_DISABLE_CHECK_REWRITE = True
    try:
        yield
    finally:
        ssapre.CHAOS_DISABLE_CHECK_REWRITE = before


def run_self_test(
    seed: int = 0,
    runs: int = 10,
    failures_dir: Optional[str] = None,
) -> CampaignReport:
    """End-to-end harness validation against a planted miscompile.

    The static analyzer is turned off for these compilations on
    purpose: the point is to prove the *dynamic* harness alone detects
    the bug class, not that speclint would have flagged it first.
    Raises :class:`ChaosSelfTestError` unless the planted bug is
    detected as a divergence and reduced to at most
    :data:`SELF_TEST_MAX_LINES` lines.
    """
    mode = CompilerOptions(
        opt_level=OptLevel.O3,
        spec_mode=SpecMode.PROFILE,
        speclint=SpecLintMode.OFF,
    )
    programs = [SELF_TEST_PROGRAM] + [
        generate_program(random.Random(f"selftest:{seed}:{i}"), i)
        for i in range(max(0, runs - 1))
    ]
    with _broken_check_rewrite():
        report = run_campaign(
            seed=seed,
            modes=[mode],
            minimize=True,
            failures_dir=failures_dir,
            programs=programs,
        )
        if report.ok:
            raise ChaosSelfTestError(
                "self-test: the harness missed a deliberately broken "
                "check rewrite (speculated loads consumed without ld.c)"
            )
        reduced = [
            f
            for f in report.failures
            if f.kind == "divergence" and f.reduced_source is not None
        ]
        if not reduced:
            raise ChaosSelfTestError(
                "self-test: divergence detected but no failure could be "
                "minimised to a reproducer"
            )
        smallest = min(
            len(f.reduced_source.splitlines()) for f in reduced
        )
        if smallest > SELF_TEST_MAX_LINES:
            raise ChaosSelfTestError(
                f"self-test: smallest reproducer is {smallest} lines "
                f"(limit {SELF_TEST_MAX_LINES}) — the reducer regressed"
            )
    return report
