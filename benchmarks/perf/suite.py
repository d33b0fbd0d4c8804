"""The benchmark's workloads, and the child process that runs one of them.

``run.py`` starts this file once per set-up.  The child builds the
workload (inputs, a warm-up compile, and for the service its worker
pool), prints ``ready`` and the CPU seconds (at reference speed) it
spent so far, and waits on stdin.  On ``go`` it runs the timed section,
checks every output and prints one JSON line; on ``stop`` it exits.
Tests import it and call :func:`measure` directly.

Timings are CPU seconds at reference speed (``speed.Stopwatch``), not
wall time, which on a shared host varies from run to run by more than
most changes move it.  Service jobs run in forked workers; their compile
handler is wrapped before the fork to time each job in its worker.

A workload is the list of items that make up one pass and a ``run(item)``
that performs one op on an item:

``paper-matrix``
    one item per kernel: ``run_benchmark`` (baseline and speculative at
    ref size, each checked against the interpreter oracle);
``chaos-campaign``
    one item per generated program: ``run_campaign`` over that program
    (3 speculative modes x (no plan + 3 fault plans));
``service-cache``
    one item: a pool pass of 400 unique compile jobs, then the same 400
    shuffled with 400 new ones, against a fresh artifact cache.

Untraced, one full pass runs, then ops in pass order and round again,
skipping any op expected to end past the time budget (in wall time),
until none fits; an item that ran more than once counts with the
median of its ops.
Traced, whole passes run under a :class:`layers.Tracer` instead, and
per-layer numbers are per pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, Optional

import speed
from layers import Tracer
from repro.chaos import campaign
from repro.chaos.faults import default_fault_plans
from repro.chaos.generator import generate_program
from repro.pipeline import driver
from repro.service import workers
from repro.service.cache import ArtifactCache
from repro.service.job import COMPLETED, JobSpec, options_to_dict
from repro.service.pool import JobPool
from repro.workloads import runner
from repro.workloads.programs import BENCHMARKS

#: scratch space (service caches), removed when a workload closes
WORK_DIR = Path(__file__).resolve().parent / ".work"

CHAOS_PROGRAMS = 200
SERVICE_UNIQUE = 400
SERVICE_WORKERS = 2


@dataclass
class Op:
    """What one timed op leaves behind once its result is dropped."""

    item: int
    attempted: int = 1
    failed: int = 0
    #: deterministic counts; a repeat of the item must reproduce them
    exact: dict = field(default_factory=dict)
    #: (key, CPU ms) latencies; by default the op itself, keyed by item
    latencies: Optional[list] = None
    #: outputs the workload checks after the timed section
    pending: list = field(default_factory=list)
    #: wall seconds (they only schedule the ops)
    seconds: float = 0.0
    #: CPU seconds of this process and of any worker that ran for the op
    cpu: float = 0.0


class JobOutcome(NamedTuple):
    """One service job's result, kept for the check after the timed
    section."""

    program: int
    state: str
    output: Optional[list]
    exit_value: Optional[int]
    sha: Optional[str]
    from_cache: bool
    #: for a repeated job: the sha its pass-1 artifact had
    pass1_sha: Optional[str]


def _sum(dicts: list[dict]) -> dict:
    out: dict = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


def _warm_up(modes) -> None:
    """Compile and run a small program once per mode, so first-use
    imports inside the compiler land in set-up, not in the first op."""
    program = campaign.SELF_TEST_PROGRAM
    driver.run_program(program.source, list(program.ref_args))
    for options in modes:
        out = driver.compile_source(
            program.source, options, train_args=list(program.train_args)
        )
        out.run(list(program.ref_args))


#: the service's compile handler as the service defines it
_COMPILE = workers.HANDLERS["compile"]


def _compile_timed(payload: dict, ctx: dict) -> tuple[dict, dict]:
    """The compile handler, adding the worker's CPU seconds to the job's
    ``extra`` (host data: never hashed, cached or served on a hit)."""
    with speed.Stopwatch() as sw:
        artifact, extra = _COMPILE(payload, ctx)
    return artifact, {**extra, "cpu_s": sw.seconds}


class Workload:
    """Defaults for a workload; subclasses set ``name`` and ``items`` and
    implement ``key``, ``run`` and ``digest``."""

    ops_per_item = 1

    def pass_exact(self, exacts: list[dict]) -> dict:
        """One pass's exact counts from those of its items."""
        return _sum(exacts)

    def verify(self, ops: list[Op]) -> int:
        """Failures found after the timed section."""
        return 0

    def close(self) -> None:
        pass


class PaperMatrix(Workload):
    name = "paper-matrix"

    def __init__(self, seed: int, kernels=tuple(BENCHMARKS)) -> None:
        # The kernels and their inputs are fixed; the seed is recorded only.
        self.items = list(kernels)
        _warm_up([runner.BASELINE(), runner.SPECULATIVE()])

    def key(self, item) -> str:
        return item

    def run(self, item):
        return runner.run_benchmark(item, use_cache=False)

    def digest(self, i: int, result) -> Op:
        # run_benchmark compared each mode with the oracle; the modes
        # must also agree with each other.
        base, spec = result.baseline.machine, result.speculative.machine
        agree = (base.output, base.exit_value) == (spec.output, spec.exit_value)
        modes = (result.baseline, result.speculative)
        return Op(i, failed=0 if agree else 1, exact={
            "guest_cycles": sum(m.counters.cpu_cycles for m in modes),
            "guest_instr": sum(m.counters.instructions for m in modes),
            "pre_checks": sum(m.compile_output.total_checks for m in modes),
            "pre_reloads": sum(m.compile_output.total_reloads for m in modes),
            "spec_cycle_reduction_pct": result.cycle_reduction_pct,
        })

    def pass_exact(self, exacts: list[dict]) -> dict:
        out = _sum(exacts)
        out["spec_cycle_reduction_pct"] /= len(exacts)
        return out


class ChaosCampaign(Workload):
    name = "chaos-campaign"

    def __init__(self, seed: int, programs: int = CHAOS_PROGRAMS) -> None:
        # The programs of ``run_campaign(0, runs=programs)``.  The corpus
        # is fixed because programs drawn for other seeds can trip a
        # known speclint error, and a benchmark times ops that succeed;
        # the seed picks the fault plans and the order.
        corpus = [generate_program(random.Random(f"0:{i}"), i)
                  for i in range(programs)]
        random.Random(seed).shuffle(corpus)
        self.seed = seed
        self.items = corpus
        self.modes = campaign.default_modes()
        self.plans = default_fault_plans(seed)
        _warm_up(self.modes)

    def key(self, item) -> str:
        return item.name

    def run(self, item):
        return campaign.run_campaign(
            self.seed, modes=self.modes, plans=self.plans,
            failures_dir=None, programs=[item],
        )

    def digest(self, i: int, report) -> Op:
        for failure in report.failures:
            print(f"chaos-campaign: [{failure.kind}] {failure.program} "
                  f"under {failure.mode} / {failure.plan.describe()}: "
                  f"{failure.detail}", file=sys.stderr)
        bad = len(report.failures) + report.skipped
        return Op(i, failed=1 if bad else 0, exact={
            "programs": report.programs,
            "runs": report.runs,
            "faults_injected": sum(report.faults_injected.values()),
        })


class ServiceCache(Workload):
    name = "service-cache"

    def __init__(self, seed: int, unique: int = SERVICE_UNIQUE) -> None:
        #: jobs in one pass: unique in pass 1, twice that in pass 2
        self.ops_per_item = 3 * unique
        # A fixed corpus of 2 x unique programs (fixed for the same reason
        # as the chaos corpus); the seed picks which half pass 1 sends
        # (and pass 2 repeats) and both orders.
        self.programs = [generate_program(random.Random(f"svc:0:{i}"), i)
                         for i in range(2 * unique)]
        rng = random.Random(seed)
        order = list(range(2 * unique))
        rng.shuffle(order)
        self.first = order[:unique]
        self.second = order
        rng.shuffle(self.second)
        self.repeated = set(self.first)
        options = runner.SPECULATIVE()
        _warm_up([options])
        payload_options = options_to_dict(options)
        self.specs = [
            JobSpec("compile", {
                "name": p.name,
                "source": p.source,
                "options": payload_options,
                "train_args": list(p.train_args),
                "args": list(p.ref_args),
            }, label=p.name)
            for p in self.programs
        ]
        self.items = [0]
        self.work = WORK_DIR / f"service-{os.getpid()}"
        self.passes = 0
        # The workers fork with the timed handler in place.
        workers.HANDLERS["compile"] = _compile_timed
        self.pool = JobPool(jobs=SERVICE_WORKERS)
        self.pool.start()

    def key(self, item) -> str:
        return "pass"

    def run(self, item):
        self.passes += 1
        cache = ArtifactCache(self.work / f"pass-{self.passes}")
        self.pool.cache = cache
        first = self.pool.run([self.specs[i] for i in self.first])
        second = self.pool.run([self.specs[i] for i in self.second])
        # The pool keeps every result it produced; drop them so memory
        # does not grow with the number of passes a run fits in.
        self.pool.results.clear()
        return first, second, cache.stats

    def digest(self, i: int, result) -> Op:
        first, second, stats = result
        jobs = list(zip(self.first, first)) + list(zip(self.second, second))
        pass1_sha = {idx: r.artifact_sha for idx, r in zip(self.first, first)}
        pending = []
        for n, (idx, r) in enumerate(jobs):
            repeat = n >= len(first) and idx in self.repeated
            art = r.artifact or {}
            pending.append(JobOutcome(
                idx, r.state, art.get("output"), art.get("exit_value"),
                r.artifact_sha, r.from_cache,
                pass1_sha[idx] if repeat else None,
            ))
        # Cache hits are served in this process: its own CPU time, which
        # _timed_op adds, covers them.
        worker_cpu = [(r.spec.label, r.extra.get("cpu_s", 0.0))
                      for _, r in jobs if not r.from_cache]
        return Op(
            i, attempted=len(jobs),
            exact={"jobs": len(jobs), "hits": stats.hits,
                   "misses": stats.misses, "stores": stats.stores},
            latencies=[(label, s * 1e3) for label, s in worker_cpu],
            pending=pending,
            cpu=sum(s for _, s in worker_cpu),
        )

    def verify(self, ops: list[Op]) -> int:
        """Every job completed with the oracle's output, and every repeat
        was a cache hit with its pass-1 artifact sha."""
        oracle = {}
        failed = 0
        for job in (job for op in ops for job in op.pending):
            if job.program not in oracle:
                p = self.programs[job.program]
                ref = driver.run_program(p.source, list(p.ref_args))
                oracle[job.program] = (ref.output, ref.exit_value)
            ok = (job.state == COMPLETED
                  and (job.output, job.exit_value) == oracle[job.program])
            if job.pass1_sha is not None:
                ok = ok and job.from_cache and job.sha == job.pass1_sha
            if not ok:
                failed += 1
                print(f"service-cache: {self.programs[job.program].name}: "
                      f"wrong {job}", file=sys.stderr)
        return failed

    def close(self) -> None:
        self.pool.close()
        workers.HANDLERS["compile"] = _COMPILE
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (PaperMatrix, ChaosCampaign, ServiceCache)}


# -- the timed section -----------------------------------------------------


def _timed_op(workload, i: int) -> Op:
    t0 = time.perf_counter()
    try:
        with speed.Stopwatch() as sw:
            result = workload.run(workload.items[i])
    except Exception as exc:  # noqa: BLE001 - a failed op, not a failed run
        print(f"{workload.name}: {workload.key(workload.items[i])}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        n = workload.ops_per_item
        op = Op(i, attempted=n, failed=n)
    else:
        op = workload.digest(i, result)
    op.seconds = time.perf_counter() - t0
    op.cpu += sw.seconds
    return op


def run_ops(workload, seconds: float) -> tuple[list[Op], int]:
    """One full pass, then ops in pass order, round and round, skipping
    any op expected to end past ``seconds``, until none fits."""
    n = len(workload.items)
    ops: list[Op] = []
    last: dict[int, float] = {}
    start = time.perf_counter()
    for k in itertools.count():
        i = k % n
        if k >= n:
            left = seconds - (time.perf_counter() - start)
            if min(last.values()) > left:
                break
            if last[i] > left:
                continue
        op = _timed_op(workload, i)
        last[i] = op.seconds
        ops.append(op)
    return ops, 1


def run_passes(workload, seconds: float) -> tuple[list[Op], int]:
    """Whole passes while the next one is expected to end within
    ``seconds``; at least one."""
    ops: list[Op] = []
    start = time.perf_counter()
    for passes in itertools.count(1):
        ops += [_timed_op(workload, i) for i in range(len(workload.items))]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return ops, passes


def _quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of ``values``."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


def measure(workload, seconds: float, tracer: Optional[Tracer] = None) -> dict:
    """Run the timed section, check it, and return the child's result:
    ``values`` holds every metric this mode reports."""
    t0 = time.perf_counter()
    if tracer is None:
        ops, passes = run_ops(workload, seconds)
    else:
        with tracer:
            ops, passes = run_passes(workload, seconds)
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # An item that ran more than once counts with the median of its runs:
    # the times are already corrected for host speed, and a minimum
    # would fall with the number of runs, which varies with the host.
    by_item: dict[int, list[Op]] = {}
    for op in ops:
        by_item.setdefault(op.item, []).append(op)
    cpu_s = sum(statistics.median(o.cpu for o in group)
                for group in by_item.values())

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops) + workload.verify(ops)
    for group in by_item.values():
        for op in group[1:]:
            if op.exact != group[0].exact:
                failed += 1
                key = workload.key(workload.items[op.item])
                print(f"{workload.name}: {key}: counts changed on repeat: "
                      f"{group[0].exact} then {op.exact}", file=sys.stderr)

    latencies: dict[Any, list[float]] = {}
    for op in ops:
        pairs = op.latencies
        if pairs is None:
            pairs = [(workload.key(workload.items[op.item]), op.cpu * 1e3)]
        for key, ms in pairs:
            latencies.setdefault(key, []).append(ms)
    p50, p90 = _quantiles([statistics.median(v) for v in latencies.values()])

    if tracer is None:
        values = {"cpu_s": cpu_s, "op_p50_ms": p50, "op_p90_ms": p90,
                  "peak_rss_mb": peak_rss_mb}
    else:
        values = tracer.metrics(passes, sum(op.seconds for op in ops))
        values["cpu_s"] = cpu_s
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "exact": workload.pass_exact([g[0].exact for g in by_item.values()]),
        "passes": passes,
        "ops": len(ops),
        "elapsed_s": elapsed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The protocol owns stdout; anything the program prints goes to stderr.
    protocol, sys.stdout = sys.stdout, sys.stderr
    # Told to stop early, still close the workload: pool workers hold
    # both ends of their pipes and would not notice this process dying.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_s = speed.scaled(time.process_time(),
                               [speed.sample() for _ in range(10)])
        print(f"ready {setup_s!r}", file=protocol, flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        tracer = Tracer() if args.trace else None
        result = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
