"""Worker-side execution: the job handler registry and the worker loop.

:func:`execute_request` runs one request in whatever process calls it:
a forked worker, or the coordinator itself when the pool has no workers
(``JobPool(jobs=0)``).  A worker is a forked process holding one end of
a dedicated :class:`multiprocessing.Pipe`.  The protocol is deliberately
minimal — the parent sends one request dict, the worker sends back
exactly one response dict — because the pool's crash detection relies
on it: a worker that dies mid-job (SIGKILL on deadline, a chaos kill, a
real segfault) simply never sends its response, and the parent sees
``EOFError`` on the pipe.  There is no shared queue whose internal
state a dying worker could corrupt.

Handlers are registered per job ``kind``:

``compile``
    one (source, options) request: compile, simulate, return counters +
    observable behaviour (cacheable);
``bench``
    one full workload-matrix benchmark (baseline + speculative modes),
    returning each mode's run record
    (:func:`repro.workloads.runner.run_record`) — the shape
    ``records.json`` holds and the figure tables rebuild from
    (cacheable);
``chaos``
    one chaos-campaign program through its mode × fault-plan matrix,
    returning mergeable report increments (deterministic but not
    cached — campaigns are explicitly about re-executing);
``probe``
    test/chaos support: a scriptable job that can succeed, fail, hang,
    or kill its own worker on demand.

Every handler returns ``(artifact, extra)``: the artifact is the
**deterministic** result (hashed, cached, compared byte-for-byte by the
chaos harness), ``extra`` carries honest nondeterminism (host wall
times) that must never contaminate a cache key or an artifact hash.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.service.job import ServiceError, serialize_error

#: handler registry: kind -> fn(payload, ctx) -> (artifact, extra);
#: ctx carries {"worker": int}
HANDLERS: dict[str, Callable[[dict, dict], tuple[dict, dict]]] = {}

#: job kinds whose artifacts are content-addressed and cacheable
CACHEABLE_KINDS = frozenset({"compile", "bench"})


def handler(kind: str):
    def register(fn):
        HANDLERS[kind] = fn
        return fn
    return register


# -- compile: one (source, options) request -----------------------------


@handler("compile")
def _run_compile(payload: dict, ctx: dict) -> tuple[dict, dict]:
    from repro.obs.report import build_host_metrics
    from repro.pipeline.driver import compile_source
    from repro.service.job import options_from_dict

    options = options_from_dict(payload.get("options"))
    output = compile_source(
        payload["source"],
        options,
        train_args=list(payload.get("train_args") or []),
        name=payload.get("name", "job"),
        max_steps=payload.get("fuel"),
    )
    machine = output.run(list(payload.get("args") or []))
    artifact = {
        "name": payload.get("name", "job"),
        "options": options.describe(),
        "counters": machine.counters.as_dict(),
        "output": list(machine.output),
        "exit_value": machine.exit_value,
        "fallback": output.fallback,
    }
    host = build_host_metrics(machine, output.obs)
    # Wall ms per phase the job ran (``wall_ms`` is their sum): host
    # data, like the rest of ``extra``, never hashed or cached.
    host["phase_ms"] = {
        name: round(seconds * 1e3, 3)
        for name, seconds in output.obs.phase_times.items()
    }
    return artifact, {"host": host}


# -- bench: one workload-matrix benchmark -------------------------------


def bench_spec_options(spec: str):
    """The treatment configuration for one bench job (matches the
    ``--alias-prob`` choices of ``python -m repro.workloads``)."""
    from repro.workloads.runner import SPECULATIVE, STATIC_SPECULATIVE

    if spec == "static":
        return STATIC_SPECULATIVE()
    if spec == "hybrid":
        from repro.pipeline import AliasProbSource

        opts = SPECULATIVE()
        opts.alias_prob = AliasProbSource.HYBRID
        return opts
    if spec == "profile":
        return SPECULATIVE()
    raise ServiceError(f"unknown bench spec mode: {spec!r}")


@handler("bench")
def _run_bench(payload: dict, ctx: dict) -> tuple[dict, dict]:
    from repro.workloads.runner import BASELINE, run_benchmark

    name = payload["bench"]
    result = run_benchmark(
        name,
        {"baseline": BASELINE(),
         "speculative": bench_spec_options(payload.get("spec", "profile"))},
        use_cache=False,
        trace_dir=payload.get("trace_dir"),
        profile_sites=bool(payload.get("profile_sites")),
        fuel=payload.get("fuel"),
    )
    artifact = {
        "bench": name,
        "modes": {mode.label: mode.record for mode in result.modes},
    }
    return artifact, {"host": {mode.label: mode.host for mode in result.modes}}


# -- chaos: one program through the mode × plan matrix ------------------


@handler("chaos")
def _run_chaos(payload: dict, ctx: dict) -> tuple[dict, dict]:
    from repro.chaos.campaign import CampaignReport, check_program
    from repro.chaos.faults import FaultPlan
    from repro.chaos.generator import GeneratedProgram
    from repro.service.job import options_from_dict

    program = GeneratedProgram(
        name=payload["name"],
        source=payload["source"],
        ref_args=tuple(payload.get("ref_args") or ()),
        train_args=tuple(payload.get("train_args") or ()),
    )
    modes = [options_from_dict(m) for m in payload["modes"]]
    plans = [
        None if p is None else FaultPlan(**p) for p in payload["plans"]
    ]
    report = CampaignReport(seed=int(payload.get("seed", 0)))
    failures = check_program(program, modes, plans, report)
    artifact = {
        "program": program.name,
        "runs": report.runs,
        "skipped": report.skipped,
        "faults_injected": dict(sorted(report.faults_injected.items())),
        "failures": [f.as_dict() for f in failures],
    }
    return artifact, {}


# -- probe: scriptable behaviour for tests and chaos --------------------


@handler("probe")
def _run_probe(payload: dict, ctx: dict) -> tuple[dict, dict]:
    """Deterministic misbehaviour on demand.

    ``error``: raise a taxonomy error (``source``/``config``/
    ``speclint``); ``hang_ms``: sleep before answering; ``die``: kill
    this worker process without a response (a crash, from the parent's
    point of view).
    """
    if payload.get("die"):
        os._exit(17)
    if payload.get("hang_ms"):
        time.sleep(payload["hang_ms"] / 1000.0)
    kind = payload.get("error")
    if kind == "source":
        from repro.errors import SourceError

        raise SourceError("probe source error", line=3, column=7)
    if kind == "config":
        from repro.errors import ConfigError

        raise ConfigError("probe config error")
    if kind == "speclint":
        from repro.errors import SpecLintError

        raise SpecLintError("probe speclint error")
    if kind is not None:
        raise ServiceError(f"unknown probe error kind: {kind!r}")
    return {"value": payload.get("value", 0)}, {"worker": ctx["worker"]}


# -- request execution --------------------------------------------------


def execute_request(request: dict, worker_id: int) -> dict:
    """Run one request dict to one response dict (never raises)."""
    t0 = time.perf_counter()
    ctx = {"worker": worker_id}
    try:
        fn = HANDLERS.get(request["kind"])
        if fn is None:
            raise ServiceError(f"unknown job kind: {request['kind']!r}")
        artifact, extra = fn(request.get("payload") or {}, ctx)
        response = {"ok": True, "artifact": artifact, "extra": extra}
    except Exception as exc:  # noqa: BLE001 — the boundary by design
        response = {"ok": False, "error": serialize_error(exc)}
    response["job_id"] = request["job_id"]
    response["wall_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
    return response


def worker_main(conn, worker_id: int) -> None:
    """The child-process loop: recv request, execute, send response.

    ``inject_hang_ms`` on a request is the chaos hook for "this attempt
    hangs": the worker sleeps *before* executing, long enough for the
    parent's deadline scan to SIGKILL it — exercising the timeout path
    with a job that would otherwise succeed.
    """
    import signal

    # The parent owns shutdown (it SIGKILLs or closes the pipe); a
    # terminal Ctrl-C must not take workers down mid-protocol first.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        hang_ms = request.get("inject_hang_ms")
        if hang_ms:
            time.sleep(hang_ms / 1000.0)
        response = execute_request(request, worker_id)
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
    conn.close()
