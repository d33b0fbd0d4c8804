"""Job model for the compilation service.

A **job** is one unit of work the service can execute on a worker
process: compile + simulate one (source, options) request, measure one
benchmark, or run one slice of a chaos campaign.  Jobs cross the
process boundary as plain JSON-able dicts; everything here is about
making that crossing safe:

* :func:`options_to_dict` / :func:`options_from_dict` round-trip a
  :class:`repro.pipeline.CompilerOptions` (including the nested machine
  geometry) losslessly;
* :func:`serialize_error` / :class:`JobError` carry the existing
  exception taxonomy (type, message, source location) across the
  boundary.  Handlers are deterministic functions of their payload, so
  an exception a handler raises is the job's verdict and is never
  retried; only a missed deadline or a dead worker is;
* :class:`ServiceLedger` is the accounting invariant the chaos harness
  audits: every submitted job ends in exactly one terminal state, so
  ``submitted == completed + failed + timed_out`` must always hold.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError, SourceError


class ServiceError(ReproError):
    """Service infrastructure failure (crash budget exhausted, bad job
    spec, protocol violation) — not a per-job compilation verdict."""


def serialize_error(exc: BaseException) -> dict:
    """One exception as a JSON-able dict that survives the process
    boundary (the original class does not need to be picklable)."""
    out = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SourceError) and exc.line:
        out["loc"] = f"{exc.line}:{exc.column}"
    return out


@dataclass
class JobError:
    """Structured error capture for one failed attempt."""

    type: str
    message: str
    loc: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "JobError":
        return cls(
            type=str(d.get("type", "Exception")),
            message=str(d.get("message", "")),
            loc=d.get("loc"),
        )

    def format(self) -> str:
        where = f" at {self.loc}" if self.loc else ""
        return f"{self.type}{where}: {self.message}"


# -- job states ----------------------------------------------------------

#: terminal job states (every submitted job reaches exactly one)
COMPLETED = "completed"
FAILED = "failed"
TIMEOUT = "timeout"


@dataclass
class JobSpec:
    """One unit of work: ``kind`` selects the handler registered in
    :mod:`repro.service.workers`, ``payload`` is its JSON-able input.
    ``label`` names the job in reports and trace events; ``cache_key``
    is filled in by the pool for cacheable kinds."""

    kind: str
    payload: dict
    label: str
    timeout_s: Optional[float] = None
    cache_key: Optional[str] = None


@dataclass
class JobResult:
    """Terminal outcome of one job."""

    spec: JobSpec
    state: str  # COMPLETED | FAILED | TIMEOUT
    #: the deterministic artifact (hashed, cached); None unless completed
    artifact: Optional[dict] = None
    #: sha256 (truncated) of the canonical artifact serialisation
    artifact_sha: Optional[str] = None
    #: nondeterministic extras (host wall times) — never hashed or cached
    extra: dict = field(default_factory=dict)
    error: Optional[JobError] = None
    attempts: int = 0
    from_cache: bool = False
    wall_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.state == COMPLETED


@dataclass
class ServiceLedger:
    """The service's accounting: audited by the chaos harness, printed
    by the CLI.  Terminal states partition ``submitted``; the cache and
    retry counters describe *how* jobs got there."""

    submitted: int = 0
    completed: int = 0  # includes cache hits
    failed: int = 0
    timed_out: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: retry attempts scheduled (retried timeouts + worker-crash
    #: requeues)
    retries: int = 0
    #: attempts that hit the per-job wall-clock deadline (the worker
    #: was SIGKILLed); terminal ``timed_out`` only after retries
    timeout_attempts: int = 0
    #: workers that died without delivering a result (chaos kills and
    #: real crashes alike)
    worker_crashes: int = 0
    #: workers respawned (after crashes and timeout kills)
    workers_respawned: int = 0

    def balanced(self) -> bool:
        """The triple-ledger invariant: every submitted job is in
        exactly one terminal state."""
        return self.submitted == self.completed + self.failed + self.timed_out

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def format(self) -> str:
        parts = [
            f"jobs={self.submitted}",
            f"completed={self.completed}",
            f"failed={self.failed}",
            f"timeout={self.timed_out}",
            f"cache={self.cache_hits}/{self.cache_hits + self.cache_misses}",
            f"retries={self.retries}",
        ]
        if self.worker_crashes:
            parts.append(f"crashes={self.worker_crashes}")
        return "service: " + " ".join(parts)


# -- options serialisation ----------------------------------------------


def options_to_dict(opts) -> dict:
    """A :class:`repro.pipeline.CompilerOptions` as a JSON-able dict
    (enums by value, machine geometry nested)."""
    return {
        "opt_level": int(opts.opt_level),
        "spec_mode": opts.spec_mode.value,
        "alias_analysis": opts.alias_analysis.value,
        "rounds": opts.rounds,
        "speclint": opts.speclint.value,
        "promotion_gate": opts.promotion_gate.value,
        "alias_prob": opts.alias_prob.value,
        "machine": dataclasses.asdict(opts.machine),
    }


def options_from_dict(d: Optional[dict]):
    """Inverse of :func:`options_to_dict`; ``None`` or ``{}`` yields the
    defaults.  Unknown keys raise :class:`ServiceError` so a malformed
    request is a structured failure, not a silently different run."""
    from repro.alias.manager import AliasAnalysisKind
    from repro.machine.alat import ALATConfig
    from repro.machine.cache import CacheConfig, CacheLevelConfig
    from repro.machine.cpu import MachineConfig
    from repro.machine.rse import RSEConfig
    from repro.pipeline.options import (
        AliasProbSource,
        CompilerOptions,
        OptLevel,
        PromotionGate,
        SpecLintMode,
        SpecMode,
    )

    d = dict(d or {})
    machine_d = d.pop("machine", None)
    known = {f.name for f in dataclasses.fields(CompilerOptions)}
    unknown = set(d) - known
    if unknown:
        raise ServiceError(f"unknown compiler option key(s): {sorted(unknown)}")

    kwargs: dict = {}
    if "opt_level" in d:
        kwargs["opt_level"] = OptLevel(int(d.pop("opt_level")))
    for key, enum_cls in (
        ("spec_mode", SpecMode),
        ("alias_analysis", AliasAnalysisKind),
        ("speclint", SpecLintMode),
        ("promotion_gate", PromotionGate),
        ("alias_prob", AliasProbSource),
    ):
        if key in d:
            kwargs[key] = enum_cls(d.pop(key))
    kwargs.update(d)  # the remaining plain field (rounds)

    if machine_d is not None:
        md = dict(machine_d)
        alat = ALATConfig(**md.pop("alat", {}))
        cache_d = dict(md.pop("cache", {}))
        cache_kwargs: dict = {}
        for level in ("l1", "l2"):
            if level in cache_d:
                cache_kwargs[level] = CacheLevelConfig(**cache_d.pop(level))
        cache_kwargs.update(cache_d)
        rse = RSEConfig(**md.pop("rse", {}))
        kwargs["machine"] = MachineConfig(
            alat=alat, cache=CacheConfig(**cache_kwargs), rse=rse, **md
        )
    return CompilerOptions(**kwargs)
