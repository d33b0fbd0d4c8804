"""The experiment results store: append-only, content-addressed run records.

Every metrics-producing entry point (the pipeline CLI, the workload
matrix, ablation benches, chaos campaigns, pressure calibration) writes
one **run record** per measurement into a sharded JSONL store (default
``benchmarks/store/``).  A record is a plain dict:

``schema``            record format version (:data:`SCHEMA_VERSION`)
``run_id``            content address: SHA-256 (truncated to 16 hex
                      chars) over the *identity* of the measurement —
                      source hash, bench, mode, kind, config dict,
                      machine geometry, pipeline version (a hash of
                      the package's code, :func:`pipeline_version`).
                      Re-running the same configuration on the same
                      code yields the same ``run_id``;
                      records are never overwritten, so one ``run_id``
                      accumulates a time series of observations.
``kind``              ``run`` (a compile+simulate measurement),
                      ``chaos`` (campaign summary), ``calibration``
                      (pressure-model calibration row), ``table``
                      (published benchmark table artifact)
``suite``             which harness produced it (``matrix``,
                      ``ablation:<name>``, ``cli``, ``tables``, ...)
``bench`` / ``mode``  benchmark name and measurement label
``batch``             groups records ingested together (one matrix
                      sweep = one batch across its benchmarks/modes)
``timestamp``         seconds since the epoch, ``git_rev`` when known
``config``            the knobs that define the run (options string,
                      machine geometry, sweep parameters)
``metrics``           the full metrics JSON (``repro.obs.build_metrics``
                      shape: counters, alat/cache/rse stats, host
                      section, phase wall times, PRE stats)
``sites``             per-ALAT-site statistics (present when the run
                      was profiled)

Durability mirrors :class:`repro.obs.sinks.JsonlSink`: each record is
serialised first and appended as one complete line in a single write
call, so a crash mid-ingest never leaves a torn line that poisons the
store — the reader additionally tolerates (and reports) a torn final
line left by a hard kill mid-``write``.

Concurrency: every append takes an **advisory exclusive lock** on its
shard (``fcntl.flock``) around the newline-repair check and the single
flushed write, so parallel writers — e.g. ``repro.service`` workers all
ingesting with ``--store`` — serialise per shard and can never
interleave bytes of two records, even when the OS does not guarantee
atomicity for large ``O_APPEND`` writes.  Readers take no lock (every
complete line is valid on its own).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.errors import ReproError

try:  # POSIX; on platforms without flock the single-write append
    import fcntl  # still keeps individual records intact
except ImportError:  # pragma: no cover
    fcntl = None

#: record format version; bump when the record shape changes
SCHEMA_VERSION = 1

#: the ``repro`` package root, whose code :func:`pipeline_version` hashes
PACKAGE_ROOT = Path(__file__).resolve().parents[2]

#: shard fan-out: records land in ``records-<first hex char>.jsonl``
N_SHARDS = 16


class StoreError(ReproError):
    """A malformed record, unreadable shard, or ambiguous run id."""


def canonical_json(value) -> str:
    """Deterministic JSON used for hashing (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def code_version(root) -> str:
    """SHA-256 (truncated to 16 hex chars) over every ``.py`` file under
    ``root``: each file's path relative to ``root``, then its bytes, in
    sorted path order."""
    root = Path(root)
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in files:
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def pipeline_version() -> str:
    """The code version folded into every run id and artifact-cache
    key: two runs of the same source + options are only comparable
    content-addressed peers when the same code produced them, and any
    edit to the package — to a compiler pass, a workload's source or
    its inputs alike — changes it.  Computed once per process."""
    return code_version(PACKAGE_ROOT)


def source_sha(source: Optional[str]) -> Optional[str]:
    if source is None:
        return None
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def machine_geometry(machine_config) -> dict:
    """A :class:`repro.machine.cpu.MachineConfig` as a plain dict (the
    geometry part of a run's identity)."""
    if machine_config is None:
        return {}
    if dataclasses.is_dataclass(machine_config):
        return dataclasses.asdict(machine_config)
    return dict(machine_config)


def compute_run_id(
    *,
    bench: str,
    mode: str,
    kind: str = "run",
    config: Optional[dict] = None,
    machine: Optional[dict] = None,
    source_hash: Optional[str] = None,
) -> str:
    """The content address of one measurement configuration."""
    identity = {
        "bench": bench,
        "mode": mode,
        "kind": kind,
        "config": config or {},
        "machine": machine or {},
        "source": source_hash,
        "pipeline": pipeline_version(),
        "schema": SCHEMA_VERSION,
    }
    digest = hashlib.sha256(canonical_json(identity).encode("utf-8"))
    return digest.hexdigest()[:16]


_git_rev_cache: dict[str, Optional[str]] = {}


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Short git revision of ``cwd`` (cached; None outside a repo)."""
    key = cwd or os.getcwd()
    if key not in _git_rev_cache:
        rev = None
        try:
            import subprocess

            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=5,
            )
            if out.returncode == 0:
                rev = out.stdout.strip() or None
        except Exception:
            rev = None
        _git_rev_cache[key] = rev
    return _git_rev_cache[key]


def new_batch_id() -> str:
    """Opaque id grouping records ingested together (one sweep)."""
    return uuid.uuid4().hex[:12]


def make_record(
    bench: str,
    mode: str,
    metrics: dict,
    *,
    kind: str = "run",
    suite: str = "cli",
    source: Optional[str] = None,
    config: Optional[dict] = None,
    machine: Optional[dict] = None,
    sites: Optional[list] = None,
    batch: Optional[str] = None,
    timestamp: Optional[float] = None,
    git_rev: Optional[str] = "auto",
) -> dict:
    """Build one run record (computing its ``run_id``).

    ``machine`` accepts either a plain geometry dict or a
    :class:`~repro.machine.cpu.MachineConfig`.  ``git_rev="auto"``
    resolves the current repository revision; pass ``None`` to omit.
    """
    geometry = machine_geometry(machine) if machine is not None else {}
    src_hash = source_sha(source)
    record = {
        "schema": SCHEMA_VERSION,
        "run_id": compute_run_id(
            bench=bench,
            mode=mode,
            kind=kind,
            config=config,
            machine=geometry,
            source_hash=src_hash,
        ),
        "kind": kind,
        "suite": suite,
        "bench": bench,
        "mode": mode,
        "batch": batch or new_batch_id(),
        "timestamp": round(
            time.time() if timestamp is None else timestamp, 3
        ),
        "git_rev": git_revision() if git_rev == "auto" else git_rev,
        "pipeline_version": pipeline_version(),
        "config": config or {},
        "metrics": metrics,
    }
    if src_hash is not None:
        record["source_sha"] = src_hash
    if geometry:
        record["machine"] = geometry
    if sites:
        record["sites"] = sites
    return record


REQUIRED_KEYS = ("run_id", "kind", "bench", "mode", "timestamp", "metrics")


@dataclass
class PruneReport:
    """Outcome of one retention pass."""

    examined: int = 0
    removed: int = 0
    kept: int = 0
    #: removed records per (kind, bench, mode) group, for reporting
    by_group: dict = field(default_factory=dict)
    dry_run: bool = False

    def format(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        lines = [
            f"prune: {verb} {self.removed} of {self.examined} record(s), "
            f"keeping {self.kept}"
        ]
        for group, n in sorted(self.by_group.items()):
            lines.append(f"  {'/'.join(group)}: {verb} {n}")
        return "\n".join(lines)


class ResultsStore:
    """Sharded append-only JSONL store under one directory.

    Records land in ``records-<x>.jsonl`` where ``x`` is the first hex
    character of the ``run_id`` — appends from concurrent harnesses
    contend on at most one shard, and a scan streams shards in a stable
    order.  The store is append-only: :meth:`prune` is the only
    operation that rewrites shards (atomically, via rename).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: torn (skipped) lines seen by the most recent scan
        self.torn_lines = 0

    # -- paths ----------------------------------------------------------

    def shard_path(self, run_id: str) -> Path:
        shard = run_id[0] if run_id and run_id[0] in "0123456789abcdef" else "0"
        return self.root / f"records-{shard}.jsonl"

    def shard_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("records-*.jsonl"))

    # -- writing --------------------------------------------------------

    def ingest(self, record: dict, obs=None) -> str:
        """Append one record; returns its ``run_id``.

        The record is validated and serialised *before* the file is
        touched; the line is appended in a single flushed write while
        holding an exclusive ``flock`` on the shard, so concurrent
        writers (service workers, parallel CLI runs) serialise per
        shard and every line present in a shard is complete.  ``obs``
        (a :class:`repro.obs.TraceContext`) gets one ``store.ingest``
        event per record.
        """
        for key in REQUIRED_KEYS:
            if key not in record:
                raise StoreError(f"run record is missing {key!r}: {record}")
        record.setdefault("schema", SCHEMA_VERSION)
        line = json.dumps(record, sort_keys=True, default=_json_fallback)
        if "\n" in line:
            raise StoreError("run record serialised with embedded newline")
        path = self.shard_path(record["run_id"])
        self.root.mkdir(parents=True, exist_ok=True)
        with open(path, "ab+") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                # A writer killed mid-append can leave the shard without
                # its trailing newline; the check happens under the lock
                # (and against the live handle) so a concurrent append
                # can't race the repair.  Start on a fresh line so the
                # torn fragment stays isolated instead of corrupting
                # this record too.
                data = line.encode("utf-8") + b"\n"
                if not _handle_ends_with_newline(fh):
                    data = b"\n" + data
                fh.write(data)
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        if obs is not None:
            obs.event(
                "store.ingest",
                run_id=record["run_id"],
                kind=record["kind"],
                bench=record["bench"],
                mode=record["mode"],
                shard=path.name,
            )
        return record["run_id"]

    def ingest_many(self, records: Iterable[dict], obs=None) -> list[str]:
        return [self.ingest(record, obs=obs) for record in records]

    # -- reading --------------------------------------------------------

    def iter_records(self) -> Iterator[dict]:
        """Stream every record, shard by shard, in file order.

        Because every append is one complete line (and an append after
        a crash starts on a fresh line), the only malformed lines an
        uncorrupted store can contain are torn fragments from writers
        killed mid-``write``.  They are skipped and counted on
        :attr:`torn_lines` (reset per scan) so callers can surface the
        data loss instead of failing the whole store.
        """
        self.torn_lines = 0
        for path in self.shard_paths():
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError:
                        self.torn_lines += 1

    def records(self) -> list[dict]:
        """All records, oldest first (stable across shards)."""
        out = list(self.iter_records())
        out.sort(key=lambda r: (r.get("timestamp", 0.0), r.get("run_id", "")))
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())

    # -- retention ------------------------------------------------------

    def prune(
        self,
        keep: int,
        kinds: Optional[set[str]] = None,
        dry_run: bool = False,
    ) -> PruneReport:
        """Retention: keep the newest ``keep`` records per run identity.

        Grouping is by ``run_id`` — the content address of a
        configuration — so every distinct (source, options, geometry)
        keeps its own trailing window and an ablation sweep cannot
        starve the main matrix out of the store.  ``kinds`` restricts
        the pass (default: every kind).  Shards are rewritten via a
        temp file + atomic rename; ``dry_run`` only reports.
        """
        if keep < 1:
            raise StoreError(f"prune keep must be >= 1, got {keep}")
        report = PruneReport(dry_run=dry_run)
        drop: set[int] = set()
        by_id: dict[str, list[tuple[float, int, dict]]] = {}
        all_records: list[dict] = []
        for idx, rec in enumerate(self.iter_records()):
            all_records.append(rec)
            report.examined += 1
            if kinds is not None and rec.get("kind") not in kinds:
                continue
            by_id.setdefault(rec["run_id"], []).append(
                (rec.get("timestamp", 0.0), idx, rec)
            )
        for _run_id, entries in by_id.items():
            entries.sort(key=lambda e: (e[0], e[1]))
            for _ts, idx, rec in entries[:-keep]:
                drop.add(idx)
                group = (
                    rec.get("kind", "?"),
                    rec.get("bench", "?"),
                    rec.get("mode", "?"),
                )
                report.by_group[group] = report.by_group.get(group, 0) + 1
        report.removed = len(drop)
        report.kept = report.examined - report.removed
        if dry_run or not drop:
            return report

        survivors = [
            rec for idx, rec in enumerate(all_records) if idx not in drop
        ]
        by_shard: dict[Path, list[dict]] = {p: [] for p in self.shard_paths()}
        for rec in survivors:
            by_shard.setdefault(self.shard_path(rec["run_id"]), []).append(rec)
        for path, recs in by_shard.items():
            if not recs:
                path.unlink(missing_ok=True)
                continue
            tmp = path.with_suffix(".jsonl.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                for rec in recs:
                    fh.write(
                        json.dumps(rec, sort_keys=True, default=_json_fallback)
                        + "\n"
                    )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        return report


def _handle_ends_with_newline(fh) -> bool:
    """Whether the open binary handle's file ends with a newline.

    Used under the ingest ``flock`` so the check reflects the file's
    state at lock-acquisition time, not at open time.
    """
    if fh.seek(0, os.SEEK_END) == 0:
        return True  # empty (or brand-new) shard: nothing to repair
    fh.seek(-1, os.SEEK_END)
    return fh.read(1) == b"\n"


def _json_fallback(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return str(value)
