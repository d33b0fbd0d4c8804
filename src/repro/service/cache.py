"""Content-addressed artifact cache with checksum-verified reads.

The cache memoizes deterministic job artifacts (simulated counters,
program output, machine stats) by the **content address** of the
request: ``sha256(job kind + canonical payload + pipeline version)``.
The payload names what to run — for a ``compile`` job the MiniC source,
the full compiler options (including machine geometry) and the
run/train arguments; for a ``bench`` job only the benchmark's name and
treatment.  What the payload leaves out (the compiler, a workload's
source and inputs) is covered by the pipeline version,
:func:`repro.obs.store.pipeline_version`, a hash of the package's code:
any code change invalidates every entry at once.

The robustness contract mirrors the ALAT's own (an entry may be lost at
any time, never wrong):

* every entry embeds a SHA-256 over the canonical serialisation of its
  artifact; **every** read re-hashes and compares — a corrupt, torn, or
  tampered entry is moved to ``quarantine/`` and reported as a miss, so
  the job transparently recomputes instead of serving a wrong answer;
* entries whose ``pipeline_version`` no longer matches are *stale*, not
  corrupt: they are deleted and recomputed without the quarantine noise;
* writes go through a temp file + atomic rename, so a crashed writer
  can leave at worst a stray ``*.tmp`` (ignored), never a half-entry
  under the final name.

Every lookup/store/quarantine emits one ``service.cache`` trace event.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.obs.store.core import canonical_json, pipeline_version

#: cache entry format version (bump on shape changes)
CACHE_SCHEMA = 1

#: payload keys excluded from the content address: they steer side
#: effects (where records are ingested, where traces are written), not
#: the computed artifact.
VOLATILE_PAYLOAD_KEYS = frozenset({"store", "batch", "suite", "trace_dir"})


def artifact_sha(artifact: dict) -> str:
    """Truncated SHA-256 over the canonical artifact serialisation —
    what cache verification and the chaos ledger compare."""
    return hashlib.sha256(
        canonical_json(artifact).encode("utf-8")
    ).hexdigest()[:16]


def cache_key(kind: str, payload: dict) -> str:
    """Content address of one request (64 hex chars)."""
    identity = {
        "kind": kind,
        "payload": {
            k: v for k, v in payload.items()
            if k not in VOLATILE_PAYLOAD_KEYS
        },
        "pipeline": pipeline_version(),
        "schema": CACHE_SCHEMA,
    }
    return hashlib.sha256(
        canonical_json(identity).encode("utf-8")
    ).hexdigest()


@dataclass
class CacheStats:
    """Counters for one cache instance (reset per process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: corrupt entries moved to quarantine (each also counts a miss)
    quarantined: int = 0
    #: entries from an older pipeline version, deleted (each a miss)
    stale: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "stale": self.stale,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class ArtifactCache:
    """Filesystem-backed artifact cache under one directory.

    Entries live at ``<root>/<key[:2]>/<key>.json``; quarantined files
    move to ``<root>/quarantine/``.  ``obs`` (a
    :class:`repro.obs.TraceContext`) receives ``service.cache`` events.
    """

    root: Path
    obs: Optional[object] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- paths ----------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _event(self, status: str, key: str, **fields) -> None:
        if self.obs is not None:
            self.obs.event(
                "service.cache", status=status, key=key[:16], **fields
            )

    # -- lookup ---------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The verified artifact for ``key``, or ``None`` (miss).

        Any defect — unreadable file, malformed JSON, wrong key,
        missing fields, checksum mismatch — quarantines the entry and
        reports a miss; a read can serve a wrong artifact only if
        SHA-256 collides.
        """
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            self._event("miss", key)
            return None
        try:
            # Decode inside the guard: a flipped byte can leave invalid
            # UTF-8, which is corruption (UnicodeDecodeError is a
            # ValueError), not a crash.
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            artifact = entry["artifact"]
            stored_sha = entry["sha256"]
            stored_key = entry["key"]
            version = entry["pipeline_version"]
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, key, f"malformed entry: {exc}")
            return None
        if version != pipeline_version():
            # Honest staleness, not corruption: recompute quietly.
            self.stats.stale += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            self._event("stale", key, entry_version=str(version))
            return None
        if stored_key != key:
            self._quarantine(path, key, "entry key does not match its path")
            return None
        actual = artifact_sha(artifact)
        if actual != stored_sha:
            self._quarantine(
                path, key,
                f"checksum mismatch: entry says {stored_sha}, "
                f"artifact hashes to {actual}",
            )
            return None
        self.stats.hits += 1
        self._event("hit", key, sha=stored_sha)
        return artifact

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a defective entry aside (never served again, kept for
        forensics) and count the lookup as a miss."""
        self.stats.quarantined += 1
        self.stats.misses += 1
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        n = 0
        while dest.exists():
            n += 1
            dest = self.quarantine_dir / f"{path.stem}.{n}{path.suffix}"
        try:
            os.replace(path, dest)
        except OSError:
            # Lost a race with another quarantining reader — the entry
            # is gone either way, which is all correctness needs.
            pass
        self._event("quarantine", key, reason=reason)

    # -- store ----------------------------------------------------------

    def put(self, key: str, artifact: dict) -> str:
        """Write one verified entry (atomic); returns the artifact sha."""
        sha = artifact_sha(artifact)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "pipeline_version": pipeline_version(),
            "sha256": sha,
            "artifact": artifact,
        }
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.stats.stores += 1
        self._event("store", key, sha=sha)
        return sha
