"""Cross-run queries over the results store.

Three shapes answer the questions the store exists for:

* :func:`runs` — "which measurements do I have?" (filter by bench,
  mode, kind, suite, config key, run-id prefix);
* :func:`series` — "how did metric X move across runs?" (one ordered
  ``(timestamp, value)`` list per (bench, mode));
* :func:`compare` — "run A vs run B, side by side" (typed deltas over
  counters, host metrics, ALAT/cache/RSE stats, and per-site tables).

Metric paths are dotted lookups into the record's ``metrics`` dict:
``counters.cpu_cycles``, ``host.wall_ms``, ``alat.capacity_evictions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.store.core import ResultsStore, StoreError


def get_metric(record: dict, path: str):
    """Dotted-path lookup into ``record["metrics"]`` (None if absent)."""
    node = record.get("metrics", {})
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _config_matches(record: dict, config_key: str) -> bool:
    """``key=value`` (string compare) or bare ``key`` (presence) against
    the record's flattened ``config`` dict."""
    config = record.get("config", {})
    flat: dict[str, object] = {}

    def _flatten(prefix: str, node) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                _flatten(prefix + k + ".", v)
        else:
            flat[prefix[:-1]] = node

    _flatten("", config)
    if "=" in config_key:
        key, _, want = config_key.partition("=")
        return key in flat and str(flat[key]) == want
    return any(k == config_key or k.startswith(config_key + ".") for k in flat)


def runs(
    store: ResultsStore,
    bench: Optional[str] = None,
    mode: Optional[str] = None,
    kind: Optional[str] = "run",
    suite: Optional[str] = None,
    config_key: Optional[str] = None,
    run_id: Optional[str] = None,
    since: Optional[float] = None,
    limit: Optional[int] = None,
) -> list[dict]:
    """Filtered records, oldest first.  ``kind=None`` matches every
    kind; ``run_id`` matches by prefix; ``limit`` keeps the newest N."""
    out = []
    for rec in store.records():
        if kind is not None and rec.get("kind") != kind:
            continue
        if bench is not None and rec.get("bench") != bench:
            continue
        if mode is not None and rec.get("mode") != mode:
            continue
        if suite is not None and rec.get("suite") != suite:
            continue
        if run_id is not None and not rec.get("run_id", "").startswith(run_id):
            continue
        if since is not None and rec.get("timestamp", 0.0) < since:
            continue
        if config_key is not None and not _config_matches(rec, config_key):
            continue
        out.append(rec)
    if limit is not None and limit >= 0:
        out = out[len(out) - limit:] if limit else []
    return out


def series(
    store: ResultsStore,
    metric: str,
    bench: Optional[str] = None,
    mode: Optional[str] = None,
    kind: str = "run",
    suite: Optional[str] = None,
) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """``{(bench, mode): [(timestamp, value), ...]}`` for one dotted
    metric path, oldest first; records without the metric contribute
    nothing."""
    out: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for rec in runs(store, bench=bench, mode=mode, kind=kind, suite=suite):
        value = get_metric(rec, metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        key = (rec.get("bench", "?"), rec.get("mode", "?"))
        out.setdefault(key, []).append((rec.get("timestamp", 0.0), value))
    return out


def resolve_run(store: ResultsStore, prefix: str) -> dict:
    """The *latest* record whose ``run_id`` starts with ``prefix``.

    A prefix matching several distinct run ids is ambiguous and raises
    :class:`StoreError` listing the candidates; several records of one
    run id (re-runs of the same configuration) resolve to the newest.
    """
    matches = runs(store, kind=None, run_id=prefix)
    if not matches:
        raise StoreError(f"no run record matches id prefix {prefix!r}")
    ids = {rec["run_id"] for rec in matches}
    if len(ids) > 1:
        listing = ", ".join(
            f"{rec['run_id']} ({rec.get('bench')}/{rec.get('mode')})"
            for rec in {r["run_id"]: r for r in matches}.values()
        )
        raise StoreError(
            f"run id prefix {prefix!r} is ambiguous: {listing}"
        )
    return matches[-1]


def latest_matrix(
    store: ResultsStore, suite: str = "matrix"
) -> dict[str, dict[str, dict]]:
    """``{bench: {mode: latest record}}`` for one suite — the input the
    dashboard renders from."""
    out: dict[str, dict[str, dict]] = {}
    for rec in runs(store, suite=suite):
        out.setdefault(rec["bench"], {})[rec["mode"]] = rec
    return out


# -- comparison ---------------------------------------------------------

#: metric sections compared by :func:`compare`, in render order
COMPARE_SECTIONS: tuple[tuple[str, str], ...] = (
    ("counters", "counters"),
    ("host", "host metrics"),
    ("alat", "ALAT"),
    ("cache", "cache"),
    ("rse", "RSE"),
)

#: per-site numeric fields compared by :func:`compare`
SITE_FIELDS: tuple[str, ...] = (
    "allocations",
    "collisions",
    "evictions",
    "check_hits",
    "check_failures",
    "recovery_cycles",
)


@dataclass
class Delta:
    """One metric, side by side."""

    name: str
    a: float
    b: float

    @property
    def diff(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> Optional[float]:
        if self.a == 0:
            return None
        return 100.0 * (self.b - self.a) / self.a

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "a": self.a,
            "b": self.b,
            "diff": self.diff,
            "pct": self.pct,
        }


@dataclass
class SiteDelta:
    """One ALAT site, side by side (matched by site label)."""

    site: str
    line: Optional[int]
    deltas: list[Delta]
    only_in: Optional[str] = None  # "a" | "b" when unmatched

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "line": self.line,
            "only_in": self.only_in,
            "deltas": [d.as_dict() for d in self.deltas],
        }


@dataclass
class RunComparison:
    """Typed deltas between two run records."""

    a: dict
    b: dict
    sections: dict[str, list[Delta]] = field(default_factory=dict)
    sites: list[SiteDelta] = field(default_factory=list)

    def as_dict(self) -> dict:
        def ident(rec: dict) -> dict:
            return {
                "run_id": rec.get("run_id"),
                "bench": rec.get("bench"),
                "mode": rec.get("mode"),
                "suite": rec.get("suite"),
                "timestamp": rec.get("timestamp"),
                "git_rev": rec.get("git_rev"),
                "config": rec.get("config", {}),
            }

        return {
            "a": ident(self.a),
            "b": ident(self.b),
            "sections": {
                name: [d.as_dict() for d in deltas]
                for name, deltas in self.sections.items()
            },
            "sites": [s.as_dict() for s in self.sites],
        }


def _numeric_items(node) -> dict[str, float]:
    if not isinstance(node, dict):
        return {}
    return {
        k: v
        for k, v in node.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def compare_records(rec_a: dict, rec_b: dict) -> RunComparison:
    """Deltas over every shared numeric metric, plus per-site tables."""
    cmp = RunComparison(rec_a, rec_b)
    for section, _title in COMPARE_SECTIONS:
        nums_a = _numeric_items(rec_a.get("metrics", {}).get(section))
        nums_b = _numeric_items(rec_b.get("metrics", {}).get(section))
        names = [k for k in nums_a if k in nums_b]
        names += [k for k in nums_b if k not in nums_a]
        deltas = [
            Delta(name, nums_a.get(name, 0), nums_b.get(name, 0))
            for name in names
        ]
        if deltas:
            cmp.sections[section] = deltas

    sites_a = {s.get("site"): s for s in rec_a.get("sites", [])}
    sites_b = {s.get("site"): s for s in rec_b.get("sites", [])}
    for label in list(sites_a) + [s for s in sites_b if s not in sites_a]:
        sa, sb = sites_a.get(label), sites_b.get(label)
        base = sa or sb or {}
        deltas = [
            Delta(f, (sa or {}).get(f, 0), (sb or {}).get(f, 0))
            for f in SITE_FIELDS
        ]
        cmp.sites.append(
            SiteDelta(
                site=str(label),
                line=base.get("line"),
                deltas=deltas,
                only_in=None if sa and sb else ("a" if sa else "b"),
            )
        )
    return cmp


def compare(store: ResultsStore, prefix_a: str, prefix_b: str) -> RunComparison:
    """Resolve two run-id prefixes and compare their latest records."""
    return compare_records(
        resolve_run(store, prefix_a), resolve_run(store, prefix_b)
    )
