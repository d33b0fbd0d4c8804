"""Bridge between the results store and ``repro.obs.regress`` history.

The regression gate speaks *history records*::

    {"bench": ..., "timestamp": ..., "modes": {mode: {counter: value,
                                                      "host": {...}}}}

one per gated sweep.  The store speaks *run records* — one per (bench,
mode) measurement, grouped into sweeps by their ``batch`` id.  This
module converts both ways, so the store is the gate's history:

* history record → per-mode run records sharing one batch
  (:func:`append_history_record`);
* run records → history records, batches ordered oldest-first
  (:func:`store_history`).
"""

from __future__ import annotations

from repro.obs.store.core import (
    ResultsStore,
    make_record,
    new_batch_id,
)

#: suite tag on run records that came from (or stand in for) the
#: regression-gate history
HISTORY_SUITE = "history"

#: the suites whose run records are observations of the benchmark
#: matrix, and so the gate's baseline; an ablation point or a CLI run
#: of the same benchmark measures some other configuration
GATE_SUITES = frozenset({"matrix", HISTORY_SUITE})


def append_history_record(
    store: ResultsStore, record: dict, obs=None
) -> list[str]:
    """Ingest one fresh gate history record as per-mode ``history`` run
    records sharing one batch (the gate's ``update`` path)."""
    batch = new_batch_id()
    runs = []
    for mode, entry in record.get("modes", {}).items():
        counters = {k: v for k, v in entry.items() if k != "host"}
        metrics: dict = {"counters": counters}
        if entry.get("host"):
            metrics["host"] = dict(entry["host"])
        runs.append(
            make_record(
                record["bench"],
                mode,
                metrics,
                suite=HISTORY_SUITE,
                batch=batch,
                timestamp=record.get("timestamp"),
                git_rev=None,
            )
        )
    return store.ingest_many(runs, obs=obs)


def store_history(store: ResultsStore, bench: str) -> list[dict]:
    """The gate's history view of one benchmark, rebuilt from run
    records: batches become history records, ordered oldest-first.

    Only ``kind="run"`` records of the :data:`GATE_SUITES` participate.
    """
    batches: dict[str, dict] = {}
    order: list[str] = []
    for rec in store.records():
        if (rec.get("kind") != "run" or rec.get("bench") != bench
                or rec.get("suite") not in GATE_SUITES):
            continue
        batch = rec.get("batch", rec.get("run_id", "?"))
        if batch not in batches:
            batches[batch] = {
                "bench": bench,
                "timestamp": rec.get("timestamp", 0.0),
                "modes": {},
            }
            order.append(batch)
        group = batches[batch]
        group["timestamp"] = max(
            group["timestamp"], rec.get("timestamp", 0.0)
        )
        metrics = rec.get("metrics", {})
        entry = dict(metrics.get("counters", {}))
        if metrics.get("host"):
            entry["host"] = dict(metrics["host"])
        group["modes"][rec.get("mode", "?")] = entry
    history = [batches[b] for b in order]
    history.sort(key=lambda r: r["timestamp"])
    return history
