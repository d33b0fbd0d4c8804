"""CLI over the experiment results store.

::

    python -m repro.obs.store list    [--bench B] [--mode M] [--suite S]
                                      [--kind K] [--config key=value]
                                      [--metric PATH] [--limit N] [--json]
    python -m repro.obs.store show    <run-id-prefix> [--json]
    python -m repro.obs.store compare <a> <b> [--json]
    python -m repro.obs.store series  --metric PATH [--bench B] [--mode M]
                                      [--suite S] [--json]
    python -m repro.obs.store prune   --keep N [--kind K ...] [--dry-run]
    python -m repro.obs.store dashboard --html out.html [--suite S]
    python -m repro.obs.store ingest  --metrics FILE --bench B --mode M
                                      [--suite S] [--kind K]

Every subcommand takes ``--store`` (default ``benchmarks/store``).
ASCII output by default; ``--json`` emits the same data as JSON for
scripting.  Exit codes: 0 ok, 1 error, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.obs.store.core import ResultsStore, StoreError, make_record
from repro.obs.store.html import write_dashboard
from repro.obs.store.query import (
    compare,
    resolve_run,
    runs,
    series,
)
from repro.obs.store.render import (
    format_comparison,
    format_record,
    format_run_list,
    format_series,
)

DEFAULT_STORE = "benchmarks/store"


def _warn_torn(store: ResultsStore) -> None:
    if store.torn_lines:
        print(
            f"warning: skipped {store.torn_lines} torn line(s) in "
            f"{store.root}",
            file=sys.stderr,
        )


def _cmd_list(store: ResultsStore, args) -> int:
    kind = None if args.kind == "any" else args.kind
    records = runs(
        store,
        bench=args.bench,
        mode=args.mode,
        kind=kind,
        suite=args.suite,
        config_key=args.config,
        run_id=args.run_id,
        limit=args.limit,
    )
    _warn_torn(store)
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        print(format_run_list(records, metric=args.metric))
    return 0


def _cmd_show(store: ResultsStore, args) -> int:
    rec = resolve_run(store, args.run_id)
    _warn_torn(store)
    if args.json:
        print(json.dumps(rec, indent=2, sort_keys=True))
    else:
        print(format_record(rec))
    return 0


def _cmd_compare(store: ResultsStore, args) -> int:
    cmp = compare(store, args.run_a, args.run_b)
    _warn_torn(store)
    if args.json:
        print(json.dumps(cmp.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_comparison(cmp))
    return 0


def _cmd_series(store: ResultsStore, args) -> int:
    table = series(
        store,
        args.metric,
        bench=args.bench,
        mode=args.mode,
        suite=args.suite,
    )
    _warn_torn(store)
    if args.json:
        print(json.dumps(
            {
                f"{bench}/{mode}": points
                for (bench, mode), points in sorted(table.items())
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        print(format_series(table, args.metric))
    return 0


def _cmd_prune(store: ResultsStore, args) -> int:
    kinds = set(args.kind) if args.kind else None
    report = store.prune(args.keep, kinds=kinds, dry_run=args.dry_run)
    print(report.format())
    return 0


def _cmd_dashboard(store: ResultsStore, args) -> int:
    write_dashboard(args.html, store, suite=args.suite)
    _warn_torn(store)
    print(f"dashboard written to {args.html}")
    return 0


def _cmd_ingest(store: ResultsStore, args) -> int:
    with open(args.metrics, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    record = make_record(
        args.bench,
        args.mode,
        metrics,
        kind=args.kind,
        suite=args.suite,
        config={"options": metrics.get("options")}
        if metrics.get("options") else None,
    )
    run_id = store.ingest(record)
    print(f"ingested {run_id} ({args.bench}/{args.mode})")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.store",
        description="Query, compare, and maintain the experiment "
        "results store.",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"store directory (default {DEFAULT_STORE})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_filters(p) -> None:
        p.add_argument("--bench", help="filter: benchmark name")
        p.add_argument("--mode", help="filter: measurement mode")
        p.add_argument("--suite", help="filter: producing suite")

    p = sub.add_parser("list", help="list stored run records")
    add_filters(p)
    p.add_argument(
        "--kind",
        default="run",
        help="record kind (run/chaos/calibration; 'any' for all)",
    )
    p.add_argument("--config", help="filter: config key or key=value")
    p.add_argument("--run-id", help="filter: run id prefix")
    p.add_argument("--limit", type=int, help="keep only the newest N")
    p.add_argument(
        "--metric",
        default="counters.cpu_cycles",
        help="metric column for the ASCII listing",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("show", help="show one record in full")
    p.add_argument("run_id", help="run id prefix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("compare", help="delta tables between two runs")
    p.add_argument("run_a", help="run id prefix (baseline side)")
    p.add_argument("run_b", help="run id prefix (candidate side)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("series", help="one metric across runs")
    p.add_argument(
        "--metric", required=True,
        help="dotted metric path (e.g. counters.cpu_cycles)",
    )
    add_filters(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser(
        "prune", help="retention: drop old records per run identity"
    )
    p.add_argument(
        "--keep", type=int, required=True,
        help="newest records kept per run id",
    )
    p.add_argument(
        "--kind", action="append",
        help="restrict to this kind (repeatable)",
    )
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser(
        "dashboard", help="write the self-contained HTML dashboard"
    )
    p.add_argument("--html", required=True, help="output HTML path")
    p.add_argument(
        "--suite", default="matrix",
        help="suite rendered by the dashboard (default matrix)",
    )
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "ingest", help="ingest one metrics JSON file as a run record"
    )
    p.add_argument("--metrics", required=True, help="metrics JSON path")
    p.add_argument("--bench", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--suite", default="cli")
    p.add_argument("--kind", default="run")
    p.set_defaults(func=_cmd_ingest)

    args = parser.parse_args(argv)
    store = ResultsStore(args.store)
    try:
        return args.func(store, args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
