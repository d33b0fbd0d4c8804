"""The experiment results store: records, durability, queries,
comparison, CLI, and the dashboard.

The store is the PR's durability-critical subsystem, so the torn-line
tests exercise the exact crash shapes the design defends against: a
writer killed mid-``write`` (torn final line) and an append landing
after such a crash (fresh-line repair).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.store import (
    ResultsStore,
    StoreError,
    compute_run_id,
    make_record,
    new_batch_id,
    pipeline_version,
    render_dashboard,
)
from repro.obs.store.__main__ import main as store_main
from repro.obs.store.core import code_version
from repro.obs.store.query import (
    compare_records,
    get_metric,
    latest_matrix,
    resolve_run,
    runs,
    series,
)
from repro.obs.store.render import ascii_spark, format_run_list


def _metrics(cycles: int = 1000, wall: float = 12.5) -> dict:
    return {
        "counters": {
            "cpu_cycles": cycles,
            "data_access_cycles": cycles // 3,
            "retired_loads": 100,
            "retired_indirect_loads": 40,
            "check_instructions": 10,
            "check_failures": 1,
            "recovery_cycles": 5,
        },
        "alat": {"capacity_evictions": 2, "collisions": 1},
        "host": {"wall_ms": wall, "sim_steps_per_sec": 1e6},
    }


def _record(bench="gzip", mode="speculative", ts=100.0, **kw):
    kw.setdefault("metrics", _metrics())
    kw.setdefault("suite", "matrix")
    kw.setdefault("git_rev", None)
    return make_record(bench, mode, kw.pop("metrics"), timestamp=ts, **kw)


# -- records and run ids -------------------------------------------------


def test_record_round_trip(tmp_path):
    store = ResultsStore(tmp_path / "store")
    rec = _record(sites=[{"site": "p", "line": 7, "allocations": 3}])
    run_id = store.ingest(rec)
    assert len(run_id) == 16
    (got,) = store.records()
    assert got["run_id"] == run_id
    assert got["bench"] == "gzip" and got["mode"] == "speculative"
    assert got["metrics"]["counters"]["cpu_cycles"] == 1000
    assert got["sites"][0]["line"] == 7
    assert got["pipeline_version"] == pipeline_version()


def test_run_id_is_content_addressed():
    a = compute_run_id(bench="gzip", mode="baseline")
    assert a == compute_run_id(bench="gzip", mode="baseline")
    assert a != compute_run_id(bench="gzip", mode="speculative")
    assert a != compute_run_id(
        bench="gzip", mode="baseline", config={"rounds": 2}
    )
    assert a != compute_run_id(
        bench="gzip", mode="baseline", machine={"alat_entries": 16}
    )
    # re-running one configuration accumulates records under one id
    assert _record(ts=1.0)["run_id"] == _record(ts=2.0)["run_id"]


def test_pipeline_version_follows_the_code(tmp_path):
    """Run ids and cache keys carry a hash of the package's code, so a
    one-byte edit anywhere in it changes them."""
    import shutil

    from repro.obs.store.core import PACKAGE_ROOT

    tree = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert code_version(tree) == pipeline_version()
    target = tree / "workloads" / "programs.py"
    data = target.read_bytes()
    target.write_bytes(data.replace(b"420", b"421", 1))
    assert code_version(tree) != pipeline_version()


def test_ingest_rejects_incomplete_records(tmp_path):
    store = ResultsStore(tmp_path)
    with pytest.raises(StoreError, match="missing 'metrics'"):
        store.ingest({"run_id": "x", "kind": "run", "bench": "b",
                      "mode": "m", "timestamp": 1.0})


def test_ingest_emits_trace_event(tmp_path):
    from repro.obs import MemorySink, TraceContext

    sink = MemorySink()
    obs = TraceContext(sink)
    try:
        store = ResultsStore(tmp_path)
        store.ingest(_record(), obs=obs)
    finally:
        obs.close()
    events = [e for e in sink.events if e["event"] == "store.ingest"]
    assert len(events) == 1
    assert events[0]["bench"] == "gzip"
    assert events[0]["shard"].startswith("records-")


# -- durability ----------------------------------------------------------


def test_torn_final_line_skipped_and_counted(tmp_path):
    store = ResultsStore(tmp_path)
    rec = _record()
    store.ingest(rec)
    path = store.shard_path(rec["run_id"])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"run_id": "abc", "truncated')  # killed mid-write
    assert len(store.records()) == 1
    assert store.torn_lines == 1


def test_append_after_crash_starts_fresh_line(tmp_path):
    store = ResultsStore(tmp_path)
    first = _record(ts=1.0)
    store.ingest(first)
    path = store.shard_path(first["run_id"])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"torn":')  # no trailing newline
    # same bench/mode -> same shard; must not fuse with the fragment
    second = _record(ts=2.0)
    store.ingest(second)
    got = store.records()
    assert [r["timestamp"] for r in got] == [1.0, 2.0]
    assert store.torn_lines == 1


# -- retention -----------------------------------------------------------


def test_prune_keeps_newest_per_identity(tmp_path):
    store = ResultsStore(tmp_path)
    for ts in (1.0, 2.0, 3.0):
        store.ingest(_record(ts=ts))  # one identity, three observations
    store.ingest(_record(bench="vpr", ts=1.0))  # different identity

    dry = store.prune(keep=1, dry_run=True)
    assert (dry.examined, dry.removed, dry.kept) == (4, 2, 2)
    assert len(store.records()) == 4  # dry run wrote nothing

    report = store.prune(keep=1)
    assert report.removed == 2
    assert report.by_group == {("run", "gzip", "speculative"): 2}
    kept = store.records()
    assert len(kept) == 2
    gzip_rec = next(r for r in kept if r["bench"] == "gzip")
    assert gzip_rec["timestamp"] == 3.0  # newest survived
    assert "removed 2 of 4" in report.format()


def test_prune_kind_filter_and_validation(tmp_path):
    store = ResultsStore(tmp_path)
    for ts in (1.0, 2.0):
        store.ingest(_record(ts=ts))
        store.ingest(_record(kind="table", ts=ts,
                             metrics={"table": {"text": "t"}}))
    report = store.prune(keep=1, kinds={"table"})
    assert report.removed == 1
    kinds = sorted(r["kind"] for r in store.records())
    assert kinds == ["run", "run", "table"]
    with pytest.raises(StoreError):
        store.prune(keep=0)


# -- queries -------------------------------------------------------------


def _seeded_store(tmp_path) -> ResultsStore:
    store = ResultsStore(tmp_path / "q")
    store.ingest(_record("gzip", "baseline", ts=1.0,
                         metrics=_metrics(cycles=2000)))
    store.ingest(_record("gzip", "speculative", ts=1.0))
    store.ingest(_record("vpr", "speculative", ts=2.0,
                         config={"rounds": 2}))
    store.ingest(_record("gzip", "speculative", ts=3.0,
                         metrics=_metrics(cycles=900)))
    return store


def test_runs_filters(tmp_path):
    store = _seeded_store(tmp_path)
    assert len(runs(store)) == 4
    assert len(runs(store, bench="gzip")) == 3
    assert len(runs(store, mode="baseline")) == 1
    assert len(runs(store, config_key="rounds=2")) == 1
    assert len(runs(store, config_key="rounds=3")) == 0
    assert len(runs(store, since=2.0)) == 2
    newest = runs(store, limit=1)
    assert len(newest) == 1 and newest[0]["timestamp"] == 3.0
    prefix = runs(store, bench="vpr")[0]["run_id"][:6]
    assert len(runs(store, run_id=prefix)) == 1


def test_get_metric_dotted_path():
    rec = _record()
    assert get_metric(rec, "counters.cpu_cycles") == 1000
    assert get_metric(rec, "host.wall_ms") == 12.5
    assert get_metric(rec, "no.such.path") is None


def test_series_orders_observations(tmp_path):
    store = _seeded_store(tmp_path)
    table = series(store, "counters.cpu_cycles", bench="gzip",
                   mode="speculative")
    assert table == {("gzip", "speculative"): [(1.0, 1000), (3.0, 900)]}


def test_resolve_run_prefix_and_ambiguity(tmp_path):
    store = _seeded_store(tmp_path)
    full = runs(store, bench="vpr")[0]["run_id"]
    assert resolve_run(store, full[:8])["run_id"] == full
    # two observations of one id resolve to the newest
    gzip_id = runs(store, bench="gzip", mode="speculative")[0]["run_id"]
    assert resolve_run(store, gzip_id)["timestamp"] == 3.0
    with pytest.raises(StoreError, match="ambiguous|no run record"):
        resolve_run(store, "")
    with pytest.raises(StoreError, match="no run record"):
        resolve_run(store, "zzzz")


def test_latest_matrix_shape(tmp_path):
    store = _seeded_store(tmp_path)
    latest = latest_matrix(store)
    assert set(latest) == {"gzip", "vpr"}
    assert latest["gzip"]["speculative"]["timestamp"] == 3.0
    assert latest["gzip"]["baseline"]["metrics"]["counters"][
        "cpu_cycles"] == 2000


# -- comparison ----------------------------------------------------------


def test_compare_records_sections_and_sites():
    a = _record("gzip", "baseline", metrics=_metrics(cycles=2000),
                sites=[{"site": "p", "line": 3, "allocations": 10,
                        "collisions": 0, "evictions": 1}])
    b = _record("gzip", "speculative",
                sites=[{"site": "p", "line": 3, "allocations": 12,
                        "collisions": 2, "evictions": 1},
                       {"site": "q", "line": 9, "allocations": 4}])
    cmp = compare_records(a, b)
    cycles = next(d for d in cmp.sections["counters"]
                  if d.name == "cpu_cycles")
    assert (cycles.a, cycles.b, cycles.diff) == (2000, 1000, -1000)
    assert cycles.pct == pytest.approx(-50.0)
    assert {"counters", "host", "alat"} <= set(cmp.sections)

    by_site = {s.site: s for s in cmp.sites}
    assert by_site["p"].only_in is None
    assert by_site["q"].only_in == "b"
    alloc = next(d for d in by_site["p"].deltas if d.name == "allocations")
    assert (alloc.a, alloc.b) == (10, 12)
    json.dumps(cmp.as_dict())  # stays JSON-ready for --json


def test_delta_pct_guards_zero_baseline():
    from repro.obs.store.query import Delta

    assert Delta("x", 0, 5).pct is None


# -- CLI -----------------------------------------------------------------


def _cli_store(tmp_path) -> str:
    store_dir = str(tmp_path / "cli-store")
    store = ResultsStore(store_dir)
    store.ingest(_record("gzip", "baseline", ts=1.0,
                         metrics=_metrics(cycles=2000)))
    store.ingest(_record("gzip", "speculative", ts=1.0,
                         sites=[{"site": "p", "line": 3,
                                 "allocations": 5, "collisions": 1}]))
    return store_dir


def test_cli_list_ascii_and_json(tmp_path, capsys):
    store_dir = _cli_store(tmp_path)
    assert store_main(["--store", store_dir, "list"]) == 0
    text = capsys.readouterr().out
    assert "gzip" in text and "baseline" in text and "speculative" in text
    assert store_main(["--store", store_dir, "list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2 and {r["bench"] for r in data} == {"gzip"}


def test_cli_show_and_compare(tmp_path, capsys):
    store_dir = _cli_store(tmp_path)
    store = ResultsStore(store_dir)
    base_id = runs(store, mode="baseline")[0]["run_id"]
    spec_id = runs(store, mode="speculative")[0]["run_id"]

    assert store_main(["--store", store_dir, "show", base_id[:8]]) == 0
    assert "cpu_cycles" in capsys.readouterr().out

    assert store_main(
        ["--store", store_dir, "compare", base_id[:8], spec_id[:8]]
    ) == 0
    text = capsys.readouterr().out
    assert "counters" in text and "cpu_cycles" in text
    assert "ALAT site" in text  # per-site table rendered

    assert store_main(
        ["--store", store_dir, "compare", base_id[:8], spec_id[:8],
         "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"]["run_id"] == base_id
    assert doc["sites"][0]["site"] == "p"


def test_cli_series_prune_and_errors(tmp_path, capsys):
    store_dir = _cli_store(tmp_path)
    assert store_main(
        ["--store", store_dir, "series", "--metric", "counters.cpu_cycles"]
    ) == 0
    text = capsys.readouterr().out
    assert "series: counters.cpu_cycles" in text
    assert "baseline" in text and "speculative" in text
    assert store_main(["--store", store_dir, "prune", "--keep", "1"]) == 0
    capsys.readouterr()
    # unknown run id is an error (exit 1), not a traceback
    assert store_main(["--store", store_dir, "show", "zzzz"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_warns_about_torn_lines(tmp_path, capsys):
    store_dir = _cli_store(tmp_path)
    shards = ResultsStore(store_dir).shard_paths()
    with open(shards[0], "a", encoding="utf-8") as fh:
        fh.write('{"half')
    assert store_main(["--store", store_dir, "list"]) == 0
    assert "torn line(s)" in capsys.readouterr().err


def test_ascii_spark_shape():
    assert len(ascii_spark([1, 2, 3], width=3)) == 3
    assert ascii_spark([], width=5) == ""


def test_format_run_list_empty():
    assert "0 record(s)" in format_run_list([])


# -- dashboard -----------------------------------------------------------


def _matrix_store(tmp_path) -> ResultsStore:
    store = ResultsStore(tmp_path / "dash")
    batch = new_batch_id()
    for i, bench in enumerate(("gzip", "vpr", "mcf")):
        for mode, cycles in (("baseline", 2000 + i), ("speculative", 1500)):
            store.ingest(_record(
                bench, mode, ts=float(i + 1), batch=batch,
                metrics=_metrics(cycles=cycles),
                sites=[{"site": "p", "line": 3, "allocations": 5,
                        "collisions": i, "evictions": 1}],
            ))
    return store


def test_dashboard_is_self_contained(tmp_path):
    html = render_dashboard(_matrix_store(tmp_path))
    assert html.lstrip().startswith("<!DOCTYPE html>")
    for bench in ("gzip", "vpr", "mcf"):
        assert bench in html
    assert "<svg" in html  # sparklines inline
    assert "prefers-color-scheme" in html  # dark mode present
    # self-contained: no external fetches of any kind
    for marker in ("http://", "https://", "<script src", "<link"):
        assert marker not in html, f"external reference: {marker}"


def test_dashboard_sections_present(tmp_path):
    html = render_dashboard(_matrix_store(tmp_path))
    assert "ALAT site pressure" in html
    assert "baseline" in html and "speculative" in html
    assert "cpu" in html.lower()


def test_dashboard_empty_store(tmp_path):
    html = render_dashboard(ResultsStore(tmp_path / "empty"))
    assert "repro.workloads --store" in html  # points at the ingest path


def test_cli_dashboard_writes_file(tmp_path, capsys):
    store = _matrix_store(tmp_path)
    out = tmp_path / "dash.html"
    assert store_main(
        ["--store", str(store.root), "dashboard", "--html", str(out)]
    ) == 0
    assert out.stat().st_size > 1000
    assert "dashboard written" in capsys.readouterr().out


# -- concurrent writers (advisory per-shard flock) ----------------------


def _stress_writer(root: str, wid: int, n: int) -> None:
    store = ResultsStore(root)
    for i in range(n):
        rec = make_record(
            "gzip", "baseline", metrics={"counters": {"iteration": i}}
        )
        # Pin every record to one shard so all writers contend on the
        # same file — the worst case for interleaved appends.
        rec["run_id"] = f"a{wid:02d}{i:06d}"
        store.ingest(rec)


def test_concurrent_ingest_same_shard_never_tears(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    root = str(tmp_path)
    workers, per_worker = 4, 40
    procs = [
        ctx.Process(target=_stress_writer, args=(root, w, per_worker))
        for w in range(workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)

    store = ResultsStore(root)
    records = store.records()
    assert store.torn_lines == 0
    ids = {r["run_id"] for r in records}
    assert len(records) == len(ids) == workers * per_worker
    # One shard took every append (the run_ids force it), and each line
    # parses on its own — no interleaved bytes.
    assert [p.name for p in store.shard_paths()] == ["records-a.jsonl"]
