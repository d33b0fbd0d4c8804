"""The benchmark's own tests, at tiny sizes.

Run with ``python -m pytest benchmarks/perf/tests`` from the repository
root.
"""

import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import speed
import suite
from layers import LAYER_NAMES, Tracer

SPEC = run.load_spec()
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: the workload on which each layer must be called
LAYER_WORKLOAD = {
    **{layer: "paper-matrix" for layer in (
        "machine", "ir.interp", "speculation", "minic", "alias", "ssa",
        "pre", "analysis", "opt", "ir.verify", "target", "speclint",
        "pipeline", "workloads")},
    "chaos": "chaos-campaign",
    "service.pool": "service-cache",
    "service.cache": "service-cache",
}


def _tiny(name):
    if name == "paper-matrix":
        return suite.PaperMatrix(0, kernels=("vortex",))
    if name == "chaos-campaign":
        return suite.ChaosCampaign(0, programs=3)
    return suite.ServiceCache(0, unique=4)


@pytest.fixture(scope="module")
def results():
    """(untraced, traced) results of each workload at a tiny size."""
    out = {}
    for name in suite.WORKLOADS:
        workload = _tiny(name)
        try:
            plain = suite.measure(workload, 0)
            traced = suite.measure(workload, 0, Tracer())
        finally:
            workload.close()
        out[name] = plain, traced
    return out


def _record(result, trace):
    values = dict(result["values"], setup_s=0.5)
    return {**result, "values": values, "trace": trace, "workload": "w"}


def test_spec_keeps_to_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)
    names = END_TO_END + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_every_metric_is_emitted(results, name):
    plain, traced = results[name]
    assert plain["correct"] and traced["correct"]
    line = run.contract_line(_record(plain, 0), SPEC)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert list(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    line = run.contract_line(_record(traced, 1), SPEC)
    assert list(line["metrics"]) == PER_LAYER


def test_each_layer_is_called_on_its_workload(results):
    assert set(LAYER_WORKLOAD) == set(LAYER_NAMES)
    for layer, name in LAYER_WORKLOAD.items():
        traced = results[name][1]["values"]
        assert traced[f"{layer}.calls"] > 0, layer
    for name, (_, traced) in results.items():
        assert traced["values"]["trace.coverage"] >= 0.95, name


def test_tracing_leaves_exact_counts_alone(results):
    for name, (plain, traced) in results.items():
        assert plain["exact"] == traced["exact"], name
    exact, layers = (results["paper-matrix"][1][k] for k in ("exact", "values"))
    assert layers["machine.cycles"] == exact["guest_cycles"]
    assert layers["machine.instr"] == exact["guest_instr"]
    assert layers["pre.checks"] == exact["pre_checks"]
    assert layers["pre.reloads"] == exact["pre_reloads"]
    exact, layers = (results["service-cache"][1][k] for k in ("exact", "values"))
    assert layers["service.cache.hits"] == exact["hits"] == 4
    assert layers["service.cache.misses"] == exact["misses"] == 8


def test_service_check_catches_a_wrong_artifact():
    workload = suite.ServiceCache(1, unique=2)
    try:
        op = suite._timed_op(workload, 0)
        assert workload.verify([op]) == 0
        first = op.pending[0]
        op.pending[0] = first._replace(output=first.output + ["0"])
        n = next(n for n, job in enumerate(op.pending) if job.pass1_sha)
        op.pending[n] = op.pending[n]._replace(sha="0" * 16)
        assert workload.verify([op]) == 2
    finally:
        workload.close()
    assert suite.workers.HANDLERS["compile"] is suite._COMPILE


def test_stopwatch_scales_cpu_time_by_the_sampled_speed():
    assert speed.scaled(2.0, [speed.REFERENCE_S] * 3) == pytest.approx(2.0)
    assert speed.scaled(2.0, [2 * speed.REFERENCE_S] * 3) == pytest.approx(1.0)
    with speed.Stopwatch() as sw:
        t0 = time.thread_time()
        while time.thread_time() - t0 < 10 * speed.PERIOD_S:
            speed.reference_loop()
    assert len(sw.samples) >= 2 * speed.EDGE_SAMPLES + 5
    assert sw.seconds > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_quartiles_and_summary():
    assert run.quartiles([3.0]) == (3.0, 3.0, 3.0)
    runs = [{"workload": "w", "seed": v // 2, "trace": 0, "correct": True,
             "exact": {"n": v // 2}, "values": {"cpu_s": v, "setup_s": 1.0}}
            for v in (1, 2, 3, 4, 5)]
    s = run.summarise(runs, SPEC)["w"]
    assert s["metrics"]["cpu_s"]["median"] == 3.0
    assert (s["metrics"]["cpu_s"]["q1"], s["metrics"]["cpu_s"]["q3"]) == (1.5, 4.5)
    assert s["exact"] == {"0": {"n": 0}, "1": {"n": 1}, "2": {"n": 2}}
    assert s["exact_repeats"]
    runs[2]["exact"] = {"n": 7}
    assert not run.summarise(runs, SPEC)["w"]["exact_repeats"]


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.judge(a, [x * 1.02 for x in a], "lower", 0.1) == "within"
    assert run.judge(a, [x * 1.2 for x in a], "lower", 0.1) == "worse"
    assert run.judge(a, [x * 0.8 for x in a], "lower", 0.1) == "better"
    assert run.judge(a, [x * 0.8 for x in a], "higher", 0.1) == "worse"
    assert run.judge(a, [60.0, 140.0, 100.0, 70.0, 130.0], "lower", 0.1) \
        == "unresolved"


def test_fails_without_the_compiler(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero
    and prints no result."""
    shutil.copy(run.SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "paper-matrix", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
