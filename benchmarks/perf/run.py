"""The repository benchmark: run workloads, summarise runs, compare records.

One run::

    python3 benchmarks/perf/run.py --workload paper-matrix --seed 0 \\
        --seconds 30 --trace 0

starts ``suite.py`` in a fresh interpreter several times to time set-up
(the child's CPU seconds up to ``ready``, at reference speed: see
``speed.py``), lets the last child run the timed section, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics`` - the ``end_to_end`` metrics of ``BENCHMARK.json`` untraced,
its ``per_layer`` metrics with ``--trace 1``.  The exit code is 1 if any
op failed or the run could not be made.

Without ``--workload`` every workload runs.  ``--runs N`` makes N
untraced runs per workload on seeds ``seed .. seed+N-1`` (plus one
traced run with ``--trace 1``) and prints each metric's median and
quartiles.  ``--out FILE`` adds the runs to FILE (created if missing)
and writes their summary beside them.  ``compare A.json B.json``
judges every end-to-end metric of B against A by the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"

#: set-ups timed per untraced run; the reported ``setup_s`` is their median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120.0
RUN_TIMEOUT_S = 170.0
STOP_TIMEOUT_S = 10.0


class BenchError(Exception):
    """A run could not be made (as opposed to a run with failed ops)."""


def load_spec() -> dict:
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_FILE.name}: {exc}") from exc


def metric_specs(spec: dict) -> dict[str, dict]:
    """Every metric of the spec by name (``end_to_end`` first)."""
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


# -- one run ---------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # Set and dict iteration order inside the compiler must not vary
    # between runs, or the exact counts would.
    env["PYTHONHASHSEED"] = "0"
    return env


def _wait_ready(proc: subprocess.Popen, workload: str) -> float:
    """The CPU seconds the child spent setting up, from its ready line."""
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    word, _, cpu = (proc.stdout.readline() if readable else "").partition(" ")
    if word != "ready":
        raise BenchError(f"{workload}: the child ended or hung during set-up")
    return float(cpu)


def _stop(proc: subprocess.Popen) -> None:
    """Ask a child still running to close its workload (and so its pool
    workers), then kill it if it does not."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload in fresh child processes: the run record."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no compiler sources under {ROOT / 'src'}")
    cmd = [sys.executable, str(HERE / "suite.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    env = _child_env()
    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    for n in range(repeats):
        with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                              stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE) as proc:
            try:
                setups.append(_wait_ready(proc, workload))
                last = n == repeats - 1
                out, _ = proc.communicate("go\n" if last else "stop\n",
                                          timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{workload}: the timed section hung") from exc
            finally:
                _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"{workload}: the child exited with "
                             f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: the child printed no result")
    result = json.loads(lines[-1])
    result["values"]["setup_s"] = statistics.median(setups)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "setup_s_samples": setups, **result}


def contract_line(run: dict, spec: dict) -> dict:
    """The last line of a single run: every metric of its kind."""
    kind = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    missing = [m["name"] for m in kind if m["name"] not in run["values"]]
    if missing:
        raise BenchError(f"{run['workload']} did not measure {missing}")
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["values"][m["name"]],
                                "unit": m["unit"]} for m in kind},
    }


# -- summaries ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def exact_by_seed(runs: list[dict]) -> tuple[dict, bool]:
    """The exact counts of each seed's first run, and whether every run
    of a seed (traced or not) reproduced them."""
    by_seed: dict = {}
    repeats = True
    for r in runs:
        repeats &= by_seed.setdefault(str(r["seed"]), r["exact"]) == r["exact"]
    return by_seed, repeats


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per workload: each metric's median and quartiles over the runs of
    its kind, the exact counts per seed, and the tracing overhead when
    traced and untraced runs both exist."""
    specs = metric_specs(spec)
    kinds = {m["name"]: "end_to_end" for m in spec["end_to_end"]}
    kinds.update({m["name"]: "per_layer" for m in spec["per_layer"]})
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        metrics = {}
        for name, m in specs.items():
            want_trace = kinds[name] == "per_layer"
            values = [r["values"][name] for r in mine
                      if bool(r["trace"]) == want_trace and name in r["values"]]
            if values:
                q1, median, q3 = quartiles(values)
                metrics[name] = {"median": median, "q1": q1, "q3": q3,
                                 "n": len(values), "unit": m["unit"]}
        plain = [r["values"]["cpu_s"] for r in mine if not r["trace"]]
        traced = [r["values"]["cpu_s"] for r in mine if r["trace"]]
        if plain and traced:
            metrics["trace.overhead_pct"] = {
                "median": 100 * (statistics.median(traced)
                                 / statistics.median(plain) - 1),
                "n": len(traced), "unit": "%",
            }
        exact, repeats = exact_by_seed(mine)
        out[workload] = {
            "metrics": metrics,
            "exact": exact,
            "exact_repeats": repeats,
            "correct": all(r["correct"] for r in mine),
        }
    return out


def format_summary(summary: dict) -> str:
    lines = []
    for workload, s in summary.items():
        lines.append(f"{workload}:")
        for name, m in s["metrics"].items():
            spread = (f"  [{m['q1']:.6g} .. {m['q3']:.6g}]"
                      if "q1" in m and m["n"] > 1 else "")
            lines.append(f"  {name:34s} {m['median']:14.6g} {m['unit']:<12s}"
                         f"n={m['n']}{spread}")
        seed, exact = next(iter(s["exact"].items()))
        lines.append(f"  exact (seed {seed}): {json.dumps(exact)}")
        if not s["exact_repeats"]:
            lines.append("  EXACT COUNTS DIFFER between runs of one seed")
    return "\n".join(lines)


# -- compare -----------------------------------------------------------------


def judge(a: list[float], b: list[float], better: str, bound: float) -> str:
    """B's verdict against A for one metric: ``within`` bound, ``worse``,
    ``better``, or ``unresolved`` when either spread is wider than the
    bound (unless every B run beats every A run)."""
    sign = 1 if better == "lower" else -1
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb))
    change = sign * (mb - ma) / abs(ma)  # > 0 is worse
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    if -change * abs(ma) > q3a - q1a and wins >= 0.9 * pairs:
        return "better"
    return "within"


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[str, bool]:
    """A table of verdicts for every (end-to-end metric, workload) pair,
    and whether any is ``worse``."""
    rows = [f"{'workload':16s} {'metric':14s} {'A median':>12s} "
            f"{'B median':>12s} {'change':>8s} {'bound':>6s}  verdict"]
    any_worse = False
    workloads = [w for w in dict.fromkeys(r["workload"] for r in a_runs)
                 if any(r["workload"] == w for r in b_runs)]
    for workload in workloads:
        a_mine = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b_mine = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        if not a_mine or not b_mine:
            continue
        for m in spec["end_to_end"]:
            a = [r["values"][m["name"]] for r in a_mine]
            b = [r["values"][m["name"]] for r in b_mine]
            verdict = judge(a, b, m["better"], m["bound"])
            any_worse |= verdict == "worse"
            ma, mb = statistics.median(a), statistics.median(b)
            rows.append(f"{workload:16s} {m['name']:14s} {ma:12.6g} "
                        f"{mb:12.6g} {100 * (mb - ma) / ma:+7.2f}% "
                        f"{100 * m['bound']:5.0f}%  {verdict}")
        a_exact, _ = exact_by_seed(a_mine)
        b_exact, _ = exact_by_seed(b_mine)
        for seed in a_exact.keys() & b_exact.keys():
            if a_exact[seed] != b_exact[seed]:
                rows.append(f"{workload:16s} exact counts changed at seed "
                            f"{seed}: {a_exact[seed]} -> {b_exact[seed]}")
    return "\n".join(rows), any_worse


# -- command line --------------------------------------------------------------


def _meta(spec: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
    }


def _read_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _compare_main(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="record of the parent (--out of run.py)")
    parser.add_argument("b", help="record of the change")
    args = parser.parse_args(argv)
    table, any_worse = compare(_read_runs(args.a), _read_runs(args.b), spec)
    print(table)
    return 1 if any_worse else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Exit through the ``finally`` that kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if argv[:1] == ["compare"]:
            return _compare_main(argv[1:], spec)
        names = [w["name"] for w in spec["workloads"]]
        parser = argparse.ArgumentParser(
            description=__doc__.splitlines()[0])
        parser.add_argument("--workload", choices=names, default=None,
                            help="one workload (default: all)")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float,
                            default=spec["run_seconds"],
                            help="time budget of one run's timed section")
        parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                            const=1, default=0)
        parser.add_argument("--runs", type=int, default=1)
        parser.add_argument("--out", metavar="FILE",
                            help="add the runs to this record")
        args = parser.parse_args(argv)

        chosen = [args.workload] if args.workload else names
        repeated = args.runs > 1
        plan = [(w, seed, 0 if repeated else args.trace)
                for seed in range(args.seed, args.seed + args.runs)
                for w in chosen]
        if repeated and args.trace:
            plan += [(w, args.seed, 1) for w in chosen]
        runs = []
        for workload, seed, trace in plan:
            print(f"run: {workload} seed={seed} trace={trace}",
                  file=sys.stderr, flush=True)
            runs.append(run_once(workload, seed, args.seconds, trace))
            if runs[-1]["failed"]:
                print(f"{workload}: {runs[-1]['failed']} of "
                      f"{runs[-1]['attempted']} ops failed", file=sys.stderr)
        if args.out:
            everything = (_read_runs(args.out)
                          if os.path.exists(args.out) else []) + runs
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"meta": _meta(spec), "runs": everything,
                           "summary": summarise(everything, spec)},
                          fh, indent=1)
                fh.write("\n")
        summary = summarise(runs, spec)
        print(format_summary(summary))
        if len(runs) == 1:
            last = contract_line(runs[0], spec)
        else:
            last = {"correct": all(r["correct"] for r in runs),
                    "attempted": sum(r["attempted"] for r in runs),
                    "failed": sum(r["failed"] for r in runs),
                    "summary": {w: s["metrics"] for w, s in summary.items()}}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(last))
    return 0 if last["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
