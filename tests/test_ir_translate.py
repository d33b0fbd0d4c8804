"""The IR interpreter's translated tier: its threshold, its traffic, and
its exactness where a run ends early.

``interp.THRESHOLD`` is set so that the short generated programs of the
chaos and service corpora never reach it, while every paper kernel's
oracle does.  Over every oracle run (reference arguments) and
alias-profiling run (training arguments) of the 200 chaos-campaign
programs, no loop header takes more than 56 back edges and no function
more than 51 calls; over all 800 service-cache programs, 65 and 76.
The kernels' hottest headers take 300 (twolf) to 27,200 (equake) back
edges.  If a generator change pushes short programs over the threshold,
these tests fail before the campaign and the service start paying for
translations they cannot earn back.

``tests/test_interp_reference.py`` runs every reference case on both
tiers.  The cases here end a run early inside translated code: the step
budget running out at each statement of a translated loop, runtime
errors raised in translated loops, and guest recursion deeper than the
host stack.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.campaign import INTERP_FUEL
from repro.chaos.generator import generate_program
from repro.errors import InterpError, InterpLimitExceeded
from repro.ir import interp
from repro.minic import compile_to_ir
from repro.obs.telemetry import HostProfiler
from repro.speculation.profile import _ProfilingTracer
from repro.workloads.programs import BENCHMARKS, get_workload
from tests.test_interp_reference import assert_same


#: the tier-up threshold and function cap the traffic below is judged by
THRESHOLD, MAX_FUNCTION = 256, 32


@pytest.fixture
def pinned(monkeypatch):
    """The pinned threshold and cap, even where a test run forces the
    tier on everything."""
    monkeypatch.setattr(interp, "THRESHOLD", THRESHOLD)
    monkeypatch.setattr(interp, "MAX_FUNCTION", MAX_FUNCTION)


def run(module, args, tracer=None, max_steps=INTERP_FUEL, **kwargs):
    machine = interp.Interpreter(
        module, tracer=tracer, max_steps=max_steps, **kwargs
    )
    try:
        machine.run(list(args))
    except InterpError:
        pass
    return machine


# -- traffic -------------------------------------------------------------


def test_threshold_and_function_cap_are_pinned():
    assert (interp.THRESHOLD, interp.MAX_FUNCTION) == (THRESHOLD, MAX_FUNCTION)


@pytest.mark.parametrize(
    "corpus,programs", [("0:{}", 200), ("svc:0:{}", 400)],
    ids=["chaos", "service"],
)
def test_generated_programs_never_translate(corpus, programs, pinned):
    for index in range(programs):
        seed = corpus.format(index)
        program = generate_program(random.Random(seed), index)
        oracle = run(compile_to_ir(program.source), program.ref_args)
        profile = run(
            compile_to_ir(program.source), program.train_args,
            tracer=_ProfilingTracer(),
        )
        assert oracle.translated == profile.translated == [], seed


@pytest.mark.parametrize("name", BENCHMARKS)
def test_every_paper_kernel_oracle_translates(name, pinned):
    workload = get_workload(name)
    oracle = run(compile_to_ir(workload.source), workload.ref_args)
    assert oracle.translated


# -- runs that end inside translated code ----------------------------------

LOOP = """
int cells[8];
int *p;
float f;

int bump(int x) { return x * 3 + 1; }

int main(int n) {
    int i = 0;
    int s = 0;
    while (i < n) {
        p = &cells[i % 8];
        *p = *p + s;
        s = s + bump(i) % 7;
        if (s > 20) { s = s - 20; print(s); }
        f = f * 0.5 + (float)s;
        i = i + 1;
    }
    print(f);
    return s;
}
"""


def test_step_budget_trips_at_each_statement_of_a_translated_loop():
    """With the threshold at 1 the loop is translated at its first back
    edge; every budget in a window of more than two iterations runs out
    at the same statement, with the same state, on every tier."""
    module = compile_to_ir(LOOP)
    steps = assert_same(module, [40])["stats"]["steps"]
    for fuel in range(steps // 2, steps // 2 + 40):
        seen = assert_same(module, [40], traced=True, max_steps=fuel)
        assert seen["outcome"] == (
            InterpLimitExceeded, f"interpreter exceeded {fuel} steps"
        )


FAULTS = {
    "division": "s = s + 100 / (7 - i);",
    "modulo": "s = s + 100 % (i - 9);",
    "null": "if (i == 6) { q = 0; } s = s + *q;",
    "conversion": "g = g * 1e200; s = s + (int)g;",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_runtime_errors_in_translated_loops(fault):
    """A statement that raises inside a translated loop leaves the
    counters, memory and tracer events the closures leave."""
    source = f"""
    int cells[4];
    int *q;
    float g;

    int main(int n) {{
        int i = 0;
        int s = 1;
        g = 1.5;
        q = &cells[1];
        while (i < n) {{
            cells[i % 4] = s;
            s = s + cells[(i + 1) % 4];
            {FAULTS[fault]}
            i = i + 1;
        }}
        return s;
    }}
    """
    seen = assert_same(compile_to_ir(source), [12], traced=True)
    assert seen["outcome"][0] != "exit", seen["outcome"]


def test_host_profiled_interpreter_never_translates(monkeypatch):
    """A host profiler times the closures (``interp.op.*``): nothing is
    translated, and every step is one timed statement."""
    monkeypatch.setattr(interp, "THRESHOLD", 1)
    workload = get_workload("equake")
    hp = HostProfiler()
    machine = run(
        compile_to_ir(workload.source), workload.train_args,
        host_profiler=hp,
    )
    assert machine.translated == []
    timed = {k: n for k, n in hp.counts.items() if k.startswith("interp.op.")}
    assert sum(timed.values()) == machine.stats.steps


DEEP = """
int down(int n) {
    if (n == 0) { return 0; }
    return down(n - 1) + 1;
}

int main(int n) { return down(n); }
"""


def deepest(threshold: int, monkeypatch) -> int:
    """The deepest recursion of ``DEEP`` that completes."""
    module = compile_to_ir(DEEP)
    low, high = 1, 2000
    with monkeypatch.context() as patch:
        patch.setattr(interp, "THRESHOLD", threshold)
        while low < high:
            mid = (low + high + 1) // 2
            try:
                interp.Interpreter(module).run([mid])
                low = mid
            except InterpError as exc:
                assert str(exc) == "call to down overflowed the host stack"
                high = mid - 1
    return low


def test_deepest_guest_recursion_is_the_same_on_both_tiers(monkeypatch):
    """A translated function costs the host stack what the closures do
    per guest activation, so the same recursion fits."""
    closures = deepest(10**9, monkeypatch)
    assert closures > THRESHOLD  # ``down`` tiers up on the way
    assert deepest(THRESHOLD, monkeypatch) == closures
    assert deepest(1, monkeypatch) == closures
    # tiering up at the deepest call, where the host stack has no room
    # left to translate, leaves the closures running
    assert deepest(closures, monkeypatch) == closures
