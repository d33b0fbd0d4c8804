"""The simulator's three loops agree.

A run with nothing attached takes the hook-free loop, which translates
hot loops and small hot functions once they reach
``translate.THRESHOLD``; the same loop with the threshold at 1
translates every loop and function on first reach; a run with a trace
sink, a guest profile and a host profiler attached takes the probed
loop, which never translates.  All three must retire the same
instructions with the same timing: equal counters, ALAT/cache/RSE
statistics, output and exit value, on every paper kernel and on a
seeded batch of generated programs under the chaos campaign's
speculative modes.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.campaign import default_modes
from repro.chaos.generator import generate_program
from repro.machine import translate
from repro.machine.cpu import Simulator
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import HostProfiler
from repro.obs.trace import TraceContext
from repro.pipeline import compile_source
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE

#: generated programs compared; the seed prefix picks a batch that the
#: compiler accepts under every mode (about 1 program in 500 still trips
#: speclint SPEC002 -- a compiler bug the chaos campaign reports, not a
#: simulator one)
GENERATED = 50


def observable(result) -> tuple:
    return (
        result.counters, result.alat_stats, result.cache_stats,
        result.rse_stats, result.output, result.exit_value,
    )


def assert_loops_agree(output, args, monkeypatch) -> None:
    program, config = output.program, output.options.machine
    fast_sim = Simulator(program, config)
    probed_sim = Simulator(
        program, config, obs=TraceContext(MemorySink()), profile=True,
        host_profiler=HostProfiler(),
    )
    assert fast_sim._probe is None and probed_sim._probe is not None
    fast = fast_sim.run(list(args))
    probed = probed_sim.run(list(args))
    assert observable(fast) == observable(probed)
    profile = probed.profile
    assert profile.attributed_slots == profile.total_slots
    # a new run counts afresh: every loop and function not translated
    # yet is translated on first reach
    with monkeypatch.context() as patch:
        patch.setattr(translate, "THRESHOLD", 1)
        translated = Simulator(program, config).run(list(args))
    assert observable(translated) == observable(probed)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_paper_kernels_agree(name, monkeypatch):
    workload = get_workload(name)
    for options in (BASELINE(), SPECULATIVE()):
        output = compile_source(
            workload.source, options, train_args=list(workload.train_args),
            name=name,
        )
        assert_loops_agree(output, workload.train_args, monkeypatch)


@pytest.mark.parametrize("index", range(GENERATED))
def test_generated_programs_agree(index, monkeypatch):
    program = generate_program(random.Random(f"machine-loops:{index}"), index)
    for options in default_modes():
        output = compile_source(
            program.source, options, train_args=list(program.train_args)
        )
        assert_loops_agree(output, program.ref_args, monkeypatch)
