"""Every variant of the simulator's activation loop against the loops it
replaced.

``repro.machine.cpu`` builds its activation loop from one definition,
specialised to the probe points of what a ``Simulator`` has attached:
the tiering loop with nothing attached, and the probed loop with each
subset of ``step``, ``profile`` and ``host`` -- nine variants.
``tests/reference_sim.py`` keeps the two loops that definition replaced
(``_run_fast`` and ``_run_probed``).  Each case runs one program under
every attachment in ``VARIANTS`` on both, and the tiering loop once more
with every loop and function translated on first reach.  Each pair must
leave the same counters, clock, output, exit value, error type and
message, and ALAT, cache and RSE statistics; with a profile, the same
``InstrProfile`` and site records; with a host profiler, the same
buckets and counts (not their times); with an injector, the same faults
per kind and a balanced three-way ledger; with a trace sink, the same
events.

The cases: the paper kernels at their train arguments under
``BASELINE()`` and ``SPECULATIVE()``, a seeded batch of generated
programs under the chaos campaign's speculative modes, every run of
``tests/test_simulator_isa.py`` (recorded by calling its tests), the
instruction limit at every position of three hand-assembled loops, and
guest recursion deeper than the host stack.
"""

from __future__ import annotations

import inspect
import itertools
import random
from typing import NamedTuple, Optional

import pytest

import tests.test_simulator_isa as isa_tests
from repro.chaos.campaign import _accounting_mismatch, default_modes
from repro.chaos.faults import FaultInjector, FaultPlan
from repro.chaos.generator import generate_program
from repro.errors import MachineError
from repro.machine import translate
from repro.machine.cpu import MachineConfig, Simulator
from repro.obs.sinks import MemorySink
from repro.obs.telemetry import HostProfiler
from repro.obs.trace import TraceContext
from repro.pipeline import CompilerOptions, compile_source
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE
from tests.reference_sim import ReferenceSimulator
from tests.test_errors import DEEP
from tests.test_sim_loops import GENERATED


class Attach(NamedTuple):
    """What one run attaches to the simulator."""

    trace: bool = False
    #: a ``counters.snapshot`` event every this many instructions
    snapshot: int = 0
    plan: Optional[FaultPlan] = None
    profile: bool = False
    host: bool = False


#: an injector that never flushes (no ``step`` point), and one that does
STORM = FaultPlan(
    name="storm", seed=7, alat_entries=4, drop_alloc_rate=0.2,
    spurious_invalidate_rate=0.3,
)
FLUSH = FaultPlan(
    name="flush", seed=11, partial_bits=3, drop_alloc_rate=0.1,
    flush_rate=0.01,
)

#: the attachments each case runs, named by the probe points they
#: select (``tier`` is the loop with nothing attached)
VARIANTS = {
    "tier": Attach(),
    "trace": Attach(trace=True),
    "storm": Attach(trace=True, plan=STORM),
    "step": Attach(trace=True, plan=FLUSH),
    "profile": Attach(profile=True),
    "host": Attach(host=True),
    "step profile": Attach(trace=True, snapshot=97, profile=True),
    "step host": Attach(trace=True, plan=FLUSH, host=True),
    "profile host": Attach(profile=True, host=True),
    "step profile host": Attach(
        trace=True, snapshot=97, plan=FLUSH, profile=True, host=True
    ),
}

#: the points each attachment selects, besides ``probe``
POINTS = {
    "tier": None, "trace": set(), "storm": set(), "step": {"step"},
    "profile": {"profile"}, "host": {"host"},
    "step profile": {"step", "profile"}, "step host": {"step", "host"},
    "profile host": {"profile", "host"},
    "step profile host": {"step", "profile", "host"},
}


def outcome(cls, program, config, args, attach: Attach) -> dict:
    """Everything one run leaves behind, on ``cls``."""
    sink = MemorySink() if attach.trace else None
    obs = TraceContext(sink, snapshot_every=attach.snapshot) if sink else None
    injector = FaultInjector(attach.plan) if attach.plan else None
    host = HostProfiler() if attach.host else None
    sim = cls(
        program, config, obs=obs, profile=attach.profile, injector=injector,
        host_profiler=host,
    )
    try:
        result = sim.run(list(args))
        exit_value, error = result.exit_value, None
    except MachineError as exc:
        exit_value, error = None, (type(exc), str(exc))
    state = {
        "counters": sim.counters, "time": sim.time, "output": sim.output,
        "exit": exit_value, "error": error, "alat": sim.alat.stats,
        "cache": sim.cache.stats, "rse": sim.rse.stats,
    }
    profile = sim.profile
    if profile is not None:
        state["instrs"] = [
            tuple(getattr(rec, slot) for slot in rec.__slots__)
            for rec in profile.instrs
        ]
        state["sites"] = {
            key: site.as_dict() for key, site in profile.sites.items()
        }
        state["slots"] = (profile.total_slots, profile.attributed_slots)
    if host is not None:
        state["host"] = host.counts
    if injector is not None:
        state["faults"] = injector.stats.counts
        state["ledger"] = _accounting_mismatch(injector, sim.alat.stats, sink)
    if sink is not None:
        state["events"] = [
            {k: v for k, v in event.items() if k not in ("wall_ms", "start_ms")}
            for event in sink.events
        ]
    return state


def assert_variants_agree(program, config, args, monkeypatch) -> None:
    for name, attach in VARIANTS.items():
        expected = outcome(ReferenceSimulator, program, config, args, attach)
        assert outcome(Simulator, program, config, args, attach) == expected, name
        if "ledger" in expected:
            assert expected["ledger"] is None, name
    with monkeypatch.context() as patch:
        patch.setattr(translate, "THRESHOLD", 1)
        attach = VARIANTS["tier"]
        expected = outcome(ReferenceSimulator, program, config, args, attach)
        assert outcome(Simulator, program, config, args, attach) == expected


def test_each_attachment_selects_its_variant():
    program = isa_tests.make_program([isa_tests.MovI(0, 1), isa_tests.RetF(0)])
    seen = set()
    for name, attach in VARIANTS.items():
        sim = Simulator(
            program, obs=TraceContext(MemorySink(), attach.snapshot)
            if attach.trace else None,
            profile=attach.profile,
            injector=FaultInjector(attach.plan) if attach.plan else None,
            host_profiler=HostProfiler() if attach.host else None,
        )
        if POINTS[name] is None:
            assert sim._probe is None
            seen.add(None)
        else:
            assert sim._probe.points == {"probe", *POINTS[name]}, name
            seen.add(sim._probe.points)
        assert sim._activate.__self__ is sim
    assert len(seen) == 9  # the tiering loop and eight probed ones


@pytest.mark.parametrize("name", BENCHMARKS)
def test_paper_kernels(name, monkeypatch):
    workload = get_workload(name)
    for options in (BASELINE(), SPECULATIVE()):
        output = compile_source(
            workload.source, options, train_args=list(workload.train_args),
            name=name,
        )
        assert_variants_agree(
            output.program, output.options.machine, workload.train_args,
            monkeypatch,
        )


@pytest.mark.parametrize("index", range(GENERATED))
def test_generated_programs(index, monkeypatch):
    program = generate_program(random.Random(f"machine-loops:{index}"), index)
    for options in default_modes():
        output = compile_source(
            program.source, options, train_args=list(program.train_args)
        )
        assert_variants_agree(
            output.program, output.options.machine, program.ref_args,
            monkeypatch,
        )


def _parameters(test) -> list[dict]:
    """The keyword arguments of each case of a parametrized test."""
    axes = []
    for mark in getattr(test, "pytestmark", ()):
        if mark.name == "parametrize":
            names, values = mark.args[:2]
            if isinstance(names, str):
                names = [name.strip() for name in names.split(",")]
            axes.append([
                dict(zip(names, v if len(names) > 1 else (v,)))
                for v in values
            ])
    return [
        {k: v for case in combo for k, v in case.items()}
        for combo in itertools.product(*axes)
    ]


def isa_runs() -> list:
    """Every ``(program, config, args)`` that ``tests/test_simulator_isa.py``
    runs, recorded by calling each case of its tests once (the ``loop``
    fixture at ``"fast"``) with a simulator that keeps what it runs."""
    seen = []

    class Recording(Simulator):
        def run(self, args=None):
            seen.append((self.program, self.config, tuple(args or ())))
            return super().run(args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isa_tests, "Simulator", Recording)
        for name, test in vars(isa_tests).items():
            if not name.startswith("test_") or not callable(test):
                continue
            wanted = inspect.signature(test).parameters
            for kwargs in _parameters(test):
                with pytest.MonkeyPatch.context() as inner:
                    given = {"monkeypatch": inner, "loop": "fast", **kwargs}
                    test(**{k: v for k, v in given.items() if k in wanted})
    return seen


def test_hand_assembled_programs(monkeypatch):
    runs = isa_runs()
    assert len(runs) > 100
    for program, config, args in runs:
        assert_variants_agree(program, config, args, monkeypatch)


#: loops whose every instruction the limit is set at: a call in a loop
#: (translated as a loop or as a whole function) and chk.a recovery
LIMITED = {
    "call": lambda: isa_tests.loop_with_call(0),
    "padded call": lambda: isa_tests.loop_with_call(120),
    "recovery": lambda: isa_tests.counted_loop(
        [
            isa_tests.Ld(3, 5, isa_tests.LoadKind.ADVANCED),
            isa_tests.St(5, 0),
            isa_tests.ChkA(3, ".rec"),
            isa_tests.Label(".back"),
            isa_tests.Br(".next"),
            isa_tests.Label(".rec"),
            isa_tests.Ld(3, 5),
            isa_tests.Br(".back"),
            isa_tests.Label(".next"),
        ],
        data={0x1000: 9},
    ),
}


@pytest.mark.parametrize("name", sorted(LIMITED))
def test_the_instruction_limit_at_every_position(name, monkeypatch):
    program = LIMITED[name]()
    total = Simulator(program).run([]).counters.instructions
    for limit in range(1, total + 1):
        config = MachineConfig(max_instructions=limit)
        assert_variants_agree(program, config, (), monkeypatch)


def test_guest_recursion_deeper_than_the_host_stack(monkeypatch):
    program = compile_source(DEEP, CompilerOptions()).program
    for depth in (100, 2000):
        assert_variants_agree(program, None, (depth,), monkeypatch)
    for attach in VARIANTS.values():
        state = outcome(Simulator, program, None, (2000,), attach)
        assert state["error"] == (
            MachineError, "call to down overflowed the host stack"
        )
