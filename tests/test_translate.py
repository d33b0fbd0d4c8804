"""The translated tier: its threshold and its exactness.

``translate.THRESHOLD`` is set so that the short generated programs of
the service and chaos corpora never reach it (translating costs about
58 us per instruction, far more than their whole simulation), while
every paper kernel's hot loop or function does.  If a generator change
pushes short programs over the threshold, these tests fail before the
service starts paying for translations.

Random hand-assembled loops, translated on first reach, must leave
exactly what the probed loop leaves: counters, clock, output, error,
and ALAT, cache and RSE statistics.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.generator import generate_program
from repro.ir.expr import BinOpKind, UnOpKind
from repro.machine import translate
from repro.machine.cpu import MachineConfig, Simulator
from repro.obs.sinks import MemorySink
from repro.obs.trace import TraceContext
from repro.pipeline import compile_source
from repro.target.isa import (
    AllocH,
    Alu,
    Br,
    Brnz,
    CallF,
    ChkA,
    InvalaE,
    Label,
    Ld,
    LdC,
    Lea,
    LoadKind,
    MFunction,
    Mov,
    MovI,
    MProgram,
    PredLd,
    PrintR,
    Region,
    RetF,
    St,
    Un,
)
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import SPECULATIVE
from tests.conftest import translated_regions

PROGRAMS = 100


def simulate(source: str, train_args, args):
    output = compile_source(source, SPECULATIVE(), train_args=list(train_args))
    Simulator(output.program, output.options.machine).run(list(args))
    return output.program


@pytest.mark.parametrize("corpus", ["svc:0:{}", "0:{}"], ids=["service", "chaos"])
def test_generated_programs_never_translate(corpus):
    assert translate.THRESHOLD == 256
    for index in range(PROGRAMS):
        seed = corpus.format(index)
        program = generate_program(random.Random(seed), index)
        machine = simulate(program.source, program.train_args, program.ref_args)
        assert translated_regions(machine) == 0, seed


@pytest.mark.parametrize("name", BENCHMARKS)
def test_every_paper_kernel_translates(name):
    workload = get_workload(name)
    machine = simulate(workload.source, workload.train_args, workload.ref_args)
    assert translated_regions(machine) >= 1


# -- random machine programs: translated against probed ------------------

REGS = range(1, 7)
#: r7 holds the data segment's base; addresses are r7 + (x mod 8)
DATA = {0x1000 + i: v for i, v in enumerate([3, -2, 0, 7, 2.5, 1, -9, 4])}
OPS = [BinOpKind.ADD, BinOpKind.SUB, BinOpKind.MUL, BinOpKind.LT,
       BinOpKind.EQ, BinOpKind.GE]
VALUES = st.one_of(st.integers(-4, 9), st.sampled_from([0.5, -1.5, 2.0]))
SRC2 = st.one_of(VALUES, st.builds(lambda r: ("r", r), st.sampled_from(REGS)))


def _address(rs):
    """Instructions that leave a valid data address in r6."""
    return [Alu(BinOpKind.MOD, 6, rs, 8), Alu(BinOpKind.ADD, 6, 6, ("r", 7))]


@st.composite
def _piece(draw, index: int):
    reg, other = draw(st.sampled_from(REGS)), draw(st.sampled_from(REGS))
    kind = draw(st.integers(0, 15))
    if kind <= 3:
        return [Alu(draw(st.sampled_from(OPS)), reg, other, draw(SRC2))], []
    if kind == 4:
        op = draw(st.sampled_from([BinOpKind.DIV, BinOpKind.MOD]))
        return [Alu(op, reg, other, draw(SRC2))], []
    if kind == 5:
        load = draw(st.sampled_from(list(LoadKind)))
        return _address(other) + [Ld(reg, 6, load)], []
    if kind == 6:
        return _address(other) + [St(6, reg)], []
    if kind == 7:
        return _address(other) + [
            LdC(reg, 6, clear=draw(st.booleans()), is_float=draw(st.booleans()))
        ], []
    if kind == 8:
        rec, back = f".rec{index}", f".back{index}"
        recovery = [Label(rec), Ld(reg, 6), Br(back)]
        return _address(other) + [ChkA(reg, rec, draw(st.booleans())),
                                  Label(back)], recovery
    if kind == 9:
        skip = f".skip{index}"
        return [Brnz(other, skip), Alu(BinOpKind.ADD, reg, reg, 1),
                Label(skip)], []
    if kind == 10:
        return [CallF("helper", [other], reg)], []
    if kind == 11:
        return [Un(draw(st.sampled_from(list(UnOpKind))), reg, other)], []
    if kind == 12:
        return _address(other) + [PredLd(reg, draw(st.sampled_from(REGS)), 6)], []
    if kind == 13:
        return [InvalaE(reg), PrintR(other)], []
    if kind == 14:
        return [Ld(reg, other)], []  # an address that may be bad
    return [Mov(reg, other), AllocH(other, reg)], []


@st.composite
def machine_programs(draw):
    body: list = []
    recovery: list = []
    for index in range(draw(st.integers(1, 8))):
        piece, tail = draw(_piece(index))
        body += piece
        recovery += tail
    start = [MovI(r, draw(VALUES)) for r in REGS]
    instrs = (
        start + [Lea(7, Region.GLOBAL, 0x1000), MovI(0, draw(st.integers(1, 6))),
                 Label(".top")]
        + body
        + [Alu(BinOpKind.SUB, 0, 0, 1), Brnz(0, ".top"), PrintR(1), RetF(2)]
        + recovery
    )
    config = MachineConfig(
        issue_width=draw(st.integers(1, 4)),
        branch_penalty=draw(st.integers(0, 2)),
        recovery_penalty=draw(st.integers(0, 40)),
        max_instructions=draw(st.sampled_from([12, 30, 60, 10_000])),
    )
    # 1 translates on first reach; 2 and 3 tier up mid-activation
    return instrs, config, draw(st.integers(1, 3))


def _build(instrs) -> MProgram:
    program = MProgram("random")
    helper = MFunction("helper", 1)
    helper.emit(Alu(BinOpKind.MUL, 1, 0, 3))
    helper.emit(RetF(1))
    main = MFunction("main", 0)
    for instr in instrs:
        main.emit(instr)
    main.frame_words = 2
    program.add(helper)
    program.add(main)
    program.data.update(DATA)
    return program


def _outcome(program, config, probed: bool):
    obs = TraceContext(MemorySink()) if probed else None
    sim = Simulator(program, config, obs=obs)
    try:
        result = sim.run([])
        ending = (result.exit_value,)
    except Exception as exc:  # every error must match, not only ours
        ending = (type(exc), str(exc))
    return (sim.counters, sim.time, sim.output, ending, sim.alat.stats,
            sim.cache.stats, sim.rse.stats)


@settings(max_examples=300, deadline=None)
@given(machine_programs())
def test_random_programs_translated_match_probed(case):
    instrs, config, threshold = case
    probed = _outcome(_build(instrs), config, probed=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translate, "THRESHOLD", threshold)
        translated = _outcome(_build(instrs), config, probed=False)
    assert translated == probed
