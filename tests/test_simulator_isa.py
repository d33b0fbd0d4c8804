"""Opcode-level simulator tests on hand-assembled machine programs.

These pin down the instruction semantics and the timing model without
any compiler in the loop — the ISA contract the code generator relies
on."""

import pytest

from repro.errors import MachineError, MachineLimitExceeded
from repro.ir.expr import BinOpKind, UnOpKind
from repro.machine.cpu import MachineConfig, Simulator
from repro.obs.sinks import MemorySink
from repro.obs.trace import TraceContext
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


def make_program(instrs, nregs=16, frame_words=4, data=None):
    program = MProgram("hand")
    mf = MFunction("main", 0)
    for instr in instrs:
        mf.emit(instr)
    mf.nregs = nregs
    mf.frame_words = frame_words
    program.add(mf)
    if data:
        program.data.update(data)
    return program


def run(instrs, **kw):
    config = kw.pop("config", None)
    sim = Simulator(make_program(instrs, **kw), config)
    return sim, sim.run([])


def test_mov_and_ret():
    _sim, res = run([MovI(0, 42), RetF(0)])
    assert res.exit_value == 42


def test_alu_semantics():
    _sim, res = run(
        [
            MovI(0, 10),
            MovI(1, 3),
            Alu(BinOpKind.MOD, 2, 0, ("r", 1)),
            Alu(BinOpKind.MUL, 3, 2, 7),
            RetF(3),
        ]
    )
    assert res.exit_value == 7


def test_unop_semantics():
    _sim, res = run([MovI(0, -5), Un(UnOpKind.NEG, 1, 0), RetF(1)])
    assert res.exit_value == 5


def test_store_load_roundtrip():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x2000),
            MovI(1, 99),
            St(0, 1),
            Ld(2, 0),
            RetF(2),
        ]
    )
    assert res.exit_value == 99
    assert res.counters.retired_loads == 1
    assert res.counters.retired_stores == 1


def test_frame_addressing_zeroed():
    _sim, res = run([Lea(0, Region.FRAME, 2), Ld(1, 0), RetF(1)])
    assert res.exit_value == 0


def test_data_image():
    _sim, res = run(
        [Lea(0, Region.GLOBAL, 0x1000), Ld(1, 0), RetF(1)],
        data={0x1000: 123},
    )
    assert res.exit_value == 123


def test_ld_a_arms_alat_and_ld_c_succeeds():
    sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            Ld(1, 0, LoadKind.ADVANCED),
            LdC(1, 0),
            RetF(1),
        ],
        data={0x1000: 7},
    )
    assert res.exit_value == 7
    assert res.counters.check_instructions == 1
    assert res.counters.check_failures == 0
    assert res.counters.retired_loads == 1  # the successful ld.c is free


def test_store_collision_makes_ld_c_reload():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            Ld(1, 0, LoadKind.ADVANCED),   # r1 = 7, entry armed
            MovI(2, 55),
            St(0, 2),                      # collides
            LdC(1, 0),                     # must reload 55
            RetF(1),
        ],
        data={0x1000: 7},
    )
    assert res.exit_value == 55
    assert res.counters.check_failures == 1
    assert res.counters.retired_loads == 2


def test_ld_c_nc_reallocates_after_miss():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            LdC(1, 0, clear=False),   # cold miss: reload + re-arm
            LdC(1, 0, clear=False),   # now hits
            RetF(1),
        ],
        data={0x1000: 9},
    )
    assert res.exit_value == 9
    assert res.counters.check_failures == 1
    assert res.counters.check_instructions == 2


def test_ld_c_clear_removes_entry():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            Ld(1, 0, LoadKind.ADVANCED),
            LdC(1, 0, clear=True),     # hit, entry cleared
            LdC(1, 0, clear=True),     # miss now
            RetF(1),
        ],
        data={0x1000: 4},
    )
    assert res.counters.check_failures == 1


def test_invala_e_forces_miss():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            Ld(1, 0, LoadKind.ADVANCED),
            InvalaE(1),
            LdC(1, 0),
            RetF(1),
        ],
        data={0x1000: 3},
    )
    assert res.counters.check_failures == 1


def test_chk_a_success_skips_recovery():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            Ld(1, 0, LoadKind.ADVANCED),
            ChkA(1, ".rec"),
            Label(".res"),
            RetF(1),
            Label(".rec"),
            MovI(1, -1),
            Br(".res"),
        ],
        data={0x1000: 11},
    )
    assert res.exit_value == 11
    assert res.counters.recovery_cycles == 0


def test_chk_a_failure_runs_recovery_and_pays():
    config = MachineConfig(recovery_penalty=40)
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            Ld(1, 0, LoadKind.ADVANCED),
            MovI(2, 5),
            St(0, 2),                  # collide
            ChkA(1, ".rec"),
            Label(".res"),
            RetF(1),
            Label(".rec"),
            Ld(1, 0),
            Br(".res"),
        ],
        data={0x1000: 11},
        config=config,
    )
    assert res.exit_value == 5
    assert res.counters.check_failures == 1
    assert res.counters.recovery_cycles == 40


def test_ld_sa_defers_faults():
    _sim, res = run(
        [
            MovI(0, 0),                          # null address
            Ld(1, 0, LoadKind.SPEC_ADVANCED),    # must not fault
            RetF(1),
        ]
    )
    assert res.exit_value == 0


def test_normal_load_faults_on_null():
    with pytest.raises(MachineError):
        run([MovI(0, 0), Ld(1, 0), RetF(1)])


def test_pred_ld_fires_only_when_predicate_set():
    _sim, res = run(
        [
            Lea(0, Region.GLOBAL, 0x1000),
            MovI(1, 0),                 # predicate false
            MovI(3, 77),
            PredLd(3, 1, 0),            # must keep 77
            MovI(1, 1),                 # predicate true
            PredLd(3, 1, 0),            # loads 12
            RetF(3),
        ],
        data={0x1000: 12},
    )
    assert res.exit_value == 12
    assert res.counters.retired_loads == 1


def test_branches_and_labels():
    _sim, res = run(
        [
            MovI(0, 1),
            Brnz(0, ".take"),
            MovI(1, 111),
            RetF(1),
            Label(".take"),
            MovI(1, 222),
            RetF(1),
        ]
    )
    assert res.exit_value == 222
    assert res.counters.branches == 1


def test_alloc_heap_disjoint_and_zeroed():
    _sim, res = run(
        [
            MovI(0, 4),
            AllocH(1, 0),
            AllocH(2, 0),
            Alu(BinOpKind.NE, 3, 1, ("r", 2)),
            Ld(4, 1),                  # zeroed
            Alu(BinOpKind.ADD, 5, 3, ("r", 4)),
            RetF(5),
        ]
    )
    assert res.exit_value == 1  # pointers differ, contents zero


def test_call_and_register_windows():
    program = MProgram("call")
    callee = MFunction("double_it", 1)
    callee.emit(Alu(BinOpKind.ADD, 1, 0, ("r", 0)))
    callee.emit(RetF(1))
    callee.nregs = 2
    main = MFunction("main", 0)
    main.emit(MovI(5, 21))
    main.emit(CallF("double_it", [5], 6))
    main.emit(RetF(6))
    main.nregs = 8
    program.add(callee)
    program.add(main)
    res = Simulator(program).run([])
    assert res.exit_value == 42
    assert res.counters.calls == 1


def test_print_output_formatting():
    sim, res = run([MovI(0, 3), PrintR(0), MovI(1, 2.5), PrintR(1), RetF(0)])
    assert res.output == ["3", "2.5"]


def test_timing_load_latency_visible():
    """A dependent use of a cold load stalls; an independent chain
    doesn't — the scoreboard must show the difference."""
    dependent = [
        Lea(0, Region.GLOBAL, 0x4000),
        Ld(1, 0),
        Alu(BinOpKind.ADD, 2, 1, 1),   # depends on the load
        RetF(2),
    ]
    independent = [
        Lea(0, Region.GLOBAL, 0x4000),
        Ld(1, 0),
        Alu(BinOpKind.ADD, 2, 0, 1),   # depends only on the Lea
        RetF(2),
    ]
    _s1, r1 = run(dependent)
    _s2, r2 = run(independent)
    assert r1.counters.cpu_cycles > r2.counters.cpu_cycles


def test_issue_width_scales_cycles():
    instrs = [MovI(i, i) for i in range(12)] + [RetF(0)]
    wide = Simulator(make_program(instrs), MachineConfig(issue_width=4)).run([])
    narrow = Simulator(make_program(instrs), MachineConfig(issue_width=1)).run([])
    assert narrow.counters.cpu_cycles > wide.counters.cpu_cycles


# -- decoded form: edge cases, on both loops -----------------------------

LOOPS = pytest.mark.parametrize("probed", [False, True], ids=["fast", "probed"])


def simulate(program, args=(), probed=False):
    """Run on the hook-free loop, or on the probed one (a memory trace
    sink is enough to select it)."""
    obs = TraceContext(MemorySink()) if probed else None
    sim = Simulator(program, obs=obs)
    return sim, sim.run(list(args))


@LOOPS
def test_unknown_label_faults_only_when_taken(probed):
    def prog(taken):
        return make_program(
            [MovI(0, taken), Brnz(0, ".nowhere"), MovI(1, 3), RetF(1)]
        )

    assert simulate(prog(0), probed=probed)[1].exit_value == 3
    with pytest.raises(MachineError, match="unknown label '.nowhere'"):
        simulate(prog(1), probed=probed)
    with pytest.raises(MachineError, match="unknown label '.gone'"):
        simulate(make_program([Br(".gone"), RetF(0)]), probed=probed)


@LOOPS
def test_trailing_label_falls_off_the_end(probed):
    with pytest.raises(MachineError, match="fell off the end"):
        simulate(make_program([MovI(0, 1), Label(".end")]), probed=probed)
    with pytest.raises(MachineError, match="fell off the end"):
        simulate(
            make_program([Br(".end"), RetF(0), Label(".end")]), probed=probed
        )


@LOOPS
def test_registers_above_overwritten_nregs(probed):
    program = make_program(
        [MovI(10, 7), Mov(11, 10), Alu(BinOpKind.ADD, 12, 11, 1), RetF(12)],
        nregs=2,
    )
    assert simulate(program, probed=probed)[1].exit_value == 8


@LOOPS
def test_main_takes_more_args_than_registers(probed):
    program = make_program([RetF(0)], nregs=1)
    assert simulate(program, [5, 6, 7], probed=probed)[1].exit_value == 5


@LOOPS
def test_emit_after_run_redecodes(probed):
    program = make_program([MovI(0, 1), Br(".more")])
    mf = program.function("main")
    with pytest.raises(MachineError, match="unknown label"):
        simulate(program, probed=probed)
    stale = mf.decoded()
    mf.emit(Label(".more"))
    mf.emit(MovI(0, 2))
    mf.emit(RetF(0))
    assert mf.decoded() is not stale
    assert simulate(program, probed=probed)[1].exit_value == 2


def test_instruction_limit_fires_at_the_same_count_on_both_loops():
    program = make_program([Label(".top"), MovI(0, 1), Br(".top")])
    counts = []
    for probed in (False, True):
        obs = TraceContext(MemorySink()) if probed else None
        sim = Simulator(program, MachineConfig(max_instructions=25), obs=obs)
        with pytest.raises(MachineLimitExceeded, match="exceeded 25"):
            sim.run([])
        counts.append((sim.counters.instructions, sim.counters.branches))
    assert counts[0] == counts[1] == (26, 12)


def test_probed_observer_events_carry_the_live_instruction_count():
    program = make_program(
        [
            Lea(0, Region.GLOBAL, 0x1000),    # 1
            Ld(1, 0, LoadKind.ADVANCED),      # 2: cache.miss, alat.allocate
            MovI(2, 5),                       # 3
            St(0, 2),                         # 4: alat.collision
            LdC(1, 0),                        # 5: alat.check (miss)
            RetF(1),                          # 6
        ]
    )
    sink = MemorySink()
    Simulator(program, obs=TraceContext(sink)).run([])
    seen = [
        (e["event"], e["instr"]) for e in sink.events
        if e["event"].startswith(("alat.", "cache."))
    ]
    assert seen == [
        ("cache.miss", 2),
        ("alat.allocate", 2),
        ("alat.collision", 4),
        ("alat.check", 5),
    ]
