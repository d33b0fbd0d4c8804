"""Opcode-level simulator tests on hand-assembled machine programs.

These pin down the instruction semantics and the timing model without
any compiler in the loop — the ISA contract the code generator relies
on."""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan
from repro.errors import MachineError, MachineLimitExceeded
from repro.ir.expr import BinOpKind, UnOpKind
from repro.machine import translate
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
from tests.conftest import translated_regions


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


# -- decoded form: edge cases, on every tier ---------------------------

TIERS = ("fast", "probed", "translated")


@pytest.fixture(params=TIERS)
def loop(request, monkeypatch):
    """The interpreter ("fast"), the probed loop, or the interpreter with
    every loop and function translated on first reach."""
    if request.param == "translated":
        monkeypatch.setattr(translate, "THRESHOLD", 1)
    return request.param


def simulate(program, args=(), loop="fast", config=None):
    """Run on the given tier (a memory trace sink selects the probed
    loop)."""
    obs = TraceContext(MemorySink()) if loop == "probed" else None
    sim = Simulator(program, config, obs=obs)
    return sim, sim.run(list(args))


def test_unknown_label_faults_only_when_taken(loop):
    def prog(taken):
        return make_program(
            [MovI(0, taken), Brnz(0, ".nowhere"), MovI(1, 3), RetF(1)]
        )

    assert simulate(prog(0), loop=loop)[1].exit_value == 3
    with pytest.raises(MachineError, match="unknown label '.nowhere'"):
        simulate(prog(1), loop=loop)
    with pytest.raises(MachineError, match="unknown label '.gone'"):
        simulate(make_program([Br(".gone"), RetF(0)]), loop=loop)


def test_trailing_label_falls_off_the_end(loop):
    with pytest.raises(MachineError, match="fell off the end"):
        simulate(make_program([MovI(0, 1), Label(".end")]), loop=loop)
    with pytest.raises(MachineError, match="fell off the end"):
        simulate(
            make_program([Br(".end"), RetF(0), Label(".end")]), loop=loop
        )


def test_registers_above_overwritten_nregs(loop):
    program = make_program(
        [MovI(10, 7), Mov(11, 10), Alu(BinOpKind.ADD, 12, 11, 1), RetF(12)],
        nregs=2,
    )
    assert simulate(program, loop=loop)[1].exit_value == 8


def test_main_takes_more_args_than_registers(loop):
    program = make_program([RetF(0)], nregs=1)
    assert simulate(program, [5, 6, 7], loop=loop)[1].exit_value == 5


def test_emit_after_run_redecodes(loop):
    program = make_program([MovI(0, 1), Br(".more")])
    mf = program.function("main")
    with pytest.raises(MachineError, match="unknown label"):
        simulate(program, loop=loop)
    stale = mf.decoded()
    mf.emit(Label(".more"))
    mf.emit(MovI(0, 2))
    mf.emit(RetF(0))
    assert mf.decoded() is not stale
    assert simulate(program, loop=loop)[1].exit_value == 2


def test_instruction_limit_fires_at_the_same_count_on_both_loops(monkeypatch):
    """On every tier: the interpreter, the probed loop and a translated
    region (which hands the last block back to the interpreter)."""
    program = make_program([Label(".top"), MovI(0, 1), Br(".top")])
    seen = []
    for loop in TIERS:
        if loop == "translated":
            monkeypatch.setattr(translate, "THRESHOLD", 1)
        config = MachineConfig(max_instructions=25)
        obs = TraceContext(MemorySink()) if loop == "probed" else None
        sim = Simulator(program, config, obs=obs)
        with pytest.raises(MachineLimitExceeded, match="exceeded 25"):
            sim.run([])
        seen.append((sim.counters.instructions, sim.counters.branches, sim.time))
    assert translated_regions(program) == 1
    assert seen[0][:2] == (26, 12)
    assert seen[0] == seen[1] == seen[2]


# -- the translated tier against the probed loop -------------------------


def outcome(program, loop, args=(), config=None):
    """Everything a run leaves behind, or its error, on one tier."""
    obs = TraceContext(MemorySink()) if loop == "probed" else None
    sim = Simulator(program, config, obs=obs)
    try:
        result = sim.run(list(args))
        error = None
    except MachineError as exc:
        result, error = None, (type(exc), str(exc))
    state = (sim.counters, sim.time, sim.output, error,
             result and result.exit_value,
             sim.alat.stats, sim.cache.stats, sim.rse.stats)
    return state


def assert_translated_matches_probed(monkeypatch, build, args=(), config=None):
    probed = outcome(build(), "probed", args, config)
    monkeypatch.setattr(translate, "THRESHOLD", 1)
    program = build()
    translated = outcome(program, "fast", args, config)
    monkeypatch.undo()
    assert translated_regions(program) >= 1
    assert translated == probed
    return probed


def loop_with_call(padding: int = 0) -> MProgram:
    """``for i in 5..1: s += twice(i); print(s)`` -- main is padded past
    the whole-function size when ``padding`` is large, so only its loop
    is translated."""
    program = MProgram("calls")
    twice = MFunction("twice", 1)
    twice.emit(Alu(BinOpKind.ADD, 1, 0, ("r", 0)))
    twice.emit(RetF(1))
    main = MFunction("main", 0)
    for instr in [MovI(9, 0)] * padding + [
        MovI(0, 5),
        MovI(1, 0),
        Label(".top"),
        CallF("twice", [0], 2),
        Alu(BinOpKind.ADD, 1, 1, ("r", 2)),
        PrintR(1),
        Alu(BinOpKind.SUB, 0, 0, 1),
        Brnz(0, ".top"),
        RetF(1),
    ]:
        main.emit(instr)
    program.add(twice)
    program.add(main)
    return program


@pytest.mark.parametrize("padding", [0, 120])
def test_limit_mid_block_in_a_translated_loop_with_a_call(monkeypatch, padding):
    full = outcome(loop_with_call(padding), "probed")
    total = full[0].instructions
    assert full[3] is None and total > 30
    for limit in range(total - 30, total):
        config = MachineConfig(max_instructions=limit)
        state = assert_translated_matches_probed(
            monkeypatch, lambda: loop_with_call(padding), config=config
        )
        assert state[3][0] is MachineLimitExceeded


def counted_loop(body, padding: int = 0, data=None) -> MProgram:
    """``r0`` counts 4..0; ``body`` runs with it each iteration."""
    return make_program(
        [MovI(9, 0)] * padding
        + [MovI(0, 4), Lea(5, Region.GLOBAL, 0x1000), Label(".top")]
        + body
        + [Alu(BinOpKind.SUB, 0, 0, 1), Brnz(0, ".top"), RetF(3)],
        data=data,
    )


FAULTING = {
    # r0 * 16 reaches address 0 on the last iteration
    "bad_address": [Alu(BinOpKind.MUL, 1, 0, 16), Alu(BinOpKind.SUB, 1, 1, 16),
                    Ld(3, 1)],
    "division_by_zero": [Alu(BinOpKind.SUB, 1, 0, 1),
                         Alu(BinOpKind.DIV, 3, 5, ("r", 1))],
    "modulo_by_zero": [Alu(BinOpKind.SUB, 1, 0, 1),
                       Alu(BinOpKind.MOD, 3, 5, ("r", 1))],
    "float_address": [Un(UnOpKind.I2F, 1, 5), Alu(BinOpKind.SUB, 2, 0, 1),
                      Brnz(2, ".skip"), St(1, 0), Label(".skip"),
                      MovI(3, 0)],
}


@pytest.mark.parametrize("padding", [0, 120])
@pytest.mark.parametrize("name", sorted(FAULTING))
def test_faults_in_a_translated_region_match_the_probed_loop(
    monkeypatch, name, padding
):
    state = assert_translated_matches_probed(
        monkeypatch, lambda: counted_loop(FAULTING[name], padding)
    )
    assert state[3] is not None  # the run faulted


@pytest.mark.parametrize("padding", [0, 120])
def test_chk_a_recovery_in_a_translated_region_matches_the_probed_loop(
    monkeypatch, padding
):
    # even iterations store to the advanced load's address: chk.a fails
    body = [
        Ld(3, 5, LoadKind.ADVANCED),
        Alu(BinOpKind.MOD, 2, 0, 2),
        Brnz(2, ".keep"),
        St(5, 0),
        Label(".keep"),
        ChkA(3, ".rec"),
        Label(".back"),
        Alu(BinOpKind.ADD, 4, 4, ("r", 3)),
        Br(".next"),
        Label(".rec"),
        Ld(3, 5),
        Br(".back"),
        Label(".next"),
    ]
    state = assert_translated_matches_probed(
        monkeypatch, lambda: counted_loop(body, padding, {0x1000: 9})
    )
    counters = state[0]
    assert state[3] is None
    assert counters.check_failures == 2 and counters.recovery_cycles == 60


def test_a_stall_on_one_register_does_not_delay_another(monkeypatch):
    """r1's fixed latency is known at translation time; a run-time stall
    on r6 (a cold load) in between must not leave r1 looking later."""

    def build():
        return make_program([
            Lea(5, Region.GLOBAL, 0x1000),
            Ld(6, 5),
            MovI(0, 3),
            Label(".top"),
            Alu(BinOpKind.ADD, 1, 0, 1),
            St(5, 6),
            Alu(BinOpKind.ADD, 2, 1, 1),
            Alu(BinOpKind.SUB, 0, 0, 1),
            Brnz(0, ".top"),
            RetF(2),
        ])

    assert_translated_matches_probed(monkeypatch, build)


def test_emit_after_a_translated_run_drops_the_translation(monkeypatch):
    monkeypatch.setattr(translate, "THRESHOLD", 1)
    program = counted_loop([Alu(BinOpKind.ADD, 3, 3, 2)])
    mf = program.function("main")
    assert simulate(program)[1].exit_value == 8
    stale = mf.decoded()
    assert translated_regions(program) == 1
    # a new block the old translation knows nothing about
    mf.instrs[-1:] = []
    mf.emit(Alu(BinOpKind.ADD, 3, 3, 100))
    mf.emit(RetF(3))
    assert mf.decoded() is not stale and not mf.decoded().translations
    assert simulate(program)[1].exit_value == 108
    assert translated_regions(program) == 1


def test_dropped_allocation_leaves_no_stale_entry():
    """ld.a replaces the register's entry, so a dropped allocation must
    also drop the old one: otherwise the old address keeps guarding the
    new value and ld.c fabricates a hit."""

    class DropSecond(FaultInjector):
        def drop_allocation(self):
            self.allocations = getattr(self, "allocations", 0) + 1
            if self.allocations == 2:
                self.stats.note("drop_alloc")
                return True
            return False

    program = make_program(
        [
            Lea(0, Region.GLOBAL, 0x1000),     # X
            Lea(1, Region.GLOBAL, 0x2000),     # Y
            Ld(5, 0, LoadKind.ADVANCED),
            Ld(5, 1, LoadKind.ADVANCED),       # allocation dropped
            MovI(2, 7),
            St(1, 2),
            LdC(5, 1),
            RetF(5),
        ],
        data={0x1000: 1, 0x2000: 2},
    )
    assert Simulator(program).run([]).exit_value == 7
    faulted = Simulator(program, injector=DropSecond(FaultPlan())).run([])
    assert faulted.alat_stats.chaos_dropped_allocations == 1
    assert faulted.exit_value == 7


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
