"""The decoded interpreter against the tree walker it replaced.

``tests/reference_interp.py`` keeps the tree-walking interpreter.  Each
case runs one module under both and requires the same output, exit
value, statistics (``vars(stats)``), error type and message, final
memory, and memory-access events — the tracer calls the alias profile
is built from, together with the profile itself.

The cases: the paper kernels at their train arguments (unoptimised, and
compiled -O3 baseline and speculative, untraced and traced), the step
budget around each kernel's exact step count, a seeded batch of
generated programs under the chaos campaign's speculative modes, and one
program per runtime error path.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.campaign import default_modes
from repro.chaos.generator import generate_program
from repro.errors import InterpError, InterpLimitExceeded, IRError, SpecLintError
from repro.ir import interp
from repro.ir.builder import ModuleBuilder
from repro.ir.expr import BinOpKind, ConstInt, Load, VarRead
from repro.ir.stmt import Assign, SpecFlag
from repro.ir.types import FLOAT, INT, PointerType
from repro.minic import compile_to_ir
from repro.pipeline import compile_source
from repro.speculation.profile import _ProfilingTracer
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE
from tests.reference_interp import Interpreter as TreeWalker

#: generated programs compared
GENERATED = 100

#: step budget of a generated program's run (a run that needs more ends
#: in the same InterpLimitExceeded on both sides)
GENERATED_FUEL = 200_000


class Recorder:
    """A tracer that keeps every event and builds the alias profile."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.profiler = _ProfilingTracer()

    def on_indirect_load(self, load, stmt, addr, owner) -> None:
        self.events.append(("load", load.eid, stmt.sid, addr, owner))
        self.profiler.on_indirect_load(load, stmt, addr, owner)

    def on_indirect_store(self, stmt, addr, owner) -> None:
        self.events.append(("store", stmt.sid, addr, owner))
        self.profiler.on_indirect_store(stmt, addr, owner)


def observe(cls, module, args, traced: bool, max_steps: int) -> dict:
    tracer = Recorder() if traced else None
    machine = cls(module, tracer=tracer, max_steps=max_steps)
    try:
        outcome: tuple = ("exit", machine.run(list(args)).exit_value)
    except Exception as exc:  # every error must match, whatever its type
        outcome = (type(exc), str(exc))
    return {
        "outcome": outcome,
        "output": list(machine.output),
        "stats": vars(machine.stats),
        "mem": dict(machine.mem),
        "events": tracer.events if tracer else None,
        "profile": tracer.profiler.profile if tracer else None,
    }


def assert_same(module, args=(), traced=False, max_steps=50_000_000) -> dict:
    decoded = observe(interp.Interpreter, module, args, traced, max_steps)
    reference = observe(TreeWalker, module, args, traced, max_steps)
    assert decoded == reference
    return decoded


def assert_same_traced(module, args=(), max_steps=50_000_000) -> dict:
    assert_same(module, args, traced=False, max_steps=max_steps)
    return assert_same(module, args, traced=True, max_steps=max_steps)


# -- paper kernels -------------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARKS)
def test_paper_kernels_agree(name):
    workload = get_workload(name)
    args = list(workload.train_args)
    modules = [compile_to_ir(workload.source)] + [
        compile_source(workload.source, options, train_args=args, name=name).module
        for options in (BASELINE(), SPECULATIVE())
    ]
    for module in modules:
        seen = assert_same_traced(module, args)
        assert seen["outcome"][0] == "exit"
        assert seen["events"]


@pytest.mark.parametrize("name", BENCHMARKS)
def test_step_budget_trips_at_the_same_statement(name):
    workload = get_workload(name)
    module = compile_to_ir(workload.source)
    args = list(workload.train_args)
    steps = assert_same(module, args)["stats"]["steps"]
    for fuel in (1, 2, 17, steps - 1):
        seen = assert_same(module, args, max_steps=fuel)
        assert seen["outcome"] == (
            InterpLimitExceeded, f"interpreter exceeded {fuel} steps"
        )
        assert seen["stats"]["steps"] == fuel + 1
    assert assert_same(module, args, max_steps=steps)["outcome"][0] == "exit"


# -- generated programs -----------------------------------------------------


@pytest.mark.parametrize("index", range(GENERATED))
def test_generated_programs_agree(index):
    program = generate_program(random.Random(f"interp-reference:{index}"), index)
    args = program.ref_args
    assert_same_traced(compile_to_ir(program.source), args, GENERATED_FUEL)
    for options in default_modes():
        try:
            output = compile_source(
                program.source, options, train_args=list(program.train_args)
            )
        except SpecLintError:
            continue  # a compiler bug the chaos campaign reports
        assert_same_traced(output.module, args, GENERATED_FUEL)


# -- runtime error paths ---------------------------------------------------


def build(body, params=()):
    """A module whose ``main`` prints 7, then runs ``body(mb, fb)``."""
    mb = ModuleBuilder("errors")
    fb = mb.function("main", list(params), INT)
    counter = mb.global_var("counter", INT, 3)
    fb.print_(7)
    fb.assign(counter, fb.add(fb.read(counter), 1))
    body(mb, fb)
    return mb.module


def null_load(mb, fb):
    p = fb.temp(PointerType(INT), "p")
    fb.ret(fb.load(p))


def float_address(mb, fb):
    g = mb.global_var("g", INT)
    fb.store(fb.addr(g), 2.5)
    fb.ret(fb.load(fb.load(fb.addr(g), PointerType(INT)), INT))


def int_division_by_zero(mb, fb):
    z = fb.local("z", INT)
    fb.ret(fb.binop(BinOpKind.DIV, 5, fb.read(z)))


def constant_division_by_zero(mb, fb):
    fb.ret(fb.binop(BinOpKind.DIV, 5, 0))


def float_division_by_zero(mb, fb):
    z = fb.local("z", FLOAT)
    fb.print_(fb.binop(BinOpKind.DIV, 1.5, fb.read(z)))
    fb.ret(0)


def modulo_on_floats(mb, fb):
    x = fb.local("x", FLOAT)
    fb.assign(x, 4)  # coerced to 4.0 (zero-initialised memory holds int 0)
    fb.print_(fb.binop(BinOpKind.MOD, fb.read(x), 2))
    fb.ret(0)


def constant_modulo_on_floats(mb, fb):
    fb.print_(fb.binop(BinOpKind.MOD, 1.5, 2.5))
    fb.ret(0)


def negative_allocation(mb, fb):
    p = fb.temp(PointerType(INT), "p")
    fb.alloc(p, INT, fb.sub(0, fb.read(fb.fn.params[0])))
    fb.ret(0)


def void_call_as_value(mb, fb):
    callee = mb.function("nothing", [], INT)
    callee.ret()
    fb.call("nothing", [], result=fb.temp(INT, "t"))
    fb.ret(0)


def store_to_negative_address(mb, fb):
    p = fb.temp(PointerType(INT), "p")
    fb.assign(p, -5)
    fb.store(p, 1)
    fb.ret(0)


def unknown_callee(mb, fb):
    fb.call("missing", [fb.read(fb.fn.params[0])])
    fb.ret(0)


def wrong_arity(mb, fb):
    callee = mb.function("one", [("a", INT)], INT)
    callee.ret(callee.read(callee.fn.params[0]))
    fb.call("one", [])
    fb.ret(0)


def falls_off_block(mb, fb):
    fb.eval(fb.add(fb.read(fb.fn.params[0]), 1))


ERROR_PATHS = [
    (null_load, InterpError, "null dereference in return *(p"),
    (float_address, InterpError, "float used as address in return"),
    (int_division_by_zero, InterpError, "integer division by zero"),
    (constant_division_by_zero, InterpError, "integer division by zero"),
    (float_division_by_zero, InterpError, "float division by zero"),
    (modulo_on_floats, InterpError, "modulo on float operands"),
    (constant_modulo_on_floats, InterpError, "modulo on float operands"),
    (negative_allocation, InterpError, "negative allocation count in"),
    (void_call_as_value, InterpError, "void call used as value"),
    (store_to_negative_address, InterpError, "store to invalid address -5"),
    (unknown_callee, IRError, "unknown function missing"),
    (wrong_arity, InterpError, "one expects 1 args, got 0"),
    (falls_off_block, InterpError, "fell off end of block entry"),
]


@pytest.mark.parametrize(
    "body,error,message", ERROR_PATHS, ids=[b.__name__ for b, _, _ in ERROR_PATHS]
)
def test_error_paths_agree(body, error, message):
    module = build(body, params=[("n", INT)])
    seen = assert_same_traced(module, [3])
    kind, text = seen["outcome"]
    assert kind is error and text.startswith(message), seen["outcome"]
    assert seen["output"] == ["7"]


# -- speculation annotations ----------------------------------------------


def speculative_loads(mb, fb):
    """Faulting ld.sa / ld.c / ld.c.nc loads yield the dummy 0 (0.0 for
    a float target) and execution goes on."""
    null = fb.temp(PointerType(INT), "null")
    for flag in (SpecFlag.LD_SA, SpecFlag.LD_C, SpecFlag.LD_C_NC):
        t = fb.temp(INT, "t")
        fb.emit(Assign(t, Load(VarRead(null), INT), spec_flag=flag))
        fb.print_(t)
    f = fb.temp(FLOAT, "f")
    fb.emit(Assign(f, Load(VarRead(null), FLOAT), spec_flag=SpecFlag.LD_SA))
    fb.print_(f)
    fb.ret(0)


def recovery(address):
    """A chk.a whose recovery loads through ``address(fb)``: its loads
    report the chk.a as their statement."""

    def body(mb, fb):
        g = mb.global_var("cell", INT, 41)
        t = fb.temp(INT, "t")
        fb.assign(t, ConstInt(1))
        reload = Assign(t, Load(address(fb, g), INT))
        fb.emit(Assign(t, VarRead(t), spec_flag=SpecFlag.CHK_A, recovery=[reload]))
        fb.print_(t)
        fb.ret(t)

    return body


def test_speculative_loads_yield_the_dummy_zero():
    seen = assert_same_traced(build(speculative_loads, params=[("n", INT)]), [3])
    assert seen["outcome"] == ("exit", 0)
    assert seen["output"] == ["7", "0", "0", "0", "0"]


def test_recovery_loads_report_their_check():
    module = build(recovery(lambda fb, g: fb.addr(g)), params=[("n", INT)])
    seen = assert_same_traced(module, [3])
    check = module.function("main").blocks[0].stmts[-3]
    assert check.spec_flag is SpecFlag.CHK_A
    assert [e[2] for e in seen["events"] if e[0] == "load"] == [check.sid]
    assert seen["outcome"] == ("exit", 41)

    faulting = build(
        recovery(lambda fb, g: VarRead(fb.temp(PointerType(INT), "p"))),
        params=[("n", INT)],
    )
    kind, text = assert_same_traced(faulting, [3])["outcome"]
    assert kind is InterpError and text.startswith("null dereference in t")
