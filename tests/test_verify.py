"""Every check of the IR verifier, one planted defect each.

``repro.ir.verify`` has one failure site per check.  Each test below
compiles a small well-formed program, plants exactly one defect in its
IR and asserts the verifier's exact message, so a faster verifier must
keep every check, its wording and the statement it names.
"""

from __future__ import annotations

import pytest

from repro.errors import VerificationError
from repro.ir.cfg import BasicBlock
from repro.ir.expr import AddrOf, ConstFloat, ConstInt, Load, VarRead
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    EvalStmt,
    InvalidateCheck,
    Jump,
    Return,
    SpecFlag,
    Store,
)
from repro.ir.symbols import StorageClass, Variable
from repro.ir.types import INT, PointerType
from repro.ir.verify import verify_function, verify_module
from repro.minic.lower import compile_to_ir

SOURCE = """
int g;
int f(int a) { return a + 1; }
int main(int n) {
  int *p = alloc(int, 4);
  *p = n;
  g = f(*p);
  if (g < 3) { print(g); }
  return g;
}
"""


@pytest.fixture
def module():
    module = compile_to_ir(SOURCE)
    verify_module(module)  # well formed before the defect is planted
    return module


def fails_with(module, message: str) -> None:
    with pytest.raises(VerificationError) as exc:
        verify_module(module)
    assert str(exc.value) == message


def first(fn, kind):
    return next(s for s in fn.iter_stmts() if isinstance(s, kind))


def a_temp(fn):
    return next(v for v in fn.all_variables() if v.is_temp and v.type == INT)


def ghost(type=INT, storage=StorageClass.LOCAL) -> Variable:
    """A variable no function and no module owns."""
    return Variable("ghost", type, storage)


def plant(fn, stmt) -> None:
    """Insert ``stmt`` at the start of ``fn``'s entry block."""
    fn.entry.insert(0, stmt)


# -- the module and block shape -------------------------------------------


def test_module_without_main(module):
    del module.functions["main"]
    fails_with(module, "module has no main function")


def test_function_without_blocks(module):
    module.main.blocks = []
    fails_with(module, "main: function has no blocks")


def test_empty_block(module):
    block = module.main.blocks[1]
    block.stmts = []
    fails_with(module, f"main: block {block.label} is empty")


def test_terminator_before_the_end(module):
    entry = module.main.entry
    ret = Return(ConstInt(0))
    ret.block = entry
    entry.stmts.insert(0, ret)
    fails_with(module, f"main: block {entry.label}: terminator position violated at {ret}")


def test_block_without_terminator(module):
    entry = module.main.entry
    last = entry.stmts.pop()
    entry.stmts.append(EvalStmt(ConstInt(0)))
    entry.stmts[-1].block = entry
    assert last.is_terminator
    fails_with(
        module,
        f"main: block {entry.label}: terminator position violated at {entry.stmts[-1]}",
    )


def test_stale_block_pointer(module):
    entry = module.main.entry
    stmt = entry.stmts[0]
    stmt.block = None
    fails_with(module, f"main: block {entry.label}: statement {stmt} has stale block pointer")


def test_branch_to_foreign_block(module):
    fn = module.main
    block = next(b for b in fn.blocks if isinstance(b.terminator, Jump))
    foreign = BasicBlock("elsewhere")
    foreign.append(Return(ConstInt(0)))
    block.terminator.target = foreign
    fails_with(module, f"main: block {block.label} branches to foreign block elsewhere")


def test_conditional_branch_with_identical_targets(module):
    fn = module.main
    block = next(b for b in fn.blocks if isinstance(b.terminator, CondBranch))
    block.terminator.else_block = block.terminator.then_block
    fn.compute_preds()
    fails_with(module, f"main: block {block.label}: conditional branch with identical targets")


def test_stale_predecessor_list(module):
    fn = module.main
    block = fn.blocks[1]
    block.preds = []
    fails_with(module, f"main: stale predecessor list on {block.label} (run compute_preds)")


# -- expressions ------------------------------------------------------------


def test_unknown_variable_read(module):
    stmt = EvalStmt(VarRead(ghost()))
    plant(module.main, stmt)
    fails_with(module, f"main: unknown variable ghost in {stmt}")


def test_unknown_variable_address(module):
    stmt = EvalStmt(AddrOf(ghost()))
    plant(module.main, stmt)
    fails_with(module, f"main: unknown variable ghost in {stmt}")


def test_load_through_non_pointer(module):
    load = Load(AddrOf(module.main.params[0]), INT)
    load.addr = ConstInt(8)
    stmt = EvalStmt(load)
    plant(module.main, stmt)
    fails_with(module, f"main: load through non-pointer in {stmt}")


# -- statements -------------------------------------------------------------


def test_unknown_assign_target(module):
    stmt = Assign(ghost(), ConstInt(1))
    plant(module.main, stmt)
    fails_with(module, f"main: unknown assign target ghost in {stmt}")


def test_assign_type_mismatch(module):
    stmt = Assign(a_temp(module.main), ConstFloat(1.5))
    plant(module.main, stmt)
    fails_with(module, f"main: type mismatch in {stmt}: int = float")


def test_check_flag_on_non_temporary(module):
    n = module.main.params[0]
    stmt = Assign(n, ConstInt(1), spec_flag=SpecFlag.LD_C)
    plant(module.main, stmt)
    fails_with(module, f"main: check flag on non-temporary in {stmt}")


def test_recovery_without_branching_check(module):
    stmt = Assign(a_temp(module.main), ConstInt(1))
    stmt.recovery = []
    plant(module.main, stmt)
    fails_with(module, f"main: recovery code without chk.a flag in {stmt}")


def test_store_through_non_pointer(module):
    stmt = first(module.main, Store)
    stmt.addr = ConstInt(8)
    fails_with(module, f"main: store through non-pointer in {stmt}")


def test_call_to_unknown_function(module):
    stmt = Call(None, "nowhere", [])
    plant(module.main, stmt)
    fails_with(module, f"main: call to unknown function nowhere in {stmt}")


def test_call_with_wrong_argument_count(module):
    stmt = Call(None, "f", [ConstInt(1), ConstInt(2)])
    plant(module.main, stmt)
    fails_with(module, f"main: call to f passes 2 argument(s), expected 1 in {stmt}")


def test_call_argument_type_mismatch(module):
    stmt = Call(None, "f", [ConstFloat(1.5)])
    plant(module.main, stmt)
    fails_with(
        module,
        f"main: argument type mismatch in {stmt}: parameter a is int, got float",
    )


def test_call_result_type_mismatch(module):
    fn = module.main
    result = fn.new_temp(PointerType(INT))
    stmt = Call(result, "f", [ConstInt(1)])
    plant(fn, stmt)
    fails_with(module, f"main: call result type mismatch in {stmt}: int* = int")


def test_unknown_alloc_target(module):
    stmt = Alloc(ghost(PointerType(INT)), INT, ConstInt(1))
    plant(module.main, stmt)
    fails_with(module, f"main: unknown alloc target in {stmt}")


def test_alloc_count_not_integer(module):
    stmt = first(module.main, Alloc)
    stmt.count = ConstFloat(2.0)
    fails_with(module, f"main: alloc count must be integer in {stmt}")


def test_branch_condition_type(module):
    stmt = first(module.main, CondBranch)
    stmt.cond = ConstFloat(1.0)
    fails_with(module, f"main: branch condition has type float in {stmt}")


def test_return_type_mismatch(module):
    stmt = first(module.main, Return)
    stmt.expr = ConstFloat(1.0)
    fails_with(module, f"main: return type mismatch in {stmt}")


def test_invalidate_of_unknown_temp(module):
    stmt = InvalidateCheck(ghost(storage=StorageClass.TEMP))
    plant(module.main, stmt)
    fails_with(module, f"main: unknown temp in {stmt}")


def test_conditional_reload_of_unknown_variable(module):
    home = AddrOf(module.main.params[0])
    stmt = ConditionalReload(ghost(storage=StorageClass.TEMP), home, AddrOf(module.main.params[0]))
    plant(module.main, stmt)
    fails_with(module, f"main: unknown variable in {stmt}")


def test_conditional_reload_through_non_pointer(module):
    fn = module.main
    home = AddrOf(fn.params[0])
    stmt = ConditionalReload(a_temp(fn), home, ConstInt(8))
    plant(fn, stmt)
    fails_with(module, f"main: non-pointer address in {stmt}")


# -- the call sites ---------------------------------------------------------


def test_verify_function_without_module_skips_call_checks(module):
    """Without a module, a function's calls are not resolved and the
    module's globals are not known variables."""
    fn = module.main
    plant(fn, Call(None, "nowhere", []))
    write_g = next(
        s for s in fn.iter_stmts() if isinstance(s, Assign) and s.target.name == "g"
    )
    with pytest.raises(VerificationError) as exc:
        verify_function(fn)
    assert str(exc.value) == f"main: unknown assign target g in {write_g}"
    f = module.functions["f"]
    verify_function(f)
    plant(f, Call(None, "nowhere", []))
    verify_function(f)


def test_the_first_defect_in_layout_order_is_reported(module):
    """Shape checks of a block come before its statements' checks, and
    blocks are checked in layout order."""
    fn = module.main
    bad_assign = Assign(a_temp(fn), ConstFloat(1.5))
    plant(fn, bad_assign)
    fn.entry.stmts[-1].block = None  # a shape defect later in the block
    with pytest.raises(VerificationError, match="stale block pointer"):
        verify_module(module)
    fn.entry.stmts[-1].block = fn.entry
    fn.blocks[1].stmts[0].block = None  # a shape defect in a later block
    with pytest.raises(VerificationError, match="type mismatch"):
        verify_module(module)
