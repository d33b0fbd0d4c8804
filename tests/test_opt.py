"""Cleanup optimiser: constant folding, copy propagation, DCE."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.expr import BinOp, BinOpKind, ConstFloat, ConstInt, UnOp, UnOpKind, VarRead
from repro.ir.interp import run_module, wrap_int
from repro.ir.stmt import Assign, CondBranch, Jump
from repro.ir.types import FLOAT, INT
from repro.minic import compile_to_ir
from repro.opt import cleanup_module
from repro.opt.constfold import fold_expr
from repro.opt.copyprop import propagate_copies_in_function
from repro.opt.dce import eliminate_dead_code_in_function
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source, run_program

from tests.conftest import assert_all_modes_agree


# -- constant folding --------------------------------------------------------


def test_fold_arithmetic():
    e = BinOp(BinOpKind.ADD, ConstInt(2), BinOp(BinOpKind.MUL, ConstInt(3), ConstInt(4)))
    folded = fold_expr(e)
    assert isinstance(folded, ConstInt) and folded.value == 14


def test_fold_wraps_like_the_interpreter():
    big = 2**63 - 1
    e = BinOp(BinOpKind.ADD, ConstInt(big), ConstInt(1))
    folded = fold_expr(e)
    assert isinstance(folded, ConstInt)
    assert folded.value == wrap_int(big + 1) == -(2**63)


def test_fold_c_division():
    e = BinOp(BinOpKind.DIV, ConstInt(-7), ConstInt(2))
    assert fold_expr(e).value == -3


def test_division_by_zero_not_folded():
    e = BinOp(BinOpKind.DIV, ConstInt(1), ConstInt(0))
    assert isinstance(fold_expr(e), BinOp)  # fault preserved for runtime


def test_fold_comparisons_and_not():
    e = UnOp(UnOpKind.NOT, BinOp(BinOpKind.LT, ConstInt(1), ConstInt(2)))
    assert fold_expr(e).value == 0


def test_identities():
    mb = ModuleBuilder("m")
    fb = mb.function("main", [], INT)
    t = fb.temp(INT)
    x_plus_0 = BinOp(BinOpKind.ADD, VarRead(t), ConstInt(0))
    assert fold_expr(x_plus_0) is x_plus_0.left
    x_times_1 = BinOp(BinOpKind.MUL, VarRead(t), ConstInt(1))
    assert fold_expr(x_times_1) is x_times_1.left


def test_mul_by_zero_keeps_loads():
    """x*0 folds only when x performs no memory access (dead-load
    removal is DCE's job, with liveness; folding must not hide it)."""
    module = compile_to_ir("int g; int main() { return g * 0; }")
    from repro.opt.constfold import fold_constants_in_function

    fold_constants_in_function(module.main)
    from repro.ir.expr import VarRead as VR

    reads = [
        e
        for s in module.main.iter_stmts()
        for e in s.walk_exprs()
        if isinstance(e, VR) and e.var.name == "g"
    ]
    assert reads, "the load of g must survive folding"


def test_float_folding():
    e = BinOp(BinOpKind.MUL, ConstFloat(1.5), ConstFloat(2.0))
    folded = fold_expr(e)
    assert isinstance(folded, ConstFloat) and folded.value == 3.0


# -- copy propagation ---------------------------------------------------------


def test_copyprop_through_temp_chain():
    src = """
    int main(int n) {
        int a = n;
        int b = a;
        int c = b;
        return c + b;
    }
    """
    module = compile_to_ir(src)
    from repro.pre.scalarrepl import promote_module_scalars

    promote_module_scalars(module)
    changed = propagate_copies_in_function(module.main)
    assert changed > 0
    assert run_module(module, [21]).exit_value == 42


def test_copyprop_stops_at_redefinition():
    src = """
    int main(int n) {
        int a = n;
        int b = a;
        a = a + 1;
        return b;       // must still be the OLD a
    }
    """
    module = compile_to_ir(src)
    from repro.pre.scalarrepl import promote_module_scalars

    promote_module_scalars(module)
    propagate_copies_in_function(module.main)
    assert run_module(module, [5]).exit_value == 5


def test_copyprop_never_propagates_memory_reads():
    src = """
    int g;
    int *p;
    int main(int n) {
        p = &g;
        int a = g;     // load
        *p = n;        // may change g
        return a;      // must NOT become a reload of g
    }
    """
    module = compile_to_ir(src)
    propagate_copies_in_function(module.main)
    assert run_module(module, [9]).exit_value == 0  # a captured before store


def test_copyprop_counts_the_statements_whose_text_changed():
    """The count decides when cleanup has converged, and has always
    counted statements that read differently afterwards.  A temp bound
    to a same-named temp is still substituted, but not counted."""
    from repro.ir.stmt import Print, Return
    from repro.ir.symbols import StorageClass, Variable

    mb = ModuleBuilder("m")
    fb = mb.function("main", [("n", INT)], INT)
    first, second = Variable("x", INT, StorageClass.TEMP), Variable("x", INT, StorageClass.TEMP)
    fb.fn.locals += [first, second]
    fb.assign(first, fb.add(fb.fn.params[0], 1))
    fb.assign(second, fb.read(first))
    fb.print_(fb.read(second))
    fb.ret(fb.read(second))
    fb.finish()
    module = mb.finish()
    assert propagate_copies_in_function(module.main) == 0
    uses = [s for s in module.main.iter_stmts() if isinstance(s, (Print, Return))]
    assert [s.expr.var for s in uses] == [first, first]
    assert run_module(module, [4]).exit_value == 5


# -- DCE ----------------------------------------------------------------------


def test_dce_removes_dead_temp_assign():
    mb = ModuleBuilder("m")
    fb = mb.function("main", [], INT)
    dead = fb.temp(INT, "dead")
    fb.emit(Assign(dead, ConstInt(42)))
    fb.ret(ConstInt(0))
    fn = fb.finish()
    removed = eliminate_dead_code_in_function(fn)
    assert removed == 1
    assert all("dead" not in str(s) for s in fn.iter_stmts())


def test_dce_folds_constant_branches():
    src = "int main() { if (1 < 2) { return 5; } return 9; }"
    module = compile_to_ir(src)
    from repro.opt.constfold import fold_constants_in_function

    fold_constants_in_function(module.main)
    eliminate_dead_code_in_function(module.main)
    assert not any(
        isinstance(s, CondBranch) for s in module.main.iter_stmts()
    )
    assert run_module(module, []).exit_value == 5


def test_dce_keeps_speculation_statements():
    src = """
    int a; int b;
    int *p;
    int main(int n) {
        if (n > 100) { p = &a; } else { p = &b; }
        a = 1;
        int s = 0;
        for (int i = 0; i < n; i += 1) { s += a; *p = s; s += a; }
        return s % 100;
    }
    """
    out = compile_source(
        src,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[5],
    )
    from repro.ir.stmt import SpecFlag

    flags = [
        s.spec_flag
        for fn in out.module.iter_functions()
        for s in fn.iter_stmts()
        if isinstance(s, Assign) and s.spec_flag is not SpecFlag.NONE
    ]
    assert flags, "cleanup must not strip the speculation protocol"


def test_dce_never_removes_alloc():
    src = """
    int main() {
        int *dead = alloc(int, 4);
        int *live = alloc(int, 4);
        live[0] = 7;
        return live[0];
    }
    """
    module = compile_to_ir(src)
    cleanup_module(module)
    from repro.ir.stmt import Alloc

    allocs = [s for s in module.main.iter_stmts() if isinstance(s, Alloc)]
    assert len(allocs) == 2


# -- end-to-end ------------------------------------------------------------------


def test_cleanup_reduces_instructions():
    src = """
    int main(int n) {
        int a = 2 + 3;
        int b = a * 1;
        int c = b + 0;
        int unused = n * 99;
        print(c + n);
        return 0;
    }
    """
    on = compile_source(src, CompilerOptions(opt_level=OptLevel.O2, cleanup=True))
    off = compile_source(src, CompilerOptions(opt_level=OptLevel.O2, cleanup=False))
    r_on, r_off = on.run([4]), off.run([4])
    assert r_on.output == r_off.output == ["9"]
    assert r_on.counters.instructions < r_off.counters.instructions


def test_cleanup_preserves_semantics_across_modes():
    src = """
    int g; int h;
    int *p;
    int main(int n) {
        p = &g;
        int s = 1 * n + 0;
        for (int i = 0; i < n % 17; i += 1) {
            *p = s;
            s += g + h * 1;
        }
        print(s);
        return 0;
    }
    """
    assert_all_modes_agree(src, [23], train_args=[6])
