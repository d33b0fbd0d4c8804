"""AST → IR lowering.

Lowering realises the C-to-WHIRL conventions the paper's algorithm
expects:

* scalar variable reads become :class:`VarRead` (direct loads);
* every pointer/array/struct access becomes an explicit address
  computation feeding a :class:`Load` or :class:`Store` (indirect);
* pointer arithmetic is scaled to **word** units (the machine is
  word-addressed; see :mod:`repro.ir.interp`);
* ``&&``/``||`` lower to short-circuit control flow;
* functions with a non-void return type get an implicit ``return 0``
  on paths that fall off the end.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

from repro.errors import SemanticError
from repro.ir.builder import FunctionBuilder
from repro.ir.cfg import BasicBlock
from repro.ir.loc import Loc
from repro.ir.expr import (
    AddrOf,
    BinOp,
    BinOpKind,
    ConstFloat,
    ConstInt,
    Expr,
    Load,
    UnOp,
    UnOpKind,
    VarRead,
)
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.stmt import Alloc, Assign, Call, Print, Return, Store
from repro.ir.symbols import Variable
from repro.ir.types import (
    FLOAT,
    INT,
    ArrayType,
    BoolType,
    FloatType,
    PointerType,
    StructType,
    Type,
    WORD_SIZE,
)
from repro.ir.verify import verify_module
from repro.minic import ast as A
from repro.minic.parser import parse_program
from repro.minic.sema import ProgramInfo, analyze

_BINOP_MAP = {
    "+": BinOpKind.ADD,
    "-": BinOpKind.SUB,
    "*": BinOpKind.MUL,
    "/": BinOpKind.DIV,
    "%": BinOpKind.MOD,
    "==": BinOpKind.EQ,
    "!=": BinOpKind.NE,
    "<": BinOpKind.LT,
    "<=": BinOpKind.LE,
    ">": BinOpKind.GT,
    ">=": BinOpKind.GE,
}


def _decayed_addr(var: Variable) -> Expr:
    """&array rewritten to a pointer to its first element."""
    var.is_address_taken = True
    addr = AddrOf(var)
    assert isinstance(var.type, ArrayType)
    addr.type = PointerType(var.type.element)
    return addr


def _scale_index(index: Expr, elem: Type) -> Expr:
    words = max(1, elem.size_words())
    if words == 1:
        return index
    return BinOp(BinOpKind.MUL, index, ConstInt(words))


class _FunctionLowerer:
    def __init__(self, module: Module, info: ProgramInfo, fndef: A.FuncDef) -> None:
        self.module = module
        self.info = info
        self.fndef = fndef
        sig = info.func_sigs[fndef.name]
        params = [p.symbol for p in fndef.params]
        self.fn = Function(fndef.name, params, sig.return_type)
        module.add_function(self.fn)
        self.b = FunctionBuilder(self.fn, module)
        self.file = module.name
        # (break_target, continue_target) stack
        self.loop_stack: list[tuple[BasicBlock, BasicBlock]] = []

    def run(self) -> Function:
        for stmt in self.fndef.body:
            self._stmt(stmt)
        if not self.b.current.is_terminated:
            if isinstance(self.fn.return_type, FloatType):
                self.b.ret(ConstFloat(0.0))
            elif self.fn.return_type.size() == 0:
                self.b.ret()
            else:
                self.b.ret(ConstInt(0))
        # Terminate any dangling blocks created by lowering (e.g. code
        # after a return): they are unreachable; give them returns so the
        # verifier is satisfied, then drop them.
        for block in self.fn.blocks:
            if not block.is_terminated:
                block.append(Return(ConstInt(0)) if self.fn.return_type.size() else Return())
        self.fn.compute_preds()
        self.fn.remove_unreachable_blocks()
        return self.fn

    # -- statements -----------------------------------------------------

    def _stmts(self, body: list[A.StmtNode]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: A.StmtNode) -> None:
        # Every IR statement emitted while lowering this source statement
        # (including address computations and implicit control flow) is
        # attributed to its source position.
        self.b.cur_loc = Loc(self.file, stmt.pos.line, stmt.pos.column)
        if isinstance(stmt, A.DeclStmt):
            var = stmt.symbol
            assert isinstance(var, Variable)
            self.fn.add_local(var)
            if stmt.init is not None:
                value = self._coerce(self._expr(stmt.init), var.type)
                self.b.emit(Assign(var, value))
        elif isinstance(stmt, A.AssignStmt):
            self._assign(stmt)
        elif isinstance(stmt, A.ExprStmt):
            # Only calls reach here (sema guarantees); a void call needs
            # no result temporary.
            assert isinstance(stmt.expr, A.CallExpr)
            self._call(stmt.expr, want_result=False)
        elif isinstance(stmt, A.IfStmt):
            self._if(stmt)
        elif isinstance(stmt, A.WhileStmt):
            self._while(stmt)
        elif isinstance(stmt, A.ForStmt):
            self._for(stmt)
        elif isinstance(stmt, A.ReturnStmt):
            if stmt.value is None:
                self.b.ret()
            else:
                value = self._coerce(self._expr(stmt.value), self.fn.return_type)
                self.b.ret(value)
            self.b.set_block(self.b.block("dead"))
        elif isinstance(stmt, A.BreakStmt):
            self.b.jump(self.loop_stack[-1][0])
            self.b.set_block(self.b.block("dead"))
        elif isinstance(stmt, A.ContinueStmt):
            self.b.jump(self.loop_stack[-1][1])
            self.b.set_block(self.b.block("dead"))
        elif isinstance(stmt, A.PrintStmt):
            self.b.emit(Print(self._expr(stmt.value)))
        elif isinstance(stmt, A.BlockStmt):
            self._stmts(stmt.body)
        else:
            raise SemanticError(f"cannot lower statement {stmt!r}")

    def _assign(self, stmt: A.AssignStmt) -> None:
        target = self._lvalue(stmt.lvalue)
        if isinstance(target, Variable):
            value = self._coerce(self._expr(stmt.value), target.type)
            self.b.emit(Assign(target, value))
        else:
            addr, value_type = target
            value = self._coerce(self._expr(stmt.value), value_type)
            self.b.emit(Store(addr, value))

    def _if(self, stmt: A.IfStmt) -> None:
        then_bb = self.b.block("then")
        join_bb = self.b.block("join")
        else_bb = self.b.block("else") if stmt.else_body else join_bb
        self._condition(stmt.cond, then_bb, else_bb)
        self.b.set_block(then_bb)
        self._stmts(stmt.then_body)
        if not self.b.current.is_terminated:
            self.b.jump(join_bb)
        if stmt.else_body:
            self.b.set_block(else_bb)
            self._stmts(stmt.else_body)
            if not self.b.current.is_terminated:
                self.b.jump(join_bb)
        self.b.set_block(join_bb)

    def _while(self, stmt: A.WhileStmt) -> None:
        head = self.b.block("loop_head")
        body = self.b.block("loop_body")
        exit_bb = self.b.block("loop_exit")
        self.b.jump(head)
        self.b.set_block(head)
        self._condition(stmt.cond, body, exit_bb)
        self.b.set_block(body)
        self.loop_stack.append((exit_bb, head))
        self._stmts(stmt.body)
        self.loop_stack.pop()
        if not self.b.current.is_terminated:
            self.b.jump(head)
        self.b.set_block(exit_bb)

    def _for(self, stmt: A.ForStmt) -> None:
        if stmt.init is not None:
            self._stmt(stmt.init)
        head = self.b.block("for_head")
        body = self.b.block("for_body")
        step = self.b.block("for_step")
        exit_bb = self.b.block("for_exit")
        self.b.jump(head)
        self.b.set_block(head)
        if stmt.cond is not None:
            self._condition(stmt.cond, body, exit_bb)
        else:
            self.b.jump(body)
        self.b.set_block(body)
        self.loop_stack.append((exit_bb, step))
        self._stmts(stmt.body)
        self.loop_stack.pop()
        if not self.b.current.is_terminated:
            self.b.jump(step)
        self.b.set_block(step)
        if stmt.step is not None:
            self._stmt(stmt.step)
        if not self.b.current.is_terminated:
            self.b.jump(head)
        self.b.set_block(exit_bb)

    # -- conditions (short-circuit) ----------------------------------------

    def _condition(self, cond: A.ExprNode, true_bb: BasicBlock, false_bb: BasicBlock) -> None:
        """Lower a boolean context with short-circuit evaluation."""
        if isinstance(cond, A.Binary) and cond.op == "&&":
            mid = self.b.block("and_rhs")
            self._condition(cond.left, mid, false_bb)
            self.b.set_block(mid)
            self._condition(cond.right, true_bb, false_bb)
            return
        if isinstance(cond, A.Binary) and cond.op == "||":
            mid = self.b.block("or_rhs")
            self._condition(cond.left, true_bb, mid)
            self.b.set_block(mid)
            self._condition(cond.right, true_bb, false_bb)
            return
        if isinstance(cond, A.Unary) and cond.op == "!":
            self._condition(cond.operand, false_bb, true_bb)
            return
        value = self._expr(cond)
        if not isinstance(value.type, BoolType):
            zero: Expr = ConstFloat(0.0) if value.type.is_float else ConstInt(0)
            value = BinOp(BinOpKind.NE, value, zero)
        self.b.branch(value, true_bb, false_bb)

    # -- lvalues ---------------------------------------------------------

    def _lvalue(self, node: A.ExprNode) -> Union[Variable, tuple[Expr, Type]]:
        """Lower an assignment target: a scalar Variable or a
        ``(address, value_type)`` pair for memory stores."""
        if isinstance(node, A.Ident):
            var = node.symbol
            assert isinstance(var, Variable)
            return var
        if isinstance(node, A.Unary) and node.op == "*":
            ptr = self._expr(node.operand)
            assert isinstance(ptr.type, PointerType)
            return ptr, ptr.type.pointee
        if isinstance(node, A.Index):
            addr, elem = self._index_addr(node)
            return addr, elem
        if isinstance(node, A.Member):
            addr, ftype = self._member_addr(node)
            return addr, ftype
        raise SemanticError("invalid assignment target", node.pos.line, node.pos.column)

    def _lvalue_address(self, node: A.ExprNode) -> Expr:
        """Address of an lvalue (used for ``.`` bases and ``&``)."""
        if isinstance(node, A.Ident):
            var = node.symbol
            assert isinstance(var, Variable)
            var.is_address_taken = True
            if isinstance(var.type, ArrayType):
                return _decayed_addr(var)
            return AddrOf(var)
        if isinstance(node, A.Unary) and node.op == "*":
            return self._expr(node.operand)
        if isinstance(node, A.Index):
            addr, _ = self._index_addr(node)
            return addr
        if isinstance(node, A.Member):
            addr, _ = self._member_addr(node)
            return addr
        raise SemanticError(
            "expression has no address", node.pos.line, node.pos.column
        )

    def _index_addr(self, node: A.Index) -> tuple[Expr, Type]:
        base = self._expr(node.base)
        assert isinstance(base.type, PointerType), f"index base {base.type}"
        elem = base.type.pointee
        index = self._expr(node.index)
        addr = BinOp(BinOpKind.ADD, base, _scale_index(index, elem))
        if isinstance(elem, ArrayType):
            # Multi-dimensional: result decays to element pointer.
            addr.type = PointerType(elem.element)
            return addr, elem.element
        addr.type = PointerType(elem)
        return addr, elem

    def _member_addr(self, node: A.Member) -> tuple[Expr, Type]:
        if node.arrow:
            base = self._expr(node.base)
        else:
            base = self._lvalue_address(node.base)
        st: StructType = node.struct  # type: ignore[attr-defined]
        fld = node.field  # type: ignore[attr-defined]
        offset_words = fld.offset // WORD_SIZE
        if offset_words == 0:
            addr = base
            if not isinstance(addr.type, PointerType) or addr.type.pointee != fld.type:
                addr = BinOp(BinOpKind.ADD, base, ConstInt(0))
        else:
            addr = BinOp(BinOpKind.ADD, base, ConstInt(offset_words))
        if isinstance(fld.type, ArrayType):
            # Array field decays: the address is already the first
            # element's address; report the aggregate type so value
            # contexts return the address instead of loading.
            addr.type = PointerType(fld.type.element)
            return addr, fld.type
        addr.type = PointerType(fld.type)
        return addr, fld.type

    # -- expressions --------------------------------------------------------

    def _expr(self, node: A.ExprNode) -> Expr:
        if isinstance(node, A.IntLit):
            return ConstInt(node.value)
        if isinstance(node, A.FloatLit):
            return ConstFloat(node.value)
        if isinstance(node, A.Ident):
            var = node.symbol
            assert isinstance(var, Variable)
            if isinstance(var.type, ArrayType):
                return _decayed_addr(var)
            if isinstance(var.type, StructType):
                raise SemanticError(
                    f"struct {var.name} is not a value", node.pos.line, node.pos.column
                )
            return VarRead(var)
        if isinstance(node, A.Unary):
            return self._unary(node)
        if isinstance(node, A.Cast):
            value = self._expr(node.operand)
            if node.target == "int":
                if value.type.is_float:
                    return UnOp(UnOpKind.F2I, value)
                return value
            if value.type.is_float:
                return value
            return UnOp(UnOpKind.I2F, value)
        if isinstance(node, A.Binary):
            return self._binary(node)
        if isinstance(node, A.Index):
            addr, elem = self._index_addr(node)
            if elem.is_aggregate:
                return addr  # decayed sub-array/struct address
            if isinstance(elem, StructType):
                return addr
            return Load(addr, elem)
        if isinstance(node, A.Member):
            addr, ftype = self._member_addr(node)
            if ftype.is_aggregate:
                return addr
            return Load(addr, ftype)
        if isinstance(node, A.CallExpr):
            result = self._call(node, want_result=True)
            assert result is not None
            return VarRead(result)
        if isinstance(node, A.AllocExpr):
            elem_type = node.type.pointee  # annotated by sema
            count = self._expr(node.count)
            temp = self.b.temp(PointerType(elem_type), "heap")
            self.b.emit(Alloc(temp, elem_type, count))
            return VarRead(temp)
        raise SemanticError(f"cannot lower expression {node!r}")

    def _unary(self, node: A.Unary) -> Expr:
        if node.op == "&":
            return self._lvalue_address(node.operand)
        if node.op == "*":
            ptr = self._expr(node.operand)
            assert isinstance(ptr.type, PointerType)
            pointee = ptr.type.pointee
            if pointee.is_aggregate or isinstance(pointee, StructType):
                return ptr  # address used as aggregate base
            return Load(ptr, pointee)
        operand = self._expr(node.operand)
        if node.op == "-":
            return UnOp(UnOpKind.NEG, operand)
        if node.op == "!":
            if not isinstance(operand.type, BoolType):
                zero: Expr = ConstFloat(0.0) if operand.type.is_float else ConstInt(0)
                return BinOp(BinOpKind.EQ, operand, zero)
            return UnOp(UnOpKind.NOT, operand)
        raise SemanticError(f"unknown unary op {node.op}")

    def _binary(self, node: A.Binary) -> Expr:
        op = node.op
        if op in ("&&", "||"):
            return self._short_circuit_value(node)
        left = self._expr(node.left)
        right = self._expr(node.right)
        kind = _BINOP_MAP[op]
        # pointer arithmetic: scale the integer side by the element size
        if isinstance(left.type, PointerType) and not right.type.is_pointer and op in ("+", "-"):
            scaled = _scale_index(right, left.type.pointee)
            result = BinOp(kind, left, scaled)
            return result
        if isinstance(right.type, PointerType) and not left.type.is_pointer and op == "+":
            scaled = _scale_index(left, right.type.pointee)
            result = BinOp(kind, right, scaled)
            return result
        if isinstance(left.type, PointerType) and isinstance(right.type, PointerType):
            if op == "-":
                diff = BinOp(BinOpKind.SUB, left, right)
                words = max(1, left.type.pointee.size_words())
                if words == 1:
                    return diff
                return BinOp(BinOpKind.DIV, diff, ConstInt(words))
            return BinOp(kind, left, right)  # pointer comparison
        # numeric: unify operand types
        if left.type.is_float or right.type.is_float:
            left = self._coerce(left, FLOAT)
            right = self._coerce(right, FLOAT)
        return BinOp(kind, left, right)

    def _short_circuit_value(self, node: A.Binary) -> Expr:
        """``a && b`` in value context: control flow into a temp."""
        result = self.b.temp(INT, "sc")
        true_bb = self.b.block("sc_true")
        false_bb = self.b.block("sc_false")
        join = self.b.block("sc_join")
        self._condition(node, true_bb, false_bb)
        self.b.set_block(true_bb)
        self.b.emit(Assign(result, ConstInt(1)))
        self.b.jump(join)
        self.b.set_block(false_bb)
        self.b.emit(Assign(result, ConstInt(0)))
        self.b.jump(join)
        self.b.set_block(join)
        return VarRead(result)

    def _call(self, node: A.CallExpr, want_result: bool) -> Optional[Variable]:
        sig = self.info.func_sigs[node.callee]
        args = [
            self._coerce(self._expr(a), pt)
            for a, pt in zip(node.args, sig.param_types)
        ]
        result: Optional[Variable] = None
        if want_result:
            if sig.return_type.size() == 0:
                raise SemanticError(
                    f"void function {node.callee} used as value",
                    node.pos.line,
                    node.pos.column,
                )
            result = self.b.temp(sig.return_type, "call")
        self.b.emit(Call(result, node.callee, args))
        return result

    @staticmethod
    def _coerce(expr: Expr, target: Type) -> Expr:
        if isinstance(target, FloatType) and not expr.type.is_float:
            return UnOp(UnOpKind.I2F, expr)
        if (
            isinstance(target, PointerType)
            and isinstance(expr, ConstInt)
            and expr.value == 0
        ):
            return ConstInt(0, target)  # null pointer literal
        return expr


def lower_program(info: ProgramInfo) -> Module:
    """Lower an analyzed program to IR."""
    assert info.program is not None
    for fndef in info.program.functions:
        _FunctionLowerer(info.module, info, fndef).run()
    verify_module(info.module)
    return info.module


#: The ASTs of the last few distinct sources.  A source is usually
#: compiled several times in a row (the oracle, then each mode; the
#: fallback ladder), and each repeat reuses the first parse.  Sharing
#: the AST is safe because only sema writes to its nodes, and it writes
#: every annotation lowering reads (``type``, ``symbol``, ``struct``,
#: ``field``) before lowering reads it.  Two compiles of one source
#: must therefore not interleave on threads; nothing in the package
#: compiles on threads.  A parse error is not cached.
_parse_memo = functools.lru_cache(maxsize=4)(parse_program)


def compile_to_ir(source: str, name: str = "module") -> Module:
    """Front-end convenience: MiniC source text → verified IR module.

    Sema and lowering run on every call, so each call returns a fresh
    module with fresh variables and statements."""
    info = analyze(_parse_memo(source), name)
    return lower_program(info)
