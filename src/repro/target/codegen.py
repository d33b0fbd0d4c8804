"""Lowering from optimised IR to the target ISA.

Conventions (pinned by ``tests/test_codegen.py``):

* **Globals** live in the data segment starting at ``GLOBAL_BASE`` in
  declaration order — the same layout the IR interpreter uses, so
  pointer values printed by either engine agree.
* **Registers 0..n-1** hold the incoming parameters.  Every scalar
  variable whose address is never taken stays register-resident; only
  address-taken scalars and aggregates get a stack-frame slot (an
  address-taken parameter is spilled on entry).
* Each IR variable owns a distinct virtual register for the whole
  function.  That is what makes the ALAT tagging sound: a promoted
  temporary's ``ld.a``/``ld.c``/``chk.a`` all name the same register,
  and the (activation serial, register) tag identifies one entry.
* Scratch registers are allocated per statement above the variable
  registers, so ``nregs`` — the RSE frame size of Figure 11 — grows
  with promotion exactly as the paper discusses.

Speculation annotations (``SpecFlag``) lower to the corresponding ISA
instructions; ``chk.a`` recovery statement lists become out-of-line
recovery blocks appended after the function body, each ending in a
branch back to its resume point.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CodegenError
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
from repro.ir.interp import layout_globals, wrap_int
from repro.ir.module import Module
from repro.ir.stmt import (
    Alloc,
    Assign,
    Call,
    CondBranch,
    ConditionalReload,
    EvalStmt,
    InvalidateCheck,
    Jump,
    Print,
    Return,
    SpecFlag,
    Stmt,
    Store,
)
from repro.ir.symbols import Variable
from repro.ir.types import Type
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


def _frame_unless_scanned(var) -> bool:
    """A variable only the ``&v`` scan can put in the frame: it has a
    memory home but is neither an aggregate nor flagged address-taken."""
    return (
        var.has_memory_home
        and not var.type.is_aggregate
        and not var.is_address_taken
    )


def _collect_frame_vars(fn: Function) -> set[int]:
    """Variable ids that need a memory slot in this function's frame:
    aggregates, variables flagged address-taken, plus a conservative
    scan for ``&v`` occurrences (including chk.a recovery code)."""
    own_ids = {v.id for v in fn.all_variables()}
    frame: set[int] = set()
    for var in fn.all_variables():
        if not var.has_memory_home:
            continue
        if var.type.is_aggregate or var.is_address_taken:
            frame.add(var.id)

    # every expression of every statement and of its chk.a recovery
    # code (which may hold branching checks of its own)
    stack: list[Expr] = []
    stmts = [stmt for block in fn.blocks for stmt in block.stmts]
    while stmts:
        stmt = stmts.pop()
        stack.extend(stmt.exprs())
        if type(stmt) is Assign and stmt.recovery:
            stmts.extend(stmt.recovery)
    pop, push = stack.pop, stack.append
    while stack:
        e = pop()
        kind = type(e)
        if kind is BinOp:
            push(e.left)
            push(e.right)
        elif kind is Load:
            push(e.addr)
        elif kind is UnOp:
            push(e.operand)
        elif kind is AddrOf:
            if e.var.id in own_ids:
                frame.add(e.var.id)
        elif kind is not VarRead and kind is not ConstInt and kind is not ConstFloat:
            stack.extend(e.children())
    return frame


def assign_registers(
    fn: Function, frame_ids: Optional[set[int]] = None
) -> dict[int, int]:
    """Deterministic variable-id → register-number assignment.

    Params take registers 0..n-1 (calling convention), then every
    register-resident local in declaration order; frame-resident
    variables (aggregates / address-taken) get no register.  This is the
    single source of truth shared by the lowering below and by the
    static ALAT pressure model, which must predict the set index
    (``register % sets``) each promoted temporary's entry maps to.
    ``frame_ids`` is ``_collect_frame_vars(fn)`` when the caller has it."""
    if frame_ids is None:
        if any(_frame_unless_scanned(var) for var in fn.locals):
            frame_ids = _collect_frame_vars(fn)
        else:
            # Only a local's frame slot moves a register number, and the
            # scan for ``&v`` can add none here: skip it.
            frame_ids = {var.id for var in fn.locals if var.has_memory_home}
    var_reg: dict[int, int] = {}
    reg = 0
    for p in fn.params:
        var_reg[p.id] = reg
        reg += 1
    for var in fn.locals:
        if var.id in frame_ids:
            continue
        if var.type.is_aggregate:
            # aggregate without a frame slot cannot happen (covered
            # by _collect_frame_vars), but stay defensive
            continue
        var_reg[var.id] = reg
        reg += 1
    return var_reg


class _FunctionCodegen:
    """Lowers one function.  One-pass, statement at a time."""

    def __init__(self, fn: Function, module: Module, global_addrs: dict[int, int]) -> None:
        self.fn = fn
        self.module = module
        self.global_addrs = global_addrs
        self.mf = MFunction(fn.name, len(fn.params))

        frame_ids = _collect_frame_vars(fn)
        self.frame_off: dict[int, int] = {}
        offset = 0
        for var in fn.all_variables():
            if var.id in frame_ids:
                self.frame_off[var.id] = offset
                offset += max(1, var.type.size_words())
        self.mf.frame_words = offset

        # Register assignment: params first (calling convention), then
        # every register-resident variable; scratch space above that.
        self.var_reg = assign_registers(fn, frame_ids)
        reg = (max(self.var_reg.values()) + 1) if self.var_reg else 0
        self._scratch_base = reg
        self._scratch = reg
        #: one past the highest scratch register allocated so far
        self._scratch_top = reg
        self._label_counter = 0
        #: debug location of the IR statement being lowered; sticky, so
        #: glue instructions between located statements stay attributed
        self._cur_loc = None
        #: queued (recovery_label, resume_label, stmts) blocks
        self._recovery: list[tuple[str, str, list[Stmt]]] = []

    # -- small helpers --------------------------------------------------

    def emit(self, instr):
        # ``generate`` sizes the register frame once at the end
        if self._cur_loc is not None:
            instr.loc = self._cur_loc
        return self.mf.append(instr)

    def _fresh_scratch(self) -> int:
        r = self._scratch
        self._scratch += 1
        return r

    def _reset_scratch(self) -> None:
        if self._scratch > self._scratch_top:
            self._scratch_top = self._scratch
        self._scratch = self._scratch_base

    def _new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f".{hint}{self._label_counter}"

    def _reg_of(self, var: Variable) -> Optional[int]:
        return self.var_reg.get(var.id)

    def _var_addr(self, var: Variable) -> int:
        """Materialise the address of a memory-resident variable."""
        rd = self._fresh_scratch()
        if var.is_global:
            self.emit(Lea(rd, Region.GLOBAL, self.global_addrs[var.id]))
        else:
            try:
                off = self.frame_off[var.id]
            except KeyError:
                raise CodegenError(
                    f"{self.fn.name}: variable {var.name} has no frame slot"
                ) from None
            self.emit(Lea(rd, Region.FRAME, off))
        return rd

    # -- expressions ----------------------------------------------------

    def _eval(self, expr: Expr) -> int:
        """Lower ``expr``; returns the register holding its value."""
        kind = type(expr)  # no expression class is subclassed
        if kind is VarRead:
            var = expr.var
            reg = self.var_reg.get(var.id)
            if reg is not None:
                return reg
            ra = self._var_addr(var)
            rd = self._fresh_scratch()
            self.emit(Ld(rd, ra, LoadKind.NORMAL, indirect=False, is_float=var.type.is_float))
            return rd
        if kind is ConstInt:
            rd = self._fresh_scratch()
            self.emit(MovI(rd, wrap_int(expr.value)))
            return rd
        if kind is BinOp:
            if expr.op is BinOpKind.AND or expr.op is BinOpKind.OR:
                return self._eval_logical(expr)
            rs1 = self._eval(expr.left)
            right = expr.right
            if type(right) is ConstInt:
                src2: object = wrap_int(right.value)
            elif type(right) is ConstFloat:
                src2 = float(right.value)
            else:
                src2 = ("r", self._eval(right))
            rd = self._fresh_scratch()
            is_float = expr.left.type.is_float or right.type.is_float
            self.emit(Alu(expr.op, rd, rs1, src2, is_float=is_float))
            return rd
        if kind is Load:
            ra = self._eval(expr.addr)
            rd = self._fresh_scratch()
            self.emit(Ld(rd, ra, LoadKind.NORMAL, indirect=True, is_float=expr.type.is_float))
            return rd
        if kind is AddrOf:
            return self._var_addr(expr.var)
        if kind is ConstFloat:
            rd = self._fresh_scratch()
            self.emit(MovI(rd, float(expr.value)))
            return rd
        if kind is UnOp:
            rs = self._eval(expr.operand)
            rd = self._fresh_scratch()
            self.emit(Un(expr.op, rd, rs))
            return rd
        raise CodegenError(f"{self.fn.name}: cannot lower expression {expr!r}")

    def _eval_logical(self, expr: BinOp) -> int:
        """Short-circuit ``&&`` / ``||`` (matches the interpreter, which
        never evaluates the right operand when the left decides)."""
        rd = self._fresh_scratch()
        right_l = self._new_label("sc")
        end_l = self._new_label("scend")
        left = self._eval(expr.left)
        if expr.op is BinOpKind.AND:
            self.emit(Brnz(left, right_l))
            self.emit(MovI(rd, 0))
            self.emit(Br(end_l))
        else:  # OR
            nleft = self._fresh_scratch()
            self.emit(Un(UnOpKind.NOT, nleft, left))
            self.emit(Brnz(nleft, right_l))
            self.emit(MovI(rd, 1))
            self.emit(Br(end_l))
        self.emit(Label(right_l))
        right = self._eval(expr.right)
        self.emit(Alu(BinOpKind.NE, rd, right, 0))
        self.emit(Label(end_l))
        return rd

    # -- variable writes ------------------------------------------------

    def _coerce(self, reg: int, src_type: Type, dst_type: Type) -> int:
        """Numeric conversion on assignment, mirroring the interpreter's
        ``_coerce`` (float targets widen, int targets truncate)."""
        if dst_type.is_float and not src_type.is_float:
            rd = self._fresh_scratch()
            self.emit(Un(UnOpKind.I2F, rd, reg))
            return rd
        if not dst_type.is_float and src_type.is_float:
            rd = self._fresh_scratch()
            self.emit(Un(UnOpKind.F2I, rd, reg))
            return rd
        return reg

    def _store_var(self, var: Variable, reg: int, src_type: Type) -> None:
        reg = self._coerce(reg, src_type, var.type)
        target = self._reg_of(var)
        if target is not None:
            self.emit(Mov(target, reg))
            return
        ra = self._var_addr(var)
        self.emit(St(ra, reg))

    # -- statements -----------------------------------------------------

    def lower_stmt(self, stmt: Stmt) -> None:
        self._reset_scratch()
        if stmt.loc is not None:
            self._cur_loc = stmt.loc
        kind = type(stmt)  # no statement class is subclassed
        if kind is Assign:
            self._lower_assign(stmt)
        elif kind is Store:
            ra = self._eval(stmt.addr)
            rv = self._eval(stmt.value)
            self.emit(St(ra, rv))
        elif kind is Jump:
            self.emit(Br(stmt.target.label))
        elif kind is CondBranch:
            rc = self._eval(stmt.cond)
            self.emit(Brnz(rc, stmt.then_block.label))
            self.emit(Br(stmt.else_block.label))
        elif kind is Call:
            self._lower_call(stmt)
        elif kind is Print:
            self.emit(PrintR(self._eval(stmt.expr)))
        elif kind is Return:
            if stmt.expr is not None:
                self.emit(RetF(self._eval(stmt.expr)))
            else:
                self.emit(RetF())
        elif kind is Alloc:
            rc = self._eval(stmt.count)
            words = stmt.elem_type.size_words()
            if words != 1:
                scaled = self._fresh_scratch()
                self.emit(Alu(BinOpKind.MUL, scaled, rc, words))
                rc = scaled
            rd = self._fresh_scratch()
            self.emit(AllocH(rd, rc))
            self._store_var(stmt.target, rd, stmt.target.type)
        elif kind is EvalStmt:
            self._eval(stmt.expr)
        elif kind is InvalidateCheck:
            reg = self._reg_of(stmt.temp)
            if reg is not None:
                self.emit(InvalaE(reg))
        elif kind is ConditionalReload:
            self._lower_conditional_reload(stmt)
        else:
            raise CodegenError(f"{self.fn.name}: cannot lower statement {stmt!r}")

    def _lower_call(self, stmt: Call) -> None:
        callee = self.module.function(stmt.callee)
        arg_regs: list[int] = []
        for arg, param in zip(stmt.args, callee.params):
            reg = self._eval(arg)
            arg_regs.append(self._coerce(reg, arg.type, param.type))
        result_rd = self._fresh_scratch() if stmt.result is not None else None
        self.emit(CallF(stmt.callee, arg_regs, result_rd))
        if stmt.result is not None:
            assert result_rd is not None
            self._store_var(stmt.result, result_rd, callee.return_type)

    def _lower_conditional_reload(self, stmt: ConditionalReload) -> None:
        """Nicolau's software check: compare the store address against
        the promoted home address and reload under a predicate."""
        home = self._eval(stmt.home_addr)
        store = self._eval(stmt.store_addr)
        pred = self._fresh_scratch()
        self.emit(Alu(BinOpKind.EQ, pred, store, ("r", home)))
        treg = self._reg_of(stmt.temp)
        indirect = not isinstance(stmt.home_addr, AddrOf)
        is_float = stmt.temp.type.is_float
        if treg is not None:
            self.emit(PredLd(treg, pred, home, indirect=indirect, is_float=is_float))
            return
        # Memory-resident temp (does not happen for PRE temps): branchy
        # equivalent of the predicated load.
        skip = self._new_label("nc")
        done = self._new_label("ncend")
        npred = self._fresh_scratch()
        self.emit(Un(UnOpKind.NOT, npred, pred))
        self.emit(Brnz(npred, skip))
        rv = self._fresh_scratch()
        self.emit(Ld(rv, home, LoadKind.NORMAL, indirect=indirect, is_float=is_float))
        self._store_var(stmt.temp, rv, stmt.temp.type)
        self.emit(Br(done))
        self.emit(Label(skip))
        self.emit(Label(done))

    # -- speculative assigns --------------------------------------------

    def _load_shape(self, expr: Expr) -> Optional[tuple[int, bool, bool]]:
        """If ``expr`` is a lowerable memory load, evaluate its address
        and return ``(addr_reg, indirect, is_float)``."""
        if isinstance(expr, Load):
            return self._eval(expr.addr), True, expr.type.is_float
        if isinstance(expr, VarRead) and self._reg_of(expr.var) is None:
            return self._var_addr(expr.var), False, expr.var.type.is_float
        return None

    def _lower_assign(self, stmt: Assign) -> None:
        flag = stmt.spec_flag
        treg = self._reg_of(stmt.target)
        if flag is not SpecFlag.NONE and treg is not None:
            shape = None
            if flag.is_branching_check and stmt.recovery:
                rec = self._new_label("rec")
                res = self._new_label("res")
                self.emit(ChkA(treg, rec, clear=not flag.keeps_entry))
                self.emit(Label(res))
                self._recovery.append((rec, res, list(stmt.recovery)))
                return
            shape = self._load_shape(stmt.expr)
            if shape is not None:
                ra, indirect, is_float = shape
                if flag.is_advanced_load:
                    kind = (
                        LoadKind.SPEC_ADVANCED
                        if flag is SpecFlag.LD_SA
                        else LoadKind.ADVANCED
                    )
                    self.emit(Ld(treg, ra, kind, indirect=indirect, is_float=is_float))
                    return
                if flag.is_check:
                    # ld.c / ld.c.nc; a branching check without recovery
                    # degrades to the same check-and-reload semantics.
                    self.emit(
                        LdC(
                            treg,
                            ra,
                            clear=not flag.keeps_entry,
                            indirect=indirect,
                            is_float=is_float,
                        )
                    )
                    return
        # Plain assignment (also the safe fallback for any speculative
        # shape we cannot map onto the ISA: an unconditional evaluation
        # is always semantically correct, merely unspeculated).
        reg = self._eval(stmt.expr)
        self._store_var(stmt.target, reg, stmt.expr.type)

    # -- driver ----------------------------------------------------------

    def generate(self) -> MFunction:
        # Spill address-taken parameters into their frame slots: the
        # caller passed them in registers, but their memory home must
        # hold the value before any ``&param`` pointer dereferences it.
        self._reset_scratch()
        for i, p in enumerate(self.fn.params):
            if p.id in self.frame_off:
                ra = self._var_addr(p)
                self.emit(St(ra, i))

        for block in self.fn.blocks:
            self.emit(Label(block.label))
            for stmt in block.stmts:
                self.lower_stmt(stmt)

        # Out-of-line chk.a recovery blocks (may enqueue further blocks
        # when recovery code itself contains branching checks).
        while self._recovery:
            rec, res, stmts = self._recovery.pop(0)
            self.emit(Label(rec))
            for stmt in stmts:
                self.lower_stmt(stmt)
            self.emit(Br(res))

        self._size_frame()
        return self.mf

    def _size_frame(self) -> None:
        """Size the register frame.  Every scratch register is allocated
        for an instruction that writes it, and scratch registers lie
        above every variable's, so a function that allocated one names
        none above the highest; one that allocated none is scanned."""
        self._reset_scratch()
        if self._scratch_top > self._scratch_base:
            self.mf.size_frame(self._scratch_top)
        else:
            self.mf.size_frame()


def generate_machine_code(module: Module, obs=None) -> MProgram:
    """Lower a whole module.  ``obs`` is an optional
    :class:`repro.obs.TraceContext`; when tracing is enabled, one
    ``codegen.function`` event per function records the register/frame
    footprint and the static instruction mix."""
    if "main" not in module.functions:
        raise CodegenError(f"module {module.name}: no main function")
    global_addrs, data = layout_globals(module)
    program = MProgram(module.name)
    program.data.update(data)
    for fn in module.iter_functions():
        mf = _FunctionCodegen(fn, module, global_addrs).generate()
        program.add(mf)
        if obs is not None and obs.enabled:
            obs.event(
                "codegen.function",
                function=mf.name,
                nregs=mf.nregs,
                frame_words=mf.frame_words,
                instructions=len(mf.instrs),
                mix=mf.instruction_mix(),
            )
    return program
