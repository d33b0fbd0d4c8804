"""The IA-64-flavoured target ISA (DESIGN.md section 2).

Only the subset that matters for the paper's experiments is modelled:
plain memory ops, the data-speculation family (``ld.a`` / ``ld.sa`` /
``ld.c{,.nc}`` / ``chk.a{,.nc}`` / ``invala.e``), the predicated load
the software check scheme needs, ALU/branch/call scaffolding, and the
``alloc``/``print`` intrinsics of the MiniC runtime.

Machine functions use an infinite virtual register file; ``nregs`` is
the register-stack frame size the RSE allocates per activation
(Figure 11's pressure metric).  Registers ``0..nparams-1`` hold the
incoming arguments.  Memory is word-addressed, exactly like the IR
interpreter (`repro.ir.interp`), so data images are interchangeable.

Operand conventions (mirrored by :mod:`repro.machine.cpu`):

* ``rd`` — destination register, ``rs``/``rs1`` — source registers;
* ``ra`` — register holding a word address;
* ``Alu.src2`` is either an immediate (int/float) or ``("r", reg)``;
* branch targets are :class:`Label` names, function-local.

The simulator does not execute these objects directly: it runs the
:class:`DecodedFunction` that :meth:`MFunction.decoded` builds once per
function (see the end of this module).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import CodegenError, MachineError
from repro.ir.expr import BinOpKind, UnOpKind

Value = Union[int, float]

#: ``Alu.src2``: an immediate or a ``("r", reg)`` register reference.
Src2 = Union[int, float, tuple]


class Region(enum.Enum):
    """Address space a :class:`Lea` resolves against."""

    GLOBAL = "global"  # absolute word address in the data segment
    FRAME = "frame"  # word offset from the activation's frame base


class LoadKind(enum.Enum):
    """Flavours of :class:`Ld` (paper section 2.1)."""

    NORMAL = "ld"
    ADVANCED = "ld.a"  # allocates an ALAT entry
    SPEC_ADVANCED = "ld.sa"  # + control speculation: defers faults


class MInstr:
    """Base machine instruction."""

    #: source debug location (:class:`repro.ir.loc.Loc`), copied from the
    #: IR statement this instruction was lowered from; ``None`` when the
    #: IR carried no locations.  A class attribute so the dataclass
    #: subclasses need no extra field.
    loc = None

    def reads(self) -> tuple[int, ...]:
        """Source registers the scoreboard must wait on."""
        return ()

    def writes(self) -> tuple[int, ...]:
        """Destination registers."""
        return ()


@dataclass
class Label(MInstr):
    """Branch target marker (retires for free)."""

    name: str


@dataclass
class MovI(MInstr):
    """``rd = imm``."""

    rd: int
    value: Value

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class Mov(MInstr):
    """``rd = rs``."""

    rd: int
    rs: int

    def reads(self) -> tuple[int, ...]:
        return (self.rs,)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class Lea(MInstr):
    """``rd = &region[offset]`` — materialise a word address."""

    rd: int
    region: Region
    offset: int

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class Alu(MInstr):
    """``rd = rs1 <op> src2`` with IR binop semantics."""

    op: BinOpKind
    rd: int
    rs1: int
    src2: Src2
    is_float: bool = False

    def reads(self) -> tuple[int, ...]:
        if isinstance(self.src2, tuple):
            return (self.rs1, self.src2[1])
        return (self.rs1,)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class Un(MInstr):
    """``rd = <op> rs`` (neg / not / int<->float conversion)."""

    op: UnOpKind
    rd: int
    rs: int

    def reads(self) -> tuple[int, ...]:
        return (self.rs,)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class Ld(MInstr):
    """``rd = [ra]`` — plain, advanced, or speculative-advanced load."""

    rd: int
    ra: int
    kind: LoadKind = LoadKind.NORMAL
    indirect: bool = False
    is_float: bool = False

    def reads(self) -> tuple[int, ...]:
        return (self.ra,)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class LdC(MInstr):
    """``ld.c`` / ``ld.c.nc``: probe the ALAT entry of ``rd``; reload
    from ``[ra]`` on a miss.  A hit is free (the paper's 0-cycle
    check); ``clear`` selects the ``.clr`` completer."""

    rd: int
    ra: int
    clear: bool = True
    indirect: bool = False
    is_float: bool = False

    def reads(self) -> tuple[int, ...]:
        return (self.ra,)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class ChkA(MInstr):
    """``chk.a`` / ``chk.a.nc``: branch to ``recovery_label`` when the
    ALAT entry of ``rd`` is gone."""

    rd: int
    recovery_label: str
    clear: bool = False

    def reads(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class InvalaE(MInstr):
    """``invala.e``: explicitly drop the ALAT entry of ``rd``."""

    rd: int


@dataclass
class St(MInstr):
    """``[ra] = rs`` — every store snoops the ALAT."""

    ra: int
    rs: int

    def reads(self) -> tuple[int, ...]:
        return (self.ra, self.rs)


@dataclass
class PredLd(MInstr):
    """``(rp) rd = [ra]`` — predicated reload for the software
    run-time-disambiguation baseline (Nicolau [30])."""

    rd: int
    rp: int
    ra: int
    indirect: bool = False
    is_float: bool = False

    def reads(self) -> tuple[int, ...]:
        return (self.rp, self.ra)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class Br(MInstr):
    """Unconditional branch."""

    label: str


@dataclass
class Brnz(MInstr):
    """Branch to ``label`` when ``rs`` is non-zero."""

    rs: int
    label: str

    def reads(self) -> tuple[int, ...]:
        return (self.rs,)


@dataclass
class CallF(MInstr):
    """Direct call; arguments are copied into the callee's registers
    ``0..n-1`` (register-window style)."""

    callee: str
    arg_regs: list[int]
    result_rd: Optional[int] = None

    def reads(self) -> tuple[int, ...]:
        return tuple(self.arg_regs)

    def writes(self) -> tuple[int, ...]:
        return (self.result_rd,) if self.result_rd is not None else ()


@dataclass
class RetF(MInstr):
    """Return, optionally with a value register."""

    rs: Optional[int] = None

    def reads(self) -> tuple[int, ...]:
        return (self.rs,) if self.rs is not None else ()


@dataclass
class AllocH(MInstr):
    """``rd = alloc(r_words)`` — zero-initialised heap allocation."""

    rd: int
    r_words: int

    def reads(self) -> tuple[int, ...]:
        return (self.r_words,)

    def writes(self) -> tuple[int, ...]:
        return (self.rd,)


@dataclass
class PrintR(MInstr):
    """Observable output of one register (models ``printf``)."""

    rs: int

    def reads(self) -> tuple[int, ...]:
        return (self.rs,)


def mnemonic(instr: MInstr) -> str:
    """Canonical mnemonic used by the asm printer and the per-function
    instruction-mix statistics in the trace."""
    if isinstance(instr, Label):
        return "label"
    if isinstance(instr, MovI) or isinstance(instr, Mov):
        return "mov"
    if isinstance(instr, Lea):
        return "lea"
    if isinstance(instr, Alu):
        return "falu" if instr.is_float else "alu"
    if isinstance(instr, Un):
        return "un"
    if isinstance(instr, Ld):
        return instr.kind.value
    if isinstance(instr, LdC):
        return "ld.c" if instr.clear else "ld.c.nc"
    if isinstance(instr, ChkA):
        return "chk.a" if instr.clear else "chk.a.nc"
    if isinstance(instr, InvalaE):
        return "invala.e"
    if isinstance(instr, St):
        return "st"
    if isinstance(instr, PredLd):
        return "pred.ld"
    if isinstance(instr, Br):
        return "br"
    if isinstance(instr, Brnz):
        return "brnz"
    if isinstance(instr, CallF):
        return "call"
    if isinstance(instr, RetF):
        return "ret"
    if isinstance(instr, AllocH):
        return "alloc"
    if isinstance(instr, PrintR):
        return "print"
    return type(instr).__name__.lower()


class MFunction:
    """One compiled function: a flat instruction list plus its register
    and frame requirements."""

    def __init__(self, name: str, nparams: int = 0) -> None:
        self.name = name
        self.nparams = nparams
        self.instrs: list[MInstr] = []
        #: register-stack frame size (what the RSE allocates per call)
        self.nregs = max(1, nparams)
        #: words of stack-frame memory (zeroed on entry)
        self.frame_words = 0
        self._labels: Optional[dict[str, int]] = None
        self._decoded: Optional[DecodedFunction] = None

    def emit(self, instr: MInstr) -> MInstr:
        self.instrs.append(instr)
        self._labels = None
        self._decoded = None
        for reg in (*instr.reads(), *instr.writes()):
            if reg is not None and reg >= self.nregs:
                self.nregs = reg + 1
        return instr

    def label_index(self, name: str) -> int:
        """Instruction index of ``Label(name)`` (cached)."""
        if self._labels is None:
            self._labels = {
                instr.name: i
                for i, instr in enumerate(self.instrs)
                if isinstance(instr, Label)
            }
        try:
            return self._labels[name]
        except KeyError:
            raise MachineError(f"{self.name}: unknown label {name!r}") from None

    def decoded(self) -> "DecodedFunction":
        """The simulator's form of this function (cached; ``emit``
        drops it)."""
        if self._decoded is None:
            self._decoded = DecodedFunction(self)
        return self._decoded

    def instruction_mix(self) -> dict[str, int]:
        """Static mnemonic histogram (labels excluded) — the per-function
        payload of the ``codegen.function`` trace event."""
        mix: dict[str, int] = {}
        for instr in self.instrs:
            if isinstance(instr, Label):
                continue
            m = mnemonic(instr)
            mix[m] = mix.get(m, 0) + 1
        return mix

    def __repr__(self) -> str:
        return (
            f"MFunction({self.name!r}, {len(self.instrs)} instrs, "
            f"nregs={self.nregs})"
        )


class MProgram:
    """A whole compiled program: functions plus the initial data image
    (word address -> value) of the global segment."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.functions: dict[str, MFunction] = {}
        self.data: dict[int, Value] = {}

    def add(self, mf: MFunction) -> MFunction:
        if mf.name in self.functions:
            raise CodegenError(f"function {mf.name} emitted twice")
        self.functions[mf.name] = mf
        return mf

    def function(self, name: str) -> MFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise MachineError(f"program has no function {name!r}") from None

    def __repr__(self) -> str:
        return f"MProgram({self.name!r}, {len(self.functions)} functions)"


# -- decoded form -------------------------------------------------------
#
# ``MFunction.decoded()`` lowers a function once into a list of
# fixed-shape tuples ``(op, reads, a, b, c, d, e)``: ``op`` is one of the
# plain-int ``OP_*`` codes below, ``reads`` the registers the scoreboard
# waits on, and ``a``..``e`` the operands listed beside each code (unused
# ones are None).  Labels disappear: branch operands are indices into the
# list.  Immediates become *constant registers*, numbered after the real
# ones and never written, so ``MovI``, a global ``Lea`` and an ``Alu``
# with an immediate operand read a register like every other
# instruction.

OP_ARITH = 0  # rd, rs1, src2, fn (operator.add/sub/mul), latency factor
OP_CMP = 1  # rd, rs1, src2, fn (operator.eq/lt/...), latency factor
OP_MOV = 2  # rd, src (Mov, MovI, global Lea)
OP_LD = 3  # rd, ra, indirect, is_float
OP_LEA = 4  # rd, frame offset
OP_BR = 5  # target
OP_BRNZ = 6  # rs, target
OP_ST = 7  # ra, rs
OP_LD_A = 8  # ld.a: as OP_LD
OP_LD_SA = 9  # ld.sa: as OP_LD
OP_LDC = 10  # rd, ra, clear, indirect, is_float
OP_CHKA = 11  # rd, recovery target, clear
OP_INVALA = 12  # rd
OP_PREDLD = 13  # rd, rp, ra, indirect, is_float
OP_CALL = 14  # callee name, arg registers, result rd (or None)
OP_RET = 15  # rs (or None)
OP_DIV = 16  # rd, rs1, src2, -, latency factor
OP_MOD = 17  # as OP_DIV
OP_UN = 18  # rd, rs, UnOpKind
OP_ALLOC = 19  # rd, r_words
OP_PRINT = 20  # rs
OP_FAULT = 21  # message: the instruction cannot execute

#: result latency of FP arithmetic, in ALU latencies (FMAC-like on
#: Itanium)
FP_LATENCY_FACTOR = 4

_ALU_OPS = {
    BinOpKind.ADD: (OP_ARITH, operator.add),
    BinOpKind.SUB: (OP_ARITH, operator.sub),
    BinOpKind.MUL: (OP_ARITH, operator.mul),
    BinOpKind.DIV: (OP_DIV, None),
    BinOpKind.MOD: (OP_MOD, None),
    BinOpKind.EQ: (OP_CMP, operator.eq),
    BinOpKind.NE: (OP_CMP, operator.ne),
    BinOpKind.LT: (OP_CMP, operator.lt),
    BinOpKind.LE: (OP_CMP, operator.le),
    BinOpKind.GT: (OP_CMP, operator.gt),
    BinOpKind.GE: (OP_CMP, operator.ge),
}

_LOAD_OPS = {
    LoadKind.NORMAL: OP_LD,
    LoadKind.ADVANCED: OP_LD_A,
    LoadKind.SPEC_ADVANCED: OP_LD_SA,
}


class DecodedFunction:
    """One :class:`MFunction` in the form the simulator executes."""

    __slots__ = ("name", "code", "instrs", "register_count", "registers",
                 "translations", "_unknown_labels")

    def __init__(self, mf: MFunction) -> None:
        self.name = mf.name
        #: the simulator's translated tiers (:mod:`repro.machine.translate`),
        #: keyed by the machine parameters they fold
        self.translations: dict = {}
        #: the instruction each ``code`` entry came from (attribution)
        self.instrs = [i for i in mf.instrs if not isinstance(i, Label)]
        #: registers any instruction names (``mf.nregs`` may be smaller:
        #: it is the RSE frame size, and callers may overwrite it)
        self.register_count = 1 + max(
            (r for i in self.instrs for r in (*i.reads(), *i.writes())
             if r is not None),
            default=-1,
        )
        self._unknown_labels: list[str] = []
        # a label resolves to the next instruction (the last of two
        # same-named labels wins, as in ``label_index``)
        targets: dict[str, int] = {}
        index = 0
        for instr in mf.instrs:
            if isinstance(instr, Label):
                targets[instr.name] = index
            else:
                index += 1
        constants: list[Value] = []
        slots: dict[tuple, int] = {}

        def const(value: Value) -> int:
            # keyed by type and repr: 1, 1.0 and -0.0 stay distinct
            key = (type(value), repr(value))
            if key not in slots:
                slots[key] = self.register_count + len(constants)
                constants.append(value)
            return slots[key]

        def target(label: str) -> int:
            if label in targets:
                return targets[label]
            # past the end: fetching it faults, so an unknown label
            # faults only when a branch to it is taken
            self._unknown_labels.append(label)
            return len(self.instrs) + len(self._unknown_labels)

        self.code = [_decode(i, const, target) for i in self.instrs]
        #: initial register file: zeroed registers, then the constants
        self.registers: list[Value] = [0] * self.register_count + constants

    def fault_at(self, pc: int) -> str:
        """Why control reached ``pc``, an index past the code."""
        if pc == len(self.code):
            return f"{self.name}: fell off the end of the function"
        label = self._unknown_labels[pc - len(self.code) - 1]
        return f"{self.name}: unknown label {label!r}"


def _decode(instr: MInstr, const, target) -> tuple:
    reads = instr.reads()
    if isinstance(instr, Alu):
        src2 = instr.src2
        slot = src2[1] if isinstance(src2, tuple) else const(src2)
        factor = FP_LATENCY_FACTOR if instr.is_float else 1
        if instr.op not in _ALU_OPS:
            return (OP_FAULT, reads, f"unsupported ALU op {instr.op}",
                    None, None, None, None)
        op, fn = _ALU_OPS[instr.op]
        return (op, reads, instr.rd, instr.rs1, slot, fn, factor)
    if isinstance(instr, Mov):
        return (OP_MOV, reads, instr.rd, instr.rs, None, None, None)
    if isinstance(instr, MovI):
        return (OP_MOV, reads, instr.rd, const(instr.value), None, None, None)
    if isinstance(instr, Lea):
        if instr.region is Region.GLOBAL:
            return (OP_MOV, reads, instr.rd, const(instr.offset),
                    None, None, None)
        return (OP_LEA, reads, instr.rd, instr.offset, None, None, None)
    if isinstance(instr, Ld):
        return (_LOAD_OPS[instr.kind], reads, instr.rd, instr.ra,
                instr.indirect, instr.is_float, None)
    if isinstance(instr, Br):
        return (OP_BR, reads, target(instr.label), None, None, None, None)
    if isinstance(instr, Brnz):
        return (OP_BRNZ, reads, instr.rs, target(instr.label),
                None, None, None)
    if isinstance(instr, St):
        return (OP_ST, reads, instr.ra, instr.rs, None, None, None)
    if isinstance(instr, LdC):
        return (OP_LDC, reads, instr.rd, instr.ra, instr.clear,
                instr.indirect, instr.is_float)
    if isinstance(instr, ChkA):
        return (OP_CHKA, reads, instr.rd, target(instr.recovery_label),
                instr.clear, None, None)
    if isinstance(instr, InvalaE):
        return (OP_INVALA, reads, instr.rd, None, None, None, None)
    if isinstance(instr, PredLd):
        return (OP_PREDLD, reads, instr.rd, instr.rp, instr.ra,
                instr.indirect, instr.is_float)
    if isinstance(instr, CallF):
        return (OP_CALL, reads, instr.callee, tuple(instr.arg_regs),
                instr.result_rd, None, None)
    if isinstance(instr, RetF):
        return (OP_RET, reads, instr.rs, None, None, None, None)
    if isinstance(instr, Un):
        return (OP_UN, reads, instr.rd, instr.rs, instr.op, None, None)
    if isinstance(instr, AllocH):
        return (OP_ALLOC, reads, instr.rd, instr.r_words, None, None, None)
    if isinstance(instr, PrintR):
        return (OP_PRINT, reads, instr.rs, None, None, None, None)
    return (OP_FAULT, reads, f"unknown instruction {instr!r}",
            None, None, None, None)
