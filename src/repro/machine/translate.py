"""The simulator's translated tier: hot regions as generated Python.

The simulator's tiering loop (``Simulator._activate`` with nothing
attached, :mod:`repro.machine.cpu`) interprets a function's
decoded code (:class:`repro.target.isa.DecodedFunction`).  It counts
taken back edges per loop header and calls per function; when a count
reaches :data:`THRESHOLD` it asks this module for a translation of that
*region* and enters it.  A region is a set of basic blocks with one
entry: the natural loop of a header (every block that reaches one of
its back edges without passing the header), or, for a function of at
most :data:`MAX_FUNCTION` instructions, every block of the function.

A region becomes one Python function.  Registers and ready times are
locals, constant registers are literals, and the issue width, branch
and recovery penalties and instruction limit are folded into the
source.  Within a block the translator tracks ready times relative to
the slot clock, so a stall that the block's own fixed-latency writes
make certain or impossible costs nothing at run time; it also drops
the address check of a register already checked in the block.  Counter
increments stay in locals until the region exits or calls.  A binary
tree on ``pc`` picks the next block.

The region is exact because every way out of it falls back to the
interpreter, which then does what it would have done:

* a branch to a block outside the region exits at that block;
* an instruction that would fault (a bad address, a division by zero,
  an operand the interpreter rejects) exits *before* it issues, so the
  interpreter executes it and raises the same error with the same
  state (or, for an operand it accepts, carries on);
* a block that could cross ``max_instructions`` exits at its first
  instruction, so :class:`repro.errors.MachineLimitExceeded` fires in
  the interpreter at the same instruction.

Exits hand the pc, registers, ready times, slot clock and instruction
count back.  The last two kinds return ``-2 - pc``: the interpreter
runs that instruction on the plain decoded code (at a header, the tier
code would re-enter the region) up to its next taken back edge.  Calls
and returns are translated: a call writes the clock, the instruction
count and the counters back before it runs the callee.

Translations live on the ``DecodedFunction`` (``MFunction.emit`` drops
them), keyed by the parameters they fold; ALAT and cache geometry stay
run-time calls, so ablation sweeps share them.
"""

from __future__ import annotations

import operator
from math import inf, isfinite
from typing import Callable, Optional

from repro.errors import MachineError
from repro.ir.expr import UnOpKind
from repro.ir.interp import STACK_BASE, format_value, int_div, int_mod, wrap_int
from repro.target.isa import (
    OP_ALLOC,
    OP_ARITH,
    OP_BR,
    OP_BRNZ,
    OP_CALL,
    OP_CHKA,
    OP_CMP,
    OP_DIV,
    OP_FAULT,
    OP_INVALA,
    OP_LD,
    OP_LD_A,
    OP_LD_SA,
    OP_LDC,
    OP_LEA,
    OP_MOD,
    OP_MOV,
    OP_PREDLD,
    OP_PRINT,
    OP_RET,
    OP_ST,
    OP_UN,
    DecodedFunction,
)

#: executions of a loop's back edges, or calls of a function, before it
#: is translated.  Translating costs 40 to 70 us per instruction on a
#: 2-vCPU x86_64 VM, quiet to loaded (three quarters of it in
#: ``compile()``); a translated instruction saves about 0.3 us per
#: execution, so it breaks even after 130 to 250 executions.  Generated
#: test programs stay far below (at most 76); the paper kernels' hot
#: regions run 305 to 27,200 times (DESIGN section 7, item 10).
THRESHOLD = 256

#: largest function (in instructions) translated whole when it gets hot
MAX_FUNCTION = 96

#: the entry op the interpreter finds at a translated header:
#: ``(OP_REGION, (), region_function, None, None, None, None)``
OP_REGION = 22

#: the names a region binds from :func:`context`, in its order
CTX = (
    "mem_get", "mem", "alat_check", "alat_allocate", "alat_snoop",
    "alat_invalidate", "load_latency", "store_touch", "rse_call",
    "rse_ret", "run", "out_append",
)


def context(sim) -> tuple:
    """What a region calls on ``sim``'s components, in ``CTX`` order
    (built once per simulator, as ``sim._ctx``)."""
    return (
        sim.mem.get, sim.mem, sim.alat.check, sim.alat.allocate,
        sim.alat.snoop_store, sim.alat.invalidate_entry,
        sim.cache.load_latency, sim.cache.store_touch, sim.rse.call,
        sim.rse.ret, sim._activate, sim.output.append,
    )


_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1

_SYMBOLS = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.eq: "==", operator.ne: "!=", operator.lt: "<",
    operator.le: "<=", operator.gt: ">", operator.ge: ">=",
}

#: opcodes that end a basic block (a call ends one so the instruction
#: limit is checked again after the callee)
_ENDS = frozenset({OP_BR, OP_BRNZ, OP_CHKA, OP_RET, OP_CALL, OP_FAULT})

#: counter fields a region accumulates in locals, by local name
_COUNTERS = {
    "c_ld": "retired_loads", "c_dac": "data_access_cycles",
    "c_ind": "retired_indirect_loads", "c_st": "retired_stores",
    "c_chk": "check_instructions", "c_cf": "check_failures",
    "c_rec": "recovery_cycles", "c_call": "calls", "c_br": "branches",
    "c_adv": "retired_advanced_loads", "c_pred": "predicated_reloads",
    "c_inv": "explicit_invalidations",
}

#: ready-time knowledge: the register cannot stall the current issue
_NEVER = object()


def tier(dec: DecodedFunction, key: tuple, run: object) -> "Tier":
    """``dec``'s tier for the parameters ``key``, with the tier-up counts
    of ``run`` (a token per simulator: counts start afresh each run,
    translations are kept)."""
    found = dec.translations.get(key)
    if found is None:
        found = dec.translations[key] = Tier(dec, key)
    found.run = run
    found.calls = 0
    found.heat = [0] * len(dec.code)
    return found


class Tier:
    """One function's translations for one set of folded parameters.

    ``code`` is what the interpreter dispatches: the decoded code until
    the first translation, then a copy with an entry op at each
    translated header; ``regions`` maps each translated entry pc to the
    number of lines generated for it.  ``calls`` and ``heat`` (taken
    back edges per header) are the tier-up counts of the run ``run``.
    """

    __slots__ = ("dec", "key", "code", "regions", "run", "calls", "heat",
                 "_cfg")

    def __init__(self, dec: DecodedFunction, key: tuple) -> None:
        self.dec = dec
        #: (issue width, branch penalty, recovery penalty, max_instructions)
        self.key = key
        self.code: list[tuple] = dec.code
        self.regions: dict[int, int] = {}
        self.run: object = None
        self.calls = 0
        self.heat: list[int] = []
        self._cfg: Optional[tuple[dict[int, int], dict[int, list[int]]]] = None

    def translate_loop(self, sim, header: int) -> None:
        """Translate the natural loop of ``header``."""
        blocks, succs = self.cfg()
        preds: dict[int, list[int]] = {}
        for block, outs in succs.items():
            for out in outs:
                preds.setdefault(out, []).append(block)
        latches = [
            b for b in preds.get(header, ()) if blocks[b] - 1 >= header
        ]
        body = {header}
        work = [b for b in latches if b not in body]
        body.update(work)
        while work:
            for pred in preds.get(work.pop(), ()):
                if pred not in body:
                    body.add(pred)
                    work.append(pred)
        self._install(sim, header, body)

    def translate_function(self, sim) -> None:
        """Translate every block reachable from the entry."""
        blocks, succs = self.cfg()
        body = {0}
        work = [0]
        while work:
            for out in succs[work.pop()]:
                if out in blocks and out not in body:
                    body.add(out)
                    work.append(out)
        self._install(sim, 0, body)

    def cfg(self) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Basic blocks (start -> end) and their successor starts (a
        successor past the code is a pc the interpreter faults at)."""
        if self._cfg is None:
            code = self.dec.code
            leaders = {0}
            for pc, (op, _r, a, b, _c, _d, _e) in enumerate(code):
                if op in _ENDS:
                    leaders.add(pc + 1)
                if op == OP_BR:
                    leaders.add(a)
                elif op == OP_BRNZ or op == OP_CHKA:
                    leaders.add(b)
            starts = sorted(pc for pc in leaders if pc < len(code))
            ends = starts[1:] + [len(code)]
            blocks = dict(zip(starts, ends))
            succs: dict[int, list[int]] = {}
            for start, end in blocks.items():
                op, _r, a, b = code[end - 1][:4]
                if op == OP_BR:
                    succs[start] = [a]
                elif op == OP_BRNZ or op == OP_CHKA:
                    succs[start] = [b, end]
                elif op == OP_RET or op == OP_FAULT:
                    succs[start] = []
                else:
                    succs[start] = [end]
            self._cfg = blocks, succs
        return self._cfg

    def _install(self, sim, entry: int, body: set[int]) -> None:
        if entry in self.regions:
            return  # translated by an earlier run
        blocks, succs = self.cfg()
        gen = _Generator(
            self.dec, sim.program, self.key, blocks, succs, body, entry
        )
        region, lines = gen.build()
        if self.code is self.dec.code:
            self.code = list(self.dec.code)
        self.code[entry] = (OP_REGION, (), region, None, None, None, None)
        self.regions[entry] = lines


def _literal(value) -> Optional[str]:
    """Python source for a constant, or None when it has no literal."""
    if isinstance(value, float) and not isfinite(value):
        return None
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


#: a region's ``pc`` at or above this names a fault exit's fix-up row
#: (the row's pc is ``-2 - pc``, like a limit exit's)
_FAULT_EXIT = 1 << 30

#: deepest chain of blocks emitted inline into their one predecessor
_MAX_INLINE = 12


class _Generator:
    """Emits one region as the source of one Python function.

    A block with exactly one predecessor inside the region is emitted
    inline at the end of that predecessor, keeping what is known about
    ready times and addresses; every other block is a leaf of the
    dispatch tree.  A fault exit sets ``pc`` to a fix-up row and breaks;
    after the loop the row restores the instruction's pc, clock, count
    and the block's static counter increments so far.
    """

    def __init__(
        self, dec: DecodedFunction, program, key: tuple,
        blocks: dict[int, int], succs: dict[int, list[int]], body: set[int],
        entry: int,
    ) -> None:
        self.dec = dec
        self.entry = entry
        self.program = program
        self.w, branch_penalty, self.recovery, self.limit = key
        self.bubble = branch_penalty * self.w
        self.blocks = blocks
        self.body = body
        preds: dict[int, list[int]] = {}
        for block in body:
            for out in succs[block]:
                if out in body:
                    preds.setdefault(out, []).append(block)
        self.inlinable = {
            block for block, ins in preds.items()
            if len(ins) == 1 and ins[0] != block and block != entry
        }
        self.nreal = dec.register_count
        self.ns: dict[str, object] = {
            "wrap": wrap_int, "int_div": int_div, "int_mod": int_mod,
            "fmt": format_value, "isinstance": isinstance, "float": float,
            "int": int, "INF": inf, "MachineError": MachineError,
        }
        self.used: set[int] = set()
        self.written: set[int] = set()
        self.tags: set[int] = set()
        self.ctx: set[str] = set()
        self.counters: set[str] = set()
        #: fault exits: (pc, clock offset, instructions to take back,
        #: static counter increments not yet made)
        self.fixups: list[tuple[int, int, int, dict[str, int]]] = []
        self.lines: list[str] = []
        self.indent = ""
        self.depth = 0
        self.leaves: dict[int, list[str]] = {}
        self.wanted: list[int] = []
        # the block being emitted: its first pc and length, the clock
        # as ``T + k``, ready times as offsets from T (or _NEVER),
        # registers known to hold a valid address, static counter
        # increments not yet emitted, and whether its end may fall
        # through to the dispatch loop
        self.start = self.length = self.k = 0
        self.known: dict[int, object] = {}
        self.good: set[int] = set()
        self.pending: dict[str, int] = {}
        self.tail = True

    # -- output -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def nest(self, body, *args) -> None:
        saved = self.indent
        self.indent += "    "
        body(*args)
        self.indent = saved

    def bind(self, value, prefix: str) -> str:
        name = f"{prefix}{len(self.ns)}"
        self.ns[name] = value
        return name

    def src(self, reg: int) -> str:
        """A register operand: a literal for a constant register."""
        if reg >= self.nreal:
            value = self.dec.registers[reg]
            return _literal(value) or self.bind(value, "K")
        self.used.add(reg)
        return f"r{reg}"

    def const(self, reg: int):
        """The value of a constant register (None for a real one)."""
        return self.dec.registers[reg] if reg >= self.nreal else None

    def fn(self, name: str) -> str:
        self.ctx.add(name)
        return name

    def tag(self, reg: int) -> str:
        self.tags.add(reg)
        return f"g{reg}"

    def count(self, local: str) -> None:
        """A counter increment every path through here makes; emitted
        at the block's end."""
        self.counters.add(local)
        self.pending[local] = self.pending.get(local, 0) + 1

    def bump(self, local: str, amount: str = "1") -> None:
        """A counter increment emitted in place."""
        self.counters.add(local)
        self.emit(f"{local} += {amount}")

    def flush_pending(self) -> None:
        for local, amount in sorted(self.pending.items()):
            self.emit(f"{local} += {amount}")
        self.pending = {}

    # -- the clock and what is known in a block ---------------------------

    def write(self, reg: int) -> None:
        self.used.add(reg)
        self.written.add(reg)
        self.good.discard(reg)
        self.known.pop(reg, None)

    def write_fixed(self, reg: int, offset: int) -> None:
        self.write(reg)
        self.emit(f"t{reg} = T + {offset}" if offset else f"t{reg} = T")
        self.known[reg] = offset

    def write_latency(self, reg: int, start: int) -> None:
        self.write(reg)
        scaled = "lat" if self.w == 1 else f"{self.w} * lat"
        self.emit(f"t{reg} = T + {scaled}" + (f" + {start}" if start else ""))

    def issue(self, reads) -> int:
        """Emit the operand stalls of one instruction; returns its issue
        time as an offset from T and advances the clock past it."""
        start = self.k
        runtime: list[int] = []
        for reg in reads:
            if reg >= self.nreal:
                continue  # constants are ready at time 0
            known = self.known.get(reg)
            if known is _NEVER:
                continue
            if known is None:
                if reg not in runtime:
                    runtime.append(reg)
            elif known > start:
                start = known
        if runtime:
            if start:
                self.emit(f"T += {start}")
            for reg in runtime:
                self.used.add(reg)
                self.emit(f"if t{reg} > T: T = t{reg}")
            self.advance(start, exact=False)
            for reg in runtime:
                self.known[reg] = _NEVER
            start = 0
        self.k = start + 1
        return start

    def advance(self, amount: int, exact: bool) -> None:
        """T grew by ``amount`` (``exact``) or by at least that much: a
        ready time at or below ``amount`` can no longer stall; the others
        move down by it, or become unknown when the growth is not."""
        known: dict[int, object] = {}
        for reg, off in self.known.items():
            if off is _NEVER or off <= amount:
                known[reg] = _NEVER
            elif exact:
                known[reg] = off - amount
        self.known = known

    # -- leaving a block --------------------------------------------------

    def exit_before(self, index: int) -> None:
        """Leave the region before instruction ``index`` of the block
        issues; the interpreter re-executes it."""
        row = len(self.fixups)
        self.fixups.append((
            -2 - (self.start + index), self.k, self.length - index,
            dict(self.pending),
        ))
        self.emit(f"pc = {_FAULT_EXIT + row}; break")

    def guard_address(self, reg: int, index: int, cond: str = "") -> None:
        """Exit before ``index`` unless ``reg`` holds a valid address
        (checked once per block)."""
        if reg in self.good:
            return
        r = self.src(reg)
        test = f"{r} <= 0 or {r}.__class__ is float"
        self.emit(f"if {cond} and ({test}):" if cond else f"if {test}:")
        self.nest(self.exit_before, index)
        if not cond:
            self.good.add(reg)

    def jump(self, target: int, add: int, tail: bool) -> None:
        """Continue at ``target`` with the clock at ``T + add``.  At a
        ``tail`` the code falls through to the dispatch loop."""
        if add:
            self.emit(f"T += {add}")
        if target in self.inlinable and self.depth < _MAX_INLINE:
            saved = self.save()
            self.advance(add, exact=True)
            self.depth += 1
            self.block(target, tail)
            self.depth -= 1
            self.restore(saved)
            return
        self.emit(f"pc = {target}")
        if target not in self.body:
            self.emit("break")
            return
        if target not in self.leaves and target not in self.wanted:
            self.wanted.append(target)
        if not tail:
            self.emit("continue")

    def save(self) -> tuple:
        return (self.start, self.length, self.k, dict(self.known),
                set(self.good), dict(self.pending), self.tail)

    def restore(self, saved: tuple) -> None:
        (self.start, self.length, self.k, self.known, self.good,
         self.pending, self.tail) = saved

    # -- blocks -------------------------------------------------------------

    def block(self, start: int, tail: bool) -> None:
        """One block, from what ``known`` and ``good`` already say (a
        leaf starts from nothing)."""
        end = self.blocks[start]
        self.start, self.length = start, end - start
        self.k = 0
        self.pending = {}
        self.tail = tail
        self.emit(f"if n > {self.limit - self.length}: pc = {-2 - start}; break")
        self.emit(f"n += {self.length}")
        code = self.dec.code
        for index in range(self.length):
            if not self.instr(index, code[start + index]):
                return  # the block ended (terminator or certain exit)
        self.flush_pending()
        self.jump(end, self.k, self.tail)

    def instr(self, i: int, ins: tuple) -> bool:
        """Emit one instruction; False once the block has ended."""
        op, reads, a, b, c, d, e = ins
        w = self.w
        if op == OP_ARITH or op == OP_CMP:
            start = self.issue(reads)
            sym = _SYMBOLS.get(d)
            x, y = self.src(b), self.src(c)
            expr = f"{x} {sym} {y}" if sym else f"{self.bind(d, 'f')}({x}, {y})"
            self.write_fixed(a, start + w * e)
            if op == OP_CMP:
                self.emit(f"r{a} = 1 if {expr} else 0")
            else:
                self.emit(f"r{a} = {expr}")
                self.emit(
                    f"if not {_INT_MIN} <= r{a} <= {_INT_MAX} "
                    f"and isinstance(r{a}, int): r{a} = wrap(r{a})"
                )
        elif op == OP_MOV:
            start = self.issue(reads)
            value = self.src(b)
            good = b in self.good or (
                type(self.const(b)) is int and self.const(b) > 0
            )
            self.write_fixed(a, start + w)
            self.emit(f"r{a} = {value}")
            if good:
                self.good.add(a)
        elif op == OP_LD or op == OP_LD_A:
            self.guard_address(b, i)
            start = self.issue(reads)
            self.load(a, b, start, c, d, op == OP_LD_A, False)
        elif op == OP_LD_SA:
            start = self.issue(reads)
            if b in self.good:
                self.load(a, b, start, c, d, True, False)
            else:
                r = self.src(b)
                self.emit(f"if {r} <= 0 or {r}.__class__ is float:")
                self.nest(self.deferred, a, start + w, d)
                self.emit("else:")
                self.nest(self.load, a, b, start, c, d, True, True)
                self.write(a)
        elif op == OP_LEA:
            start = self.issue(reads)
            self.write_fixed(a, start + w)
            self.emit(f"r{a} = base + {_literal(b)}")
            if isinstance(b, int) and STACK_BASE + b > 0:
                self.good.add(a)
        elif op == OP_ST:
            self.guard_address(a, i)
            self.issue(reads)
            addr = self.src(a)
            self.emit(f"{self.fn('mem')}[{addr}] = {self.src(b)}")
            self.emit(f"{self.fn('alat_snoop')}({addr})")
            self.emit(f"{self.fn('store_touch')}({addr})")
            self.count("c_st")
        elif op == OP_LDC:
            start = self.issue(reads)
            self.count("c_chk")
            self.emit(f"if not {self.fn('alat_check')}({self.tag(a)}, {c!r}):")
            self.nest(self.check_miss, a, b, start, c, d, e)
            self.write(a)
        elif op == OP_PREDLD:
            self.guard_address(c, i, cond=self.src(b))
            start = self.issue(reads)
            self.emit(f"if {self.src(b)}:")
            self.nest(self.predicated, a, c, start, d, e)
            self.write(a)
        elif op == OP_DIV or op == OP_MOD:
            self.divide(i, op, reads, a, b, c, e)
        elif op == OP_UN:
            return self.unary(i, reads, a, b, c)
        elif op == OP_ALLOC:
            x = self.src(b)
            self.emit(f"if {x}.__class__ is not int or {x} < 0:")
            self.nest(self.exit_before, i)
            start = self.issue(reads)
            self.emit(f"x = {x}")
            self.write_fixed(a, start + w)
            self.emit(f"r{a} = sim._heap_top")
            self.emit(f"sim._heap_top = r{a} + (x or 1)")
            self.good.add(a)
        elif op == OP_PRINT:
            self.issue(reads)
            self.emit(f"{self.fn('out_append')}(fmt({self.src(a)}))")
        elif op == OP_INVALA:
            self.issue(reads)
            self.count("c_inv")
            self.emit(f"{self.fn('alat_invalidate')}({self.tag(a)})")
        elif op == OP_BR:
            self.issue(reads)
            self.count("c_br")
            self.flush_pending()
            self.jump(a, self.k + self.bubble, self.tail)
            return False
        elif op == OP_BRNZ:
            self.issue(reads)
            self.count("c_br")
            self.flush_pending()
            self.emit(f"if {self.src(a)}:")
            self.nest(self.jump, b, self.k + self.bubble, False)
            self.jump(self.start + i + 1, self.k, self.tail)
            return False
        elif op == OP_CHKA:
            self.issue(reads)
            self.count("c_chk")
            self.flush_pending()
            self.emit(f"if not {self.fn('alat_check')}({self.tag(a)}, {c!r}):")
            self.nest(self.recover, b)
            self.jump(self.start + i + 1, self.k, self.tail)
            return False
        elif op == OP_CALL:
            self.call(i, reads, a, b, c)
            return False
        elif op == OP_RET:
            self.issue(reads)
            self.flush_pending()
            # the counter locals go to ``counters`` here; which locals
            # the region has is known only once every block is emitted
            self.emit("@flush")
            value = "None" if a is None else self.src(a)
            self.emit(f"return -1, T + {self.k}, n, {value}")
            return False
        else:  # OP_FAULT: the interpreter raises the decoder's message
            self.exit_before(i)
            return False
        return True

    def recover(self, target: int) -> None:
        """A failed chk.a: pay the recovery trap, branch to recovery."""
        self.bump("c_cf")
        self.bump("c_rec", str(self.recovery))
        self.jump(target, self.k + self.recovery * self.w, False)

    def load(
        self, a: int, b: int, start: int, indirect, is_float,
        advanced: bool, inline: bool,
    ) -> None:
        addr = self.src(b)
        if advanced and a == b:
            self.emit(f"x = {addr}")
            addr = "x"
        self.emit(f"lat = {self.fn('load_latency')}({addr}, {is_float!r})")
        self.emit(f"r{a} = {self.fn('mem_get')}({addr}, 0)")
        self.write_latency(a, start)
        count = self.bump if inline else self.count
        count("c_ld")
        self.bump("c_dac", "lat")
        if indirect:
            count("c_ind")
        if advanced:
            count("c_adv")
            self.emit(f"{self.fn('alat_allocate')}({self.tag(a)}, {addr})")

    def deferred(self, a: int, ready: int, is_float) -> None:
        """ld.sa at a bad address: a dummy value, no entry armed."""
        self.used.add(a)
        self.written.add(a)
        self.emit(f"r{a} = {'0.0' if is_float else '0'}")
        self.emit(f"t{a} = T + {ready}")

    def check_miss(self, a, b, start, clear, indirect, is_float) -> None:
        self.bump("c_cf")
        if b in self.good:
            self.reload(a, b, start, clear, indirect, is_float)
            return
        r = self.src(b)
        self.emit(f"if {r} <= 0 or {r}.__class__ is float:")
        # no advanced load ran on this path: the result is dead
        self.emit(f"    r{a} = {'0.0' if is_float else '0'}")
        self.used.add(a)
        self.written.add(a)
        self.emit("else:")
        self.nest(self.reload, a, b, start, clear, indirect, is_float)

    def reload(self, a, b, start, clear, indirect, is_float) -> None:
        addr = self.src(b)
        if a == b and not clear:
            self.emit(f"x = {addr}")
            addr = "x"
        self.emit(f"lat = {self.fn('load_latency')}({addr}, {is_float!r})")
        self.emit(f"r{a} = {self.fn('mem_get')}({addr}, 0)")
        self.write_latency(a, start)
        self.bump("c_ld")
        self.bump("c_dac", "lat")
        if indirect:
            self.bump("c_ind")
        if not clear:
            self.emit(f"{self.fn('alat_allocate')}({self.tag(a)}, {addr})")

    def predicated(self, a, c, start, indirect, is_float) -> None:
        addr = self.src(c)
        self.emit(f"lat = {self.fn('load_latency')}({addr}, {is_float!r})")
        self.emit(f"r{a} = {self.fn('mem_get')}({addr}, 0)")
        self.write_latency(a, start)
        self.bump("c_ld")
        self.bump("c_pred")
        self.bump("c_dac", "lat")
        if indirect:
            self.bump("c_ind")

    def divide(self, i: int, op: int, reads, a: int, b: int, c: int, e) -> None:
        x, y = self.src(b), self.src(c)

        def kind(reg: int, name: str, cls: str) -> str:
            """``name`` is of ``cls``: "True"/"False" for a constant."""
            if reg >= self.nreal:
                return str(type(self.const(reg)).__name__ == cls)
            return f"{name}.__class__ is {cls}"

        checks = [] if self.const(c) else [f"{y} == 0"]
        if op == OP_MOD:
            # float operands take the interpreter's int() conversions
            checks += [f"not {kind(b, x, 'int')}", f"not {kind(c, y, 'int')}"]
        checks = [t for t in checks if t != "not True"]
        if checks:
            self.emit(f"if {' or '.join(checks)}:")
            self.nest(self.exit_before, i)
        start = self.issue(reads)
        self.write_fixed(a, start + self.w * e)
        positive = f"0 <= {x} <= {_INT_MAX} and {y} > 0"
        if op == OP_MOD:
            self.emit(f"r{a} = {x} % {y} if {positive} else int_mod({x}, {y})")
            return
        floats = [kind(b, x, "float"), kind(c, y, "float")]
        if "True" in floats:
            self.emit(f"r{a} = {x} / {y}")
            return
        test = " or ".join(t for t in floats if t != "False")
        integer = f"{x} // {y} if {positive} else int_div({x}, {y})"
        self.emit(
            f"r{a} = {x} / {y} if {test} else {integer}" if test
            else f"r{a} = {integer}"
        )

    def unary(self, i: int, reads, a: int, b: int, kind) -> bool:
        x = self.src(b)
        if kind is UnOpKind.F2I:
            self.emit(f"if not -INF < {x} < INF:")
            self.nest(self.exit_before, i)
            expr = f"wrap(int({x}))"
        elif kind is UnOpKind.NEG:
            expr = f"-{x} if {x}.__class__ is float else wrap(-{x})"
        elif kind is UnOpKind.NOT:
            expr = f"0 if {x} else 1"
        elif kind is UnOpKind.I2F:
            expr = f"float({x})"
        else:
            self.exit_before(i)
            return False
        start = self.issue(reads)
        self.write_fixed(a, start + self.w)
        self.emit(f"r{a} = {expr}")
        return True

    def call(self, i: int, reads, name: str, args: tuple, result) -> None:
        callee = self.program.functions.get(name)
        if callee is None:
            self.exit_before(i)  # the interpreter raises
            return
        start = self.issue(reads)
        self.count("c_call")
        self.flush_pending()
        f = self.bind(callee, "F")
        arglist = ", ".join(self.src(r) for r in args)
        self.emit(f"{self.fn('rse_call')}({f}.nregs)")
        self.emit(f"sim.time = T + {start + 1}")
        self.emit("counters.instructions = n")
        self.emit("@flush0")  # as at a return, then the locals restart at 0
        self.emit(f"v = {self.fn('run')}({f}, [{arglist}])")
        self.emit("T = sim.time")
        self.emit("n = counters.instructions")
        self.emit(f"{self.fn('rse_ret')}()")
        # the callee advanced the clock by an unknown amount
        self.k = 0
        self.advance(start + 1, exact=False)
        if result is not None:
            message = f"void call used as value: {self.dec.instrs[self.start + i]}"
            self.emit(f"if v is None: raise MachineError({self.bind(message, 'M')})")
            self.write_fixed(result, self.w)
            self.emit(f"r{result} = v")
        self.jump(self.start + i + 1, 0, self.tail)

    # -- assembly -----------------------------------------------------------

    def build(self) -> tuple[Callable[..., tuple], int]:
        entry = self.entry
        self.wanted.append(entry)
        while self.wanted:
            start = self.wanted.pop()
            self.lines = []
            self.known, self.good = {}, set()
            self.block(start, True)
            self.leaves[start] = self.lines
        body: list[str] = []
        self._tree(sorted(self.leaves), body, "        ")
        counters = sorted(self.counters)
        flush = [f"counters.{_COUNTERS[c]} += {c}" for c in counters]
        zero = [f"{' = '.join(counters)} = 0"] if counters else []

        out = ["def region(sim, regs, ready, base, serial, T, n):"]
        add = out.append
        if self.ctx:
            add("    ctx = sim._ctx")
            for name in sorted(self.ctx):
                add(f"    {name} = ctx[{CTX.index(name)}]")
        add("    counters = sim.counters")
        load, store = self._files()
        out.extend(load)
        for reg in sorted(self.tags):
            add(f"    g{reg} = (serial, {reg})")
        out.extend("    " + z for z in zero)
        add(f"    pc = {entry}")
        add("    while True:")
        for line in body:
            stripped = line.lstrip()
            if stripped.startswith("@flush"):
                pad = line[: len(line) - len(stripped)]
                out.extend(pad + f for f in flush)
                if stripped == "@flush0":
                    out.extend(pad + z for z in zero)
            else:
                out.append(line)
        if self.fixups:
            deltas = ", ".join(f"d{j}" for j in range(len(counters)))
            rows = tuple(
                (pc, dt, dn, *(pending.get(c, 0) for c in counters))
                for pc, dt, dn, pending in self.fixups
            )
            add(f"    if pc >= {_FAULT_EXIT}:")
            add(f"        pc, dt, dn{', ' if deltas else ''}{deltas} = "
                f"{self.bind(rows, 'X')}[pc - {_FAULT_EXIT}]")
            add("        T += dt")
            add("        n -= dn")
            out.extend(f"        {c} += d{j}" for j, c in enumerate(counters))
        out.extend(store)
        out.extend("    " + f for f in flush)
        add("    return pc, T, n, None")
        source = "\n".join(out) + "\n"
        filename = f"<translated {self.dec.name}@{entry}>"
        exec(compile(source, filename, "exec"), self.ns)
        return self.ns["region"], len(out)  # type: ignore[return-value]

    def _files(self) -> tuple[list[str], list[str]]:
        """Source that loads the region's registers and ready times into
        locals, and that stores the written ones back."""
        used = sorted(self.used)
        written = sorted(self.written)
        if not used:
            return [], []
        lo, hi = used[0], used[-1]
        if hi - lo + 1 <= 2 * len(used):
            # dense: move whole slices (registers in between come along)
            span = range(lo, hi + 1)
            load = [
                f"    {', '.join(f'{p}{r}' for r in span)},"
                f" = {files}[{lo}:{hi + 1}]"
                for p, files in (("r", "regs"), ("t", "ready"))
            ]
            store = []
            if written:
                wlo, whi = written[0], written[-1]
                store = [
                    f"    {files}[{wlo}:{whi + 1}] = "
                    f"{', '.join(f'{p}{r}' for r in range(wlo, whi + 1))},"
                    for p, files in (("r", "regs"), ("t", "ready"))
                ]
            return load, store
        get = self.bind(operator.itemgetter(*used), "G")
        load = [
            f"    {', '.join(f'{p}{r}' for r in used)}, = {get}({files})"
            if len(used) > 1 else f"    {p}{lo} = {files}[{lo}]"
            for p, files in (("r", "regs"), ("t", "ready"))
        ]
        store = [
            f"    regs[{r}] = r{r}; ready[{r}] = t{r}" for r in written
        ]
        return load, store

    def _tree(self, starts: list[int], out: list[str], pad: str) -> None:
        if len(starts) == 1:
            out.extend(pad + line for line in self.leaves[starts[0]])
            return
        mid = len(starts) // 2
        out.append(f"{pad}if pc < {starts[mid]}:")
        self._tree(starts[:mid], out, pad + "    ")
        out.append(f"{pad}else:")
        self._tree(starts[mid:], out, pad + "    ")
