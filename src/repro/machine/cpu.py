"""The machine simulator: functional execution + in-order scoreboard.

Timing model
------------
Time advances in *slots* of 1/``issue_width`` cycle: every retired
instruction consumes one slot, and an instruction cannot issue before
its source registers are ready.  Result-ready times come from latencies
(ALU 1 cycle; loads from the cache model; successful ``ld.c`` **zero**
— the paper's "0 cycle checks").  Taken branches add a bubble and a
failed ``chk.a`` pays the recovery-trap penalty.  RSE spill/fill
traffic is accounted apart from the slot clock: the cycles of
``rse.call()``/``ret()`` feed only ``Counters.rse_cycles`` (Figure 11)
and never stall an instruction.  This coarse model reproduces the
relationships the evaluation section measures — many eliminated loads →
fewer data-access cycles → modestly fewer CPU cycles, with FP loads
worth more — without simulating Itanium bundles.

Functional semantics mirror the IR interpreter exactly (shared
``wrap_int``/``int_div``/``format_value`` helpers), so interpreter and
simulator outputs are directly comparable in differential tests.

Execution
---------
Each function runs in its decoded form
(:meth:`repro.target.isa.MFunction.decoded`: opcodes, resolved branch
targets, read-register tuples, constant registers) with list-indexed
register and ready files.  The activation loop over that form is
written once, as the source text ``_LOOP``, and compiled once per
process for each set of *probe points* it is specialised to: the places
where it calls out to something attached.  A :class:`Simulator` takes
the variant for exactly what it has attached, as ``_activate``.  With
nothing attached that is the tiering loop: no hooks, and hot loops and
small hot functions run as generated Python
(:mod:`repro.machine.translate`).  With a trace sink, ``RunProfile``,
``FaultInjector`` or ``HostProfiler`` attached it is a loop that keeps
``counters.instructions`` live, never translates and calls only the
hooks that exist (:class:`Probe`): nine variants in all.  Tracing and
profiling never change simulator state, so with only those attached
every variant produces identical counters.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass, field
from math import inf
from types import MethodType, SimpleNamespace
from typing import Callable, Optional, Union

from repro.errors import ConfigError, MachineError
from repro.ir.expr import UnOpKind
from repro.ir.interp import HEAP_BASE, STACK_BASE, int_div, int_mod, wrap_int
from repro.machine import translate
from repro.machine.alat import ALAT, ALATConfig
from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.machine.counters import Counters
from repro.machine.rse import RegisterStackEngine, RSEConfig
from repro.obs.profile import RunProfile
from repro.obs.trace import NULL_TRACE, TraceContext
from repro.target import isa
from repro.target.isa import OP_MOD, MFunction, MProgram

# read only by the activation loop's source text (_LOOP)
from repro.errors import MachineLimitExceeded  # noqa: F401
from repro.ir.interp import format_value  # noqa: F401
from repro.machine.translate import OP_REGION  # noqa: F401

Value = Union[int, float]

#: signed 64-bit range; an integer result outside it wraps
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1


@dataclass
class MachineConfig:
    """Microarchitectural parameters."""

    issue_width: int = 3
    branch_penalty: int = 1  # cycles per taken branch
    #: chk.a failure: light-weight trap + branch to/from recovery
    recovery_penalty: int = 30
    alat: ALATConfig = field(default_factory=ALATConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    rse: RSEConfig = field(default_factory=RSEConfig)
    max_instructions: int = 200_000_000

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigError(
                f"issue_width must be >= 1, got {self.issue_width}"
            )
        for name in ("branch_penalty", "recovery_penalty"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.max_instructions < 1:
            raise ConfigError(
                f"max_instructions must be >= 1, got {self.max_instructions}"
            )


class MachineResult:
    """Outcome of one simulated run."""

    def __init__(
        self,
        exit_value: int,
        output: list[str],
        counters: Counters,
        alat: ALAT,
        cache: CacheHierarchy,
        rse: RegisterStackEngine,
        profile: Optional[RunProfile] = None,
    ) -> None:
        self.exit_value = exit_value
        self.output = output
        self.counters = counters
        self.alat_stats = alat.stats
        self.cache_stats = cache.stats
        self.rse_stats = rse.stats
        #: attribution data (``None`` unless the run was profiled)
        self.profile = profile

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)

    def __repr__(self) -> str:
        return (
            f"MachineResult(exit={self.exit_value}, "
            f"cycles={self.counters.cpu_cycles}, "
            f"loads={self.counters.retired_loads})"
        )


def _bad_address(value: Value, mf: MFunction) -> MachineError:
    if isinstance(value, float):
        return MachineError(f"float used as address in {mf.name}")
    return MachineError(f"invalid address {value} in {mf.name}")


def _overflow(mf: MFunction) -> MachineError:
    """Guest recursion deeper than the host stack holds."""
    return MachineError(f"call to {mf.name} overflowed the host stack")


def _divide(op: int, lhs: Value, rhs: Value) -> Value:
    """``OP_DIV`` / ``OP_MOD`` with IR semantics (C-style, wrapped)."""
    if op == OP_MOD:
        if rhs == 0:
            raise MachineError("integer modulo by zero")
        return int_mod(int(lhs), int(rhs))
    if isinstance(lhs, float) or isinstance(rhs, float):
        if rhs == 0:
            raise MachineError("float division by zero")
        return lhs / rhs
    if rhs == 0:
        raise MachineError("integer division by zero")
    return int_div(lhs, rhs)


def _unary(kind: UnOpKind, v: Value) -> Value:
    if kind is UnOpKind.NEG:
        return -v if isinstance(v, float) else wrap_int(-v)
    if kind is UnOpKind.NOT:
        return 0 if v else 1
    if kind is UnOpKind.I2F:
        return float(v)
    if kind is UnOpKind.F2I:
        if not -inf < v < inf:
            raise MachineError(f"float-to-int conversion of {v}")
        return wrap_int(int(v))
    raise MachineError(f"unsupported unary op {kind}")


#: The activation loop, written once.  A line that ends in ``# [p q]``
#: is kept only in the variants with point ``p`` or ``q``, one that ends
#: in ``# [!p]`` only in those without ``p``; a dropped line that opens
#: a block drops the block.  The points are ``tier`` (nothing attached)
#: or ``probe`` (anything), plus any of :class:`Probe`'s ``step``,
#: ``profile`` and ``host``.  Linters cannot see into the text, so
#: ``tests/test_sim_reference.py`` runs every variant against the loops
#: it replaced (``tests/reference_sim.py``).
_LOOP = '''
def activation(self, mf, args):
    """One activation of ``mf``.

    The slot clock and the retired count live in locals and are
    written back at calls, returns and faults (``in_call`` keeps a
    callee's or a region's fault from being overwritten with the
    caller's stale copies); with anything attached the count is also
    written back at every instruction, for the observers.  With nothing
    attached, calls of the function and taken back edges to each header
    are counted; at ``translate.THRESHOLD`` the function (when small) or
    the loop is translated, and the entry op at its first instruction
    runs the translation.  Taken back edges also pick up the tier's code
    again after a region handed an instruction back to the decoded
    code."""
    probe = self._probe  # [probe]
    dec, regs, ready, serial, base = self._push_frame(mf, args)  # [!host]
    dec, regs, ready, serial, base = probe.push_frame(mf, args)  # [host]
    tier = dec.translations.get(self._tier_key)  # [tier]
    if tier is None or tier.run is not self._run_token:  # [tier]
        tier = translate.tier(dec, self._tier_key, self._run_token)
    threshold = translate.THRESHOLD  # [tier]
    tier.calls += 1  # [tier]
    if tier.calls == threshold and len(dec.code) <= translate.MAX_FUNCTION:  # [tier]
        tier.translate_function(self)
    code = tier.code  # [tier]
    heat = tier.heat  # [tier]
    code = dec.code  # [probe]
    instrs = dec.instrs  # [profile host]
    mem = self.mem
    counters = self.counters
    alat = self.alat  # [!host]
    alat = probe.alat  # [host]
    snoop_store = alat.snoop_store
    load_latency = self.cache.load_latency  # [!host]
    store_touch = self.cache.store_touch  # [!host]
    load_latency = probe.load_latency  # [host]
    store_touch = probe.store_touch  # [host]
    step = probe.step  # [step]
    issued = probe.issued  # [profile host]
    done = probe.done  # [host]
    penalty, data, bind = probe.penalty, probe.data, probe.bind  # [profile]
    w = self._w
    bubble = self.config.branch_penalty * w
    recovery = self.config.recovery_penalty
    limit = self.config.max_instructions
    time = self.time
    n = counters.instructions
    pc = 0
    in_call = False
    probe.enter()  # [host]
    try:
        while True:
            try:
                op, reads, a, b, c, d, e = code[pc]
            except IndexError:
                raise MachineError(dec.fault_at(pc)) from None
            instr = instrs[pc]  # [profile host]
            pc += 1
            n += 1
            counters.instructions = n  # [probe]
            if n > limit:
                raise MachineLimitExceeded(f"exceeded {limit} instructions")
            step()  # [step]
            # issue: wait for source operands, take one slot
            t0 = time  # [profile host]
            start = time
            for r in reads:
                if ready[r] > start:
                    start = ready[r]
            time = start + 1
            # operand-stall + issue slots; penalty slots are added where
            # they are charged, so the per-instruction sums tile the slot
            # clock exactly (a callee attributes its own instructions)
            issued(instr, time - t0)  # [profile host]

            if op == OP_ARITH:
                x = d(regs[b], regs[c])
                if not _INT_MIN <= x <= _INT_MAX and isinstance(x, int):
                    x = wrap_int(x)
                regs[a] = x
                ready[a] = start + w * e
            elif op == OP_CMP:
                regs[a] = 1 if d(regs[b], regs[c]) else 0
                ready[a] = start + w * e
            elif op == OP_MOV:
                regs[a] = regs[b]
                ready[a] = start + w
            elif op == OP_LD:
                addr = regs[b]
                if addr <= 0 or isinstance(addr, float):
                    raise _bad_address(addr, mf)
                regs[a] = mem.get(addr, 0)
                latency = load_latency(addr, d)
                ready[a] = start + w * latency
                counters.retired_loads += 1
                counters.data_access_cycles += latency
                data(instr, latency)  # [profile]
                if c:
                    counters.retired_indirect_loads += 1
            elif op == OP_LEA:
                regs[a] = base + b
                ready[a] = start + w
            elif op == OP_BR:
                if a < pc:  # [tier]
                    heat[a] += 1
                    if heat[a] == threshold:
                        tier.translate_loop(self, a)
                    code = tier.code
                pc = a
                counters.branches += 1
                time += bubble
                penalty(instr, bubble)  # [profile]
            elif op == OP_BRNZ:
                counters.branches += 1
                if regs[a]:
                    if b < pc:  # [tier]
                        heat[b] += 1
                        if heat[b] == threshold:
                            tier.translate_loop(self, b)
                        code = tier.code
                    pc = b
                    time += bubble
                    penalty(instr, bubble)  # [profile]
            elif op == OP_ST:
                addr = regs[a]
                if addr <= 0 or isinstance(addr, float):
                    raise _bad_address(addr, mf)
                mem[addr] = regs[b]
                snoop_store(addr)
                store_touch(addr)
                counters.retired_stores += 1
            elif op == OP_LD_A or op == OP_LD_SA:
                addr = regs[b]
                if addr <= 0 or isinstance(addr, float):
                    if op == OP_LD_A:
                        raise _bad_address(addr, mf)
                    # ld.sa never faults: a bad address defers (NaT
                    # -> dummy 0) and arms no entry, so later checks
                    # reload
                    regs[a] = 0.0 if d else 0
                    ready[a] = start + w
                    done(instr)  # [host]
                    continue
                regs[a] = mem.get(addr, 0)
                latency = load_latency(addr, d)
                ready[a] = start + w * latency
                counters.retired_loads += 1
                counters.data_access_cycles += latency
                data(instr, latency)  # [profile]
                if c:
                    counters.retired_indirect_loads += 1
                counters.retired_advanced_loads += 1
                bind((serial, a), instr)  # [profile]
                alat.allocate((serial, a), addr)
            elif op == OP_LDC:
                counters.check_instructions += 1
                tag = (serial, a)
                if alat.check(tag, c):
                    # Check succeeded: zero cost, the register
                    # already holds the value (the paper's
                    # "processed like no-ops").
                    probe.check(tag, instr, True)  # [profile]
                    done(instr)  # [host]
                    continue
                probe.check(tag, instr, False)  # [profile]
                counters.check_failures += 1
                addr = regs[b]
                if addr <= 0 or isinstance(addr, float):
                    # Check reached before any advanced load ran on
                    # this path: the address register is dead; so
                    # is the result.
                    regs[a] = 0.0 if e else 0
                    done(instr)  # [host]
                    continue
                regs[a] = mem.get(addr, 0)
                latency = load_latency(addr, e)
                ready[a] = start + w * latency
                counters.retired_loads += 1
                counters.data_access_cycles += latency
                data(instr, latency)  # [profile]
                if d:
                    counters.retired_indirect_loads += 1
                if not c:
                    bind(tag, instr)  # [profile]
                    alat.allocate(tag, addr)
            elif op == OP_CHKA:
                counters.check_instructions += 1
                if not alat.check((serial, a), c):
                    probe.check((serial, a), instr, False)  # [profile]
                    counters.check_failures += 1
                    counters.recovery_cycles += recovery
                    time += recovery * w
                    penalty(instr, recovery * w)  # [profile]
                    probe.recovery((serial, a), instr, recovery)  # [profile]
                    pc = b
                else:  # [profile]
                    probe.check((serial, a), instr, True)
            elif op == OP_PREDLD:
                if regs[b]:
                    addr = regs[c]
                    if addr <= 0 or isinstance(addr, float):
                        raise _bad_address(addr, mf)
                    regs[a] = mem.get(addr, 0)
                    latency = load_latency(addr, e)
                    ready[a] = start + w * latency
                    counters.retired_loads += 1
                    counters.predicated_reloads += 1
                    counters.data_access_cycles += latency
                    data(instr, latency)  # [profile]
                    if d:
                        counters.retired_indirect_loads += 1
            elif op == OP_MOD or op == OP_DIV:
                regs[a] = _divide(op, regs[b], regs[c])
                ready[a] = start + w * e
            elif op == OP_CALL:
                counters.calls += 1
                callee = self.program.function(a)
                self.rse.call(callee.nregs)
                call_args = [regs[r] for r in b]
                self.time = time
                counters.instructions = n
                in_call = True
                result = self._activate(callee, call_args)  # [!host]
                result = probe.call(callee, call_args)  # [host]
                in_call = False
                time = self.time
                n = counters.instructions
                self.rse.ret()
                if c is not None:
                    if result is None:
                        raise MachineError(
                            f"void call used as value: {dec.instrs[pc - 1]}"
                        )
                    regs[c] = result
                    ready[c] = time + w
            elif op == OP_RET:
                self.time = time
                counters.instructions = n
                done(instr)  # [host]
                return regs[a] if a is not None else None
            elif op == OP_REGION:  # [tier]
                # not an instruction: undo the issue and run the
                # translation from this pc
                in_call = True
                pc, time, n, result = a(
                    self, regs, ready, base, serial, start, n - 1
                )
                in_call = False
                if pc < 0:
                    if pc == -1:
                        self.time = time
                        counters.instructions = n
                        return result
                    # the region handed back an instruction it does
                    # not run (a fault, or the block that crosses the
                    # limit): run it on the decoded code, up to the
                    # next taken back edge
                    pc = -2 - pc
                    code = dec.code
            elif op == OP_INVALA:
                counters.explicit_invalidations += 1
                self.alat.invalidate_entry((serial, a))
            elif op == OP_UN:
                regs[a] = _unary(c, regs[b])
                ready[a] = start + w
            elif op == OP_ALLOC:
                words = int(regs[b])
                if words < 0:
                    raise MachineError(f"negative allocation: {dec.instrs[pc - 1]}")
                regs[a] = self._heap_top
                self._heap_top += max(1, words)
                ready[a] = start + w
            elif op == OP_PRINT:
                self.output.append(format_value(regs[a]))
            else:  # OP_FAULT: the decoder's message
                raise MachineError(a)
            done(instr)  # [host]
    except BaseException as exc:
        if not in_call:
            self.time = time
            counters.instructions = n
        if exc.__class__ is RecursionError:
            raise _overflow(mf) from None
        raise
    finally:
        self._pop_frame(mf, base)  # [!host]
        probe.pop_frame(mf, base)  # [host]
'''


#: the compiled variants of ``_LOOP``, by their points
_LOOPS: dict[frozenset[str], Callable] = {}


def _loop(points: frozenset[str]) -> Callable:
    """``_LOOP`` with only the lines of ``points``, compiled on first
    use."""
    fn = _LOOPS.get(points)
    if fn is not None:
        return fn
    lines: list[str] = []
    cut = -1  # the indentation of a dropped block's header
    for line in _LOOP.splitlines():
        indent = len(line) - len(line.lstrip())
        if cut >= 0 and (indent > cut or not line.strip()):
            continue
        cut = -1
        code, _, marker = line.partition("  # [")
        if marker:
            names = marker.rstrip("]")
            if names.startswith("!"):
                keep = points.isdisjoint(names[1:].split())
            else:
                keep = not points.isdisjoint(names.split())
            if not keep:
                cut = indent if code.endswith(":") else -1
                continue
            line = code
        lines.append(line)
    source = "\n".join(lines) + "\n"
    filename = f"<activation {' '.join(sorted(points))}>"
    # for tracebacks through the loop
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    scope: dict[str, Callable] = {}
    # the loop reads the opcodes and this module's names, as bound now
    exec(compile(source, filename, "exec"), {**vars(isa), **globals()}, scope)
    fn = _LOOPS[points] = scope["activation"]
    return fn


class Probe:
    """The hooks of the probed loop, composed from what is attached.

    ``points`` holds ``probe`` and the probe points that exist; the loop
    is specialised to them, so it calls only these:

    * ``step``: ``step()`` before issue, for trace snapshots and a
      flushing injector's context switches (``step`` is None without);
    * ``profile`` (``RunProfile`` attribution): ``issued(instr, slots)``
      after issue (``retire``), and ``penalty``, ``data``, ``check``,
      ``recovery`` and ``bind`` where those are charged;
    * ``host`` (``HostProfiler`` buckets, chained by timestamp):
      ``enter()`` at an activation's start, ``issued`` (the
      ``sim.issue`` bucket, after ``retire``), ``done(instr)`` after
      execution (``sim.op.*``), ``call`` in place of the activation, and
      timed stand-ins for the ALAT (``alat``), the cache
      (``load_latency``, ``store_touch``) and frame setup
      (``push_frame``, ``pop_frame``).
    """

    def __init__(self, sim: "Simulator") -> None:
        counters, obs, alat, cache = sim.counters, sim.obs, sim.alat, sim.cache
        snap = obs.snapshot_every
        inj = sim.injector
        if inj is not None and not inj.flushes:
            # No per-instruction call: context_switch() would always
            # return False without drawing a random number.
            inj = None
        prof = sim.profile
        hp = sim.host

        def snapshot() -> None:
            if counters.instructions % snap == 0:
                obs.event("counters.snapshot", **counters.as_dict())

        def context_switch() -> None:
            if inj.context_switch():
                alat.chaos_flush()

        def snapshot_and_context_switch() -> None:
            snapshot()
            context_switch()

        if snap and inj is not None:
            self.step = snapshot_and_context_switch
        elif snap:
            self.step = snapshot
        elif inj is not None:
            self.step = context_switch
        else:
            self.step = None
        self.points = frozenset(
            name for name, present in (
                ("probe", True), ("step", self.step is not None),
                ("profile", prof is not None), ("host", hp is not None),
            ) if present
        )
        retire = None
        if prof is not None:
            self.penalty, self.data, self.bind = (
                prof.add_slots, prof.add_data, prof.bind_tag
            )
            self.check, self.recovery = prof.check, prof.recovery
            retire = self.issued = prof.retire
        if hp is None:
            return

        # Host buckets chain timestamps: each mark ends one bucket
        # segment and starts the next, so profiled time tiles the loop.
        # A call saves its caller's mark; the callee's instructions
        # bucket themselves and the call's own bucket defers them.
        now = hp.now
        mark = 0

        def enter() -> None:
            nonlocal mark
            mark = now()

        def issued(instr, slots: int) -> None:
            nonlocal mark
            if retire is not None:
                retire(instr, slots)
            t = now()
            hp.add("sim.issue", t - mark)
            hp.take_sub()
            mark = t

        def done(instr) -> None:
            nonlocal mark
            t = now()
            hp.add(hp.op_key(instr.__class__), t - mark - hp.take_sub())
            mark = t

        def call(callee: MFunction, args: list[Value]) -> Optional[Value]:
            nonlocal mark
            saved = mark
            t = now()
            result = sim._activate(callee, args)
            hp.take_sub()
            hp.defer(now() - t)
            mark = saved
            return result

        self.issued, self.done, self.enter, self.call = issued, done, enter, call
        self.push_frame = hp.timed(sim._push_frame, "sim.frame", nested=False)
        self.pop_frame = hp.timed(sim._pop_frame, "sim.frame", nested=False)
        self.alat = SimpleNamespace(
            check=hp.timed(alat.check, "sim.alat"),
            allocate=hp.timed(alat.allocate, "sim.alat"),
            snoop_store=hp.timed(alat.snoop_store, "sim.alat"),
        )
        self.load_latency = hp.timed(cache.load_latency, "sim.cache")
        self.store_touch = hp.timed(cache.store_touch, "sim.cache")


class Simulator:
    """Runs one MProgram."""

    def __init__(
        self,
        program: MProgram,
        config: Optional[MachineConfig] = None,
        obs: Optional[TraceContext] = None,
        profile: bool = False,
        injector=None,
        host_profiler=None,
    ) -> None:
        #: optional :class:`repro.obs.telemetry.HostProfiler` — buckets
        #: *host* wall-clock by simulated-opcode class.  Like tracing
        #: and guest profiling, it never mutates simulator state, so
        #: simulated counters are bit-identical with it on or off.
        self.host = host_profiler
        _t0 = host_profiler.now() if host_profiler is not None else 0
        self.program = program
        self.config = config or MachineConfig()
        self.obs = obs if obs is not None else NULL_TRACE
        self.counters = Counters()
        #: optional :class:`repro.chaos.FaultInjector` (duck-typed) —
        #: clamps ALAT/cache geometry and injects ALAT faults; all its
        #: faults are safe-by-construction (they only remove entries or
        #: slow paths down, never fabricate a check hit).
        self.injector = injector
        self.alat = ALAT(self.config.alat, injector=injector)
        self.cache = CacheHierarchy(self.config.cache, injector=injector)
        self.rse = RegisterStackEngine(self.config.rse)
        self.mem: dict[int, Value] = dict(program.data)
        self.output: list[str] = []
        self.time = 0  # slots (1/issue_width cycles)
        self._stack_top = STACK_BASE
        self._heap_top = HEAP_BASE
        self._serial = 0
        self._w = self.config.issue_width
        if self.obs.enabled:
            self._attach_observers()
        #: attribution collector (``None`` unless profiling)
        self.profile: Optional[RunProfile] = None
        if profile:
            self.profile = RunProfile(program, self._w)
            self._attach_profile_observer()
        # The loop is chosen once: the tiering loop with nothing
        # attached, else the probed loop for exactly what is attached.
        probed = (
            self.obs.enabled or profile or injector is not None
            or host_profiler is not None
        )
        self._probe = Probe(self) if probed else None
        #: one activation: the loop's variant for what is attached
        self._activate = MethodType(
            _loop(self._probe.points if probed else frozenset({"tier"})), self
        )
        config = self.config
        #: tier-up counts are per run; translations are kept
        self._run_token = object()
        #: what a translation folds (its key on the DecodedFunction)
        self._tier_key = (
            self._w, config.branch_penalty, config.recovery_penalty,
            config.max_instructions,
        )
        #: what a translated region calls
        self._ctx = translate.context(self)
        if host_profiler is not None:
            host_profiler.add("sim.init", host_profiler.now() - _t0)

    def _attach_observers(self) -> None:
        """Hook the machine components into the trace context.

        Observers are only installed when tracing is enabled; otherwise
        the components keep ``observer = None`` (events never mutate
        simulator state, so simulated counters are identical either
        way).  The probed loop keeps ``counters.instructions`` live, so
        every event carries the retiring instruction's index.
        """
        obs = self.obs
        counters = self.counters

        def machine_observer(name: str, **fields) -> None:
            obs.event(name, instr=counters.instructions, **fields)

        self.alat.observer = machine_observer
        self.cache.observer = machine_observer
        self.rse.observer = machine_observer

    def _attach_profile_observer(self) -> None:
        """Route ALAT events into the profiler (collisions/evictions are
        store-initiated, so only the observer channel carries the tag of
        the entry that died).  Composes with the trace observer when
        both are active."""
        prof = self.profile
        assert prof is not None
        prev = self.alat.observer

        def profile_observer(name: str, **fields) -> None:
            if prev is not None:
                prev(name, **fields)
            prof.alat_event(name, fields)

        self.alat.observer = profile_observer

    # -- public API -----------------------------------------------------

    def run(self, args: Optional[list[Value]] = None) -> MachineResult:
        hp = self.host
        _t0 = hp.now() if hp is not None else 0
        self.obs.event(
            "sim.begin", program=self.program.name, args=list(args or [])
        )
        if self.injector is not None and self.obs.enabled:
            # Static (geometry-clamp) faults were applied at component
            # construction; surface each as one chaos.fault row so the
            # trace accounts for every injected fault, dynamic or not.
            for kind, detail in self.injector.static_faults:
                self.obs.event("chaos.fault", kind=kind, **detail)
        main = self.program.function("main")
        self.rse.call(main.nregs)
        if hp is not None:
            hp.add("sim.run", hp.now() - _t0)
        try:
            result = self._activate(main, list(args or []))
        except MachineError as exc:
            exc.output = tuple(self.output)
            raise
        if hp is not None:
            _t0 = hp.now()
        self.counters.rse_cycles = self.rse.stats.rse_cycles
        self.counters.cpu_cycles = self.time // self._w
        if self.profile is not None:
            self.profile.total_slots = self.time
        exit_value = int(result) if result is not None else 0
        if self.obs.enabled:
            self.obs.event(
                "sim.end",
                program=self.program.name,
                exit_value=exit_value,
                cycles=self.counters.cpu_cycles,
                instructions=self.counters.instructions,
            )
        if hp is not None:
            hp.add("sim.run", hp.now() - _t0)
        return MachineResult(
            exit_value, self.output, self.counters, self.alat, self.cache,
            self.rse, profile=self.profile,
        )

    # -- activations ------------------------------------------------------

    def _push_frame(self, mf: MFunction, args: list[Value]) -> tuple:
        """Start an activation of ``mf``: fresh register and ready files,
        zeroed frame memory (MiniC semantics).  Returns ``(decoded,
        regs, ready, serial, frame_base)``."""
        dec = mf.decoded()
        regs = dec.registers.copy()
        # Arguments beyond the registers the code names are never read.
        n = min(len(args), dec.register_count)
        regs[:n] = args[:n]
        self._serial += 1
        base = self._stack_top
        self._stack_top += mf.frame_words
        mem = self.mem
        for w in range(mf.frame_words):
            mem[base + w] = 0
        # Ready time 0 never stalls: the slot clock only grows.
        return dec, regs, [0] * len(regs), self._serial, base

    def _pop_frame(self, mf: MFunction, base: int) -> None:
        mem = self.mem
        for w in range(mf.frame_words):
            mem.pop(base + w, None)
        self._stack_top = base
