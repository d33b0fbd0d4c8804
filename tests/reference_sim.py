"""The simulator's two activation loops as they stood before they were
built from one definition, kept as the reference for that definition.

``ReferenceSimulator`` is :class:`repro.machine.cpu.Simulator` with the
loops it replaced: ``_run_fast`` (nothing attached: no hooks, tier-up
counts, translated regions), ``_run_probed`` (anything attached: the
same dispatch, every instrumentation point through one :class:`Probe`,
never translated) and ``_execute_rare``, the opcodes both handed off.
``tests/test_sim_reference.py`` runs it beside every variant of the one
loop and requires the same state, errors, profiles, host buckets and
trace events.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MachineError, MachineLimitExceeded
from repro.ir.interp import format_value, wrap_int
from repro.machine import translate
from repro.machine.cpu import (
    _INT_MAX,
    _INT_MIN,
    Simulator,
    Value,
    _bad_address,
    _divide,
    _overflow,
    _unary,
)
from repro.machine.translate import OP_REGION
from repro.target.isa import (
    OP_ALLOC,
    OP_ARITH,
    OP_BR,
    OP_BRNZ,
    OP_CALL,
    OP_CHKA,
    OP_CMP,
    OP_DIV,
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
    MFunction,
)


def _nop(*_args) -> None:
    """A probe hook with nothing attached behind it."""


class Probe:
    """The probed loop's one instrumentation seam.

    Composes whatever the simulator has attached — trace snapshots,
    ``RunProfile`` attribution, ``FaultInjector`` context switches and
    ``HostProfiler`` buckets — into the hooks the loop calls:

    * per instruction: ``step()`` before issue, ``issued(instr, slots)``
      after it and ``done(instr)`` after execution; each is None when
      nothing is attached behind it;
    * per event (guest attribution, no-ops without a profile):
      ``penalty``, ``data``, ``check``, ``recovery`` and ``bind``;
    * in place of component calls: ``alat_check``, ``alat_allocate``,
      ``alat_snoop``, ``load_latency``, ``store_touch``, ``call``,
      ``push_frame`` and ``pop_frame`` (timed into host buckets under a
      host profiler, otherwise the plain methods), plus ``enter()``,
      which starts an activation's host timeline (None without one).
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

        self.penalty = prof.add_slots if prof is not None else _nop
        self.data = prof.add_data if prof is not None else _nop
        self.check = prof.check if prof is not None else _nop
        self.recovery = prof.recovery if prof is not None else _nop
        self.bind = prof.bind_tag if prof is not None else _nop
        retire = prof.retire if prof is not None else None

        if hp is None:
            self.issued = retire
            self.done = None
            self.enter = None
            self.call = sim._run_probed
            self.push_frame, self.pop_frame = sim._push_frame, sim._pop_frame
            self.alat_check, self.alat_allocate = alat.check, alat.allocate
            self.alat_snoop = alat.snoop_store
            self.load_latency = cache.load_latency
            self.store_touch = cache.store_touch
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
            result = sim._run_probed(callee, args)
            hp.take_sub()
            hp.defer(now() - t)
            mark = saved
            return result

        self.issued, self.done, self.enter, self.call = issued, done, enter, call
        self.push_frame = hp.timed(sim._push_frame, "sim.frame", nested=False)
        self.pop_frame = hp.timed(sim._pop_frame, "sim.frame", nested=False)
        self.alat_check = hp.timed(alat.check, "sim.alat")
        self.alat_allocate = hp.timed(alat.allocate, "sim.alat")
        self.alat_snoop = hp.timed(alat.snoop_store, "sim.alat")
        self.load_latency = hp.timed(cache.load_latency, "sim.cache")
        self.store_touch = hp.timed(cache.store_touch, "sim.cache")


class ReferenceSimulator(Simulator):
    """A :class:`Simulator` that runs the loops it replaced."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        probed = self._probe is not None
        self._probe = Probe(self) if probed else None
        self._activate = self._run_probed if probed else self._run_fast
        #: a translated region calls ``_run_fast``
        self._ctx = translate.context(self)

    def _run_fast(self, mf: MFunction, args: list[Value]) -> Optional[Value]:
        """One activation on the hook-free loop.

        The slot clock and the retired count live in locals and are
        written back at calls, returns and faults (``in_call`` keeps a
        callee's or a region's fault from being overwritten with the
        caller's stale copies).  Calls of the function and taken back
        edges to each header are counted; at ``translate.THRESHOLD`` the
        function (when small) or the loop is translated, and the entry
        op at its first instruction runs the translation.  Taken back
        edges also pick up the tier's code again after a region handed
        an instruction back to the decoded code."""
        dec, regs, ready, serial, base = self._push_frame(mf, args)
        tier = dec.translations.get(self._tier_key)
        if tier is None or tier.run is not self._run_token:
            tier = translate.tier(dec, self._tier_key, self._run_token)
        threshold = translate.THRESHOLD
        tier.calls += 1
        if tier.calls == threshold and len(dec.code) <= translate.MAX_FUNCTION:
            tier.translate_function(self)
        code = tier.code
        heat = tier.heat
        mem = self.mem
        counters = self.counters
        alat = self.alat
        snoop_store = alat.snoop_store
        load_latency = self.cache.load_latency
        store_touch = self.cache.store_touch
        w = self._w
        bubble = self.config.branch_penalty * w
        recovery = self.config.recovery_penalty
        limit = self.config.max_instructions
        time = self.time
        n = counters.instructions
        pc = 0
        in_call = False
        try:
            while True:
                try:
                    op, reads, a, b, c, d, e = code[pc]
                except IndexError:
                    raise MachineError(dec.fault_at(pc)) from None
                pc += 1
                n += 1
                if n > limit:
                    raise MachineLimitExceeded(f"exceeded {limit} instructions")
                # issue: wait for source operands, take one slot
                start = time
                for r in reads:
                    if ready[r] > start:
                        start = ready[r]
                time = start + 1

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
                    if c:
                        counters.retired_indirect_loads += 1
                elif op == OP_LEA:
                    regs[a] = base + b
                    ready[a] = start + w
                elif op == OP_BR:
                    if a < pc:
                        heat[a] += 1
                        if heat[a] == threshold:
                            tier.translate_loop(self, a)
                        code = tier.code
                    pc = a
                    counters.branches += 1
                    time += bubble
                elif op == OP_BRNZ:
                    counters.branches += 1
                    if regs[a]:
                        if b < pc:
                            heat[b] += 1
                            if heat[b] == threshold:
                                tier.translate_loop(self, b)
                            code = tier.code
                        pc = b
                        time += bubble
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
                        continue
                    regs[a] = mem.get(addr, 0)
                    latency = load_latency(addr, d)
                    ready[a] = start + w * latency
                    counters.retired_loads += 1
                    counters.data_access_cycles += latency
                    if c:
                        counters.retired_indirect_loads += 1
                    counters.retired_advanced_loads += 1
                    alat.allocate((serial, a), addr)
                elif op == OP_LDC:
                    counters.check_instructions += 1
                    tag = (serial, a)
                    if alat.check(tag, c):
                        # Check succeeded: zero cost, the register
                        # already holds the value (the paper's
                        # "processed like no-ops").
                        continue
                    counters.check_failures += 1
                    addr = regs[b]
                    if addr <= 0 or isinstance(addr, float):
                        # Check reached before any advanced load ran on
                        # this path: the address register is dead; so
                        # is the result.
                        regs[a] = 0.0 if e else 0
                        continue
                    regs[a] = mem.get(addr, 0)
                    latency = load_latency(addr, e)
                    ready[a] = start + w * latency
                    counters.retired_loads += 1
                    counters.data_access_cycles += latency
                    if d:
                        counters.retired_indirect_loads += 1
                    if not c:
                        alat.allocate(tag, addr)
                elif op == OP_CHKA:
                    counters.check_instructions += 1
                    if not alat.check((serial, a), c):
                        counters.check_failures += 1
                        counters.recovery_cycles += recovery
                        time += recovery * w
                        pc = b
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
                    result = self._run_fast(callee, call_args)
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
                    return regs[a] if a is not None else None
                elif op == OP_REGION:
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
                else:
                    self._execute_rare(dec, pc, regs, ready, serial, start)
        except BaseException as exc:
            if not in_call:
                self.time = time
                counters.instructions = n
            if exc.__class__ is RecursionError:
                raise _overflow(mf) from None
            raise
        finally:
            self._pop_frame(mf, base)

    def _run_probed(self, mf: MFunction, args: list[Value]) -> Optional[Value]:
        """One activation on the probed loop: :meth:`_run_fast`'s
        dispatch with every instrumentation point going through the
        :class:`Probe`.  ``counters.instructions`` stays live here, so
        observers and snapshots see the retiring instruction."""
        probe = self._probe
        dec, regs, ready, serial, base = probe.push_frame(mf, args)
        code, instrs = dec.code, dec.instrs
        mem = self.mem
        counters = self.counters
        step, issued, done = probe.step, probe.issued, probe.done
        penalty, data, bind = probe.penalty, probe.data, probe.bind
        alat_check, alat_allocate = probe.alat_check, probe.alat_allocate
        alat_snoop = probe.alat_snoop
        load_latency, store_touch = probe.load_latency, probe.store_touch
        w = self._w
        bubble = self.config.branch_penalty * w
        recovery = self.config.recovery_penalty
        limit = self.config.max_instructions
        time = self.time
        pc = 0
        in_call = False
        if probe.enter is not None:
            probe.enter()
        try:
            while True:
                try:
                    op, reads, a, b, c, d, e = code[pc]
                except IndexError:
                    raise MachineError(dec.fault_at(pc)) from None
                instr = instrs[pc]
                pc += 1
                counters.instructions += 1
                if counters.instructions > limit:
                    raise MachineLimitExceeded(f"exceeded {limit} instructions")
                if step is not None:
                    step()
                t0 = time
                start = time
                for r in reads:
                    if ready[r] > start:
                        start = ready[r]
                time = start + 1
                if issued is not None:
                    # operand-stall + issue slots; penalty slots are
                    # added where they are charged, so the per-instruction
                    # sums tile the slot clock exactly (a callee
                    # attributes its own instructions)
                    issued(instr, time - t0)

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
                elif op == OP_LD or op == OP_LD_A or op == OP_LD_SA:
                    addr = regs[b]
                    if addr <= 0 or isinstance(addr, float):
                        if op != OP_LD_SA:
                            raise _bad_address(addr, mf)
                        regs[a] = 0.0 if d else 0
                        ready[a] = start + w
                    else:
                        regs[a] = mem.get(addr, 0)
                        latency = load_latency(addr, d)
                        ready[a] = start + w * latency
                        counters.retired_loads += 1
                        counters.data_access_cycles += latency
                        data(instr, latency)
                        if c:
                            counters.retired_indirect_loads += 1
                        if op != OP_LD:
                            counters.retired_advanced_loads += 1
                            bind((serial, a), instr)
                            alat_allocate((serial, a), addr)
                elif op == OP_LEA:
                    regs[a] = base + b
                    ready[a] = start + w
                elif op == OP_BR:
                    pc = a
                    counters.branches += 1
                    time += bubble
                    penalty(instr, bubble)
                elif op == OP_BRNZ:
                    counters.branches += 1
                    if regs[a]:
                        pc = b
                        time += bubble
                        penalty(instr, bubble)
                elif op == OP_ST:
                    addr = regs[a]
                    if addr <= 0 or isinstance(addr, float):
                        raise _bad_address(addr, mf)
                    mem[addr] = regs[b]
                    alat_snoop(addr)
                    store_touch(addr)
                    counters.retired_stores += 1
                elif op == OP_LDC:
                    counters.check_instructions += 1
                    tag = (serial, a)
                    hit = alat_check(tag, c)
                    probe.check(tag, instr, hit)
                    if not hit:
                        counters.check_failures += 1
                        addr = regs[b]
                        if addr <= 0 or isinstance(addr, float):
                            regs[a] = 0.0 if e else 0
                        else:
                            regs[a] = mem.get(addr, 0)
                            latency = load_latency(addr, e)
                            ready[a] = start + w * latency
                            counters.retired_loads += 1
                            counters.data_access_cycles += latency
                            data(instr, latency)
                            if d:
                                counters.retired_indirect_loads += 1
                            if not c:
                                bind(tag, instr)
                                alat_allocate(tag, addr)
                elif op == OP_CHKA:
                    counters.check_instructions += 1
                    tag = (serial, a)
                    hit = alat_check(tag, c)
                    probe.check(tag, instr, hit)
                    if not hit:
                        counters.check_failures += 1
                        counters.recovery_cycles += recovery
                        time += recovery * w
                        penalty(instr, recovery * w)
                        probe.recovery(tag, instr, recovery)
                        pc = b
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
                        data(instr, latency)
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
                    in_call = True
                    result = probe.call(callee, call_args)
                    in_call = False
                    time = self.time
                    self.rse.ret()
                    if c is not None:
                        if result is None:
                            raise MachineError(
                                f"void call used as value: {instr}"
                            )
                        regs[c] = result
                        ready[c] = time + w
                elif op == OP_RET:
                    self.time = time
                    if done is not None:
                        done(instr)
                    return regs[a] if a is not None else None
                else:
                    self._execute_rare(dec, pc, regs, ready, serial, start)
                if done is not None:
                    done(instr)
        except BaseException as exc:
            if not in_call:
                self.time = time
            if exc.__class__ is RecursionError:
                raise _overflow(mf) from None
            raise
        finally:
            probe.pop_frame(mf, base)

    def _execute_rare(
        self, dec, pc: int, regs: list, ready: list, serial: int, start: int
    ) -> None:
        """The opcodes too rare to dispatch inline (shared by both
        loops); ``pc`` is already past the instruction."""
        op, _reads, a, b, c, _d, _e = dec.code[pc - 1]
        w = self._w
        if op == OP_INVALA:
            self.counters.explicit_invalidations += 1
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
