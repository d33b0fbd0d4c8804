"""Source-level attribution profiling (the paper's Figures 8-10 are
*attributional*: which promoted loads pay off, which advanced loads
collide, where check/recovery overhead lands).

Two halves:

* :class:`RunProfile` — the raw collector the simulator feeds when
  profiling is enabled.  It accumulates, per static machine instruction,
  the retired count, the issue+stall+penalty slots, and the data-access
  (load latency) cycles; and per ALAT *site* (the debug location of the
  allocating ``ld.a``/``ld.sa``) the allocation/collision/eviction/
  check/recovery story.  The accounting tiles exactly: the sum of all
  attributed slots equals the simulator's final slot clock, so the
  listing's cycle percentages add up to 100% of ``cpu_cycles``.

* :class:`ProfileReport` — renders a ``perf annotate``-style listing of
  the MiniC source (cycle %, speculation-instruction annotations,
  per-line misspeculation rates) and a top-N hot-lines table, and can
  emit the ``profile.line`` / ``profile.site`` trace events documented
  in the schema table.

The module deliberately does not import :mod:`repro.machine` (the
simulator imports *us*); it only consumes duck-typed ``MInstr``s via
:func:`repro.target.isa.mnemonic`.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.loc import Loc
from repro.target.isa import mnemonic

#: mnemonics rendered as inline speculation annotations in the listing
_SPEC_MNEMONICS = ("ld.a", "ld.sa", "ld.c", "ld.c.nc", "chk.a", "chk.a.nc",
                   "invala.e", "pred.ld")


class InstrProfile:
    """Dynamic cost of one static machine instruction."""

    __slots__ = ("fn", "index", "instr", "retired", "slots", "data_cycles")

    def __init__(self, fn: str, index: int, instr) -> None:
        self.fn = fn
        self.index = index
        self.instr = instr
        self.retired = 0
        #: issue + operand-stall + penalty slots (1/issue_width cycle)
        self.slots = 0
        #: cycles of load latency incurred (cache model)
        self.data_cycles = 0

    @property
    def loc(self) -> Optional[Loc]:
        return self.instr.loc


class SiteProfile:
    """Per-ALAT-site statistics, keyed by the allocation loc."""

    __slots__ = ("loc", "label", "allocations", "collisions", "evictions",
                 "check_hits", "check_failures", "recovery_cycles", "kinds")

    def __init__(self, loc: Optional[Loc], label: str) -> None:
        self.loc = loc
        self.label = label
        self.allocations = 0
        self.collisions = 0
        self.evictions = 0
        self.check_hits = 0
        self.check_failures = 0
        self.recovery_cycles = 0
        #: mnemonics observed at this site (ld.a, ld.c.nc, chk.a.nc, ...)
        self.kinds: set = set()

    @property
    def checks(self) -> int:
        return self.check_hits + self.check_failures

    @property
    def failure_rate(self) -> float:
        total = self.checks
        return self.check_failures / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "site": self.label,
            "line": self.loc.line if self.loc else None,
            "allocations": self.allocations,
            "collisions": self.collisions,
            "evictions": self.evictions,
            "check_hits": self.check_hits,
            "check_failures": self.check_failures,
            "recovery_cycles": self.recovery_cycles,
            "kinds": sorted(self.kinds),
        }


class RunProfile:
    """Raw per-run attribution data, filled by the simulator.

    The hot-loop methods (:meth:`retire`, :meth:`add_slots`,
    :meth:`add_data`) key by instruction object identity — one dict
    lookup per retired instruction.  The simulator's
    :class:`~repro.machine.cpu.Probe` binds them directly as its
    attribution hooks, so they run only on the probed loop; an
    unprofiled run never reaches this class.
    """

    def __init__(self, program, issue_width: int) -> None:
        self.program_name = program.name
        self.issue_width = issue_width
        #: final slot clock, set by the simulator after the run
        self.total_slots = 0
        self._by_id: dict[int, InstrProfile] = {}
        self.instrs: list[InstrProfile] = []
        for fname, mf in program.functions.items():
            for i, ins in enumerate(mf.instrs):
                rec = InstrProfile(fname, i, ins)
                self._by_id[id(ins)] = rec
                self.instrs.append(rec)
        self.sites: dict[object, SiteProfile] = {}
        self._tag_site: dict[tuple, SiteProfile] = {}

    # -- hot-loop hooks (called by the simulator) -----------------------

    def retire(self, instr, slots: int) -> None:
        rec = self._by_id[id(instr)]
        rec.retired += 1
        rec.slots += slots

    def add_slots(self, instr, slots: int) -> None:
        """Penalty slots (taken-branch bubble, chk.a recovery trap)."""
        self._by_id[id(instr)].slots += slots

    def add_data(self, instr, latency_cycles: int) -> None:
        self._by_id[id(instr)].data_cycles += latency_cycles

    # -- ALAT site attribution ------------------------------------------

    def _site_for(self, instr) -> SiteProfile:
        rec = self._by_id[id(instr)]
        key: object = instr.loc if instr.loc is not None else (rec.fn, rec.index)
        site = self.sites.get(key)
        if site is None:
            label = str(instr.loc) if instr.loc else f"{rec.fn}+{rec.index}"
            site = SiteProfile(instr.loc, label)
            self.sites[key] = site
        site.kinds.add(mnemonic(instr))
        return site

    def bind_tag(self, tag: tuple, instr) -> None:
        """An ``ld.a``/``ld.sa`` at ``instr`` (re-)allocated ``tag``."""
        site = self._site_for(instr)
        site.allocations += 1
        self._tag_site[tag] = site

    def bind_tag_weak(self, tag: tuple, instr) -> None:
        """Associate ``tag`` with the checking instruction only if no
        allocation has claimed it (checks reached on never-allocated
        paths, i.e. control speculation)."""
        if tag not in self._tag_site:
            self._tag_site[tag] = self._site_for(instr)

    def check(self, tag: tuple, instr, hit: bool) -> None:
        self.bind_tag_weak(tag, instr)
        site = self._tag_site[tag]
        site.kinds.add(mnemonic(instr))
        if hit:
            site.check_hits += 1
        else:
            site.check_failures += 1

    def recovery(self, tag: tuple, instr, cycles: int) -> None:
        self.bind_tag_weak(tag, instr)
        self._tag_site[tag].recovery_cycles += cycles

    def alat_event(self, name: str, fields: dict) -> None:
        """Observer-channel events (collisions/evictions carry only the
        tag — the store that kills an entry doesn't know its site)."""
        site = self._tag_site.get(fields.get("tag"))
        if site is None:
            return
        if name == "alat.collision":
            site.collisions += 1
        elif name == "alat.evict":
            site.evictions += 1

    # -- aggregate views -------------------------------------------------

    @property
    def attributed_slots(self) -> int:
        return sum(r.slots for r in self.instrs)

    @property
    def located_slots(self) -> int:
        return sum(r.slots for r in self.instrs if r.loc is not None)

    def per_function_slots(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.instrs:
            out[r.fn] = out.get(r.fn, 0) + r.slots
        return out

    def per_function_cycles(self) -> dict[str, float]:
        w = self.issue_width
        return {fn: s / w for fn, s in self.per_function_slots().items()}

    def per_line(self) -> dict[int, dict]:
        """Aggregate instruction records by source line.

        Returns ``{line: {slots, retired, data_cycles, spec: {mnemonic:
        retired}}}`` for located instructions only.
        """
        lines: dict[int, dict] = {}
        for r in self.instrs:
            if r.loc is None or r.retired == 0 and r.slots == 0:
                continue
            agg = lines.setdefault(
                r.loc.line,
                {"slots": 0, "retired": 0, "data_cycles": 0, "spec": {}},
            )
            agg["slots"] += r.slots
            agg["retired"] += r.retired
            agg["data_cycles"] += r.data_cycles
            m = mnemonic(r.instr)
            if m in _SPEC_MNEMONICS and r.retired:
                agg["spec"][m] = agg["spec"].get(m, 0) + r.retired
        return lines


class ProfileReport:
    """Renders a :class:`RunProfile` against its MiniC source."""

    def __init__(self, profile: RunProfile, source: str,
                 counters=None) -> None:
        self.profile = profile
        self.source_lines = source.splitlines()
        self.counters = counters

    # -- derived ---------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.profile.total_slots or self.profile.attributed_slots

    @property
    def attribution_pct(self) -> float:
        """Share of retired slots attributed to a MiniC source line."""
        total = self.total_slots
        return 100.0 * self.profile.located_slots / total if total else 0.0

    def _line_misspec(self) -> dict[int, tuple[int, int]]:
        """line -> (check_failures, checks) over the sites on it."""
        out: dict[int, tuple[int, int]] = {}
        for site in self.profile.sites.values():
            if site.loc is None:
                continue
            f, c = out.get(site.loc.line, (0, 0))
            out[site.loc.line] = (f + site.check_failures, c + site.checks)
        return out

    # -- rendering -------------------------------------------------------

    def format_listing(self) -> str:
        """The ``perf annotate``-style source listing."""
        prof = self.profile
        per_line = prof.per_line()
        misspec = self._line_misspec()
        total = self.total_slots or 1
        w = prof.issue_width
        cycles = prof.total_slots // w if prof.total_slots else 0
        head = [
            f"== profile: {prof.program_name} — {cycles} cycles, "
            f"{self.attribution_pct:.1f}% attributed to source lines ==",
            f"{'cycle%':>7} {'cycles':>9} {'line':>5}  source",
        ]
        body = []
        for lineno, text in enumerate(self.source_lines, start=1):
            agg = per_line.get(lineno)
            if agg is None:
                body.append(f"{'':>7} {'':>9} {lineno:>5}  {text}")
                continue
            pct = 100.0 * agg["slots"] / total
            lcycles = agg["slots"] / w
            ann = "".join(
                f"  {m} ×{n}" for m, n in sorted(agg["spec"].items())
            )
            if lineno in misspec:
                fails, checks = misspec[lineno]
                if checks:
                    ann += f"  miss {100.0 * fails / checks:.1f}%"
            note = f"   ;{ann}" if ann else ""
            body.append(
                f"{pct:>6.1f}% {lcycles:>9.1f} {lineno:>5}  {text}{note}"
            )
        return "\n".join(head + body)

    def format_hot_lines(self, top: int = 10) -> str:
        """Top-N hottest source lines by attributed cycles."""
        prof = self.profile
        per_line = prof.per_line()
        total = self.total_slots or 1
        w = prof.issue_width
        ranked = sorted(
            per_line.items(), key=lambda kv: kv[1]["slots"], reverse=True
        )[:top]
        lines = [
            f"-- hottest lines (top {min(top, len(ranked))})",
            f"{'cycle%':>7} {'cycles':>9} {'retired':>8} {'data cy':>8} "
            f"{'line':>5}  source",
        ]
        for lineno, agg in ranked:
            text = (
                self.source_lines[lineno - 1].strip()
                if 0 < lineno <= len(self.source_lines)
                else "?"
            )
            lines.append(
                f"{100.0 * agg['slots'] / total:>6.1f}% "
                f"{agg['slots'] / w:>9.1f} {agg['retired']:>8} "
                f"{agg['data_cycles']:>8} {lineno:>5}  {text}"
            )
        return "\n".join(lines)

    def format_sites(self) -> str:
        """Per-ALAT-site collision/check/recovery table."""
        sites = [s for s in self.profile.sites.values()]
        if not sites:
            return "-- ALAT sites: none (no speculation executed)"
        sites.sort(key=lambda s: (s.loc.line if s.loc else 1 << 30, s.label))
        lines = [
            "-- ALAT sites (per allocation loc)",
            f"{'site':<24} {'alloc':>6} {'collide':>8} {'evict':>6} "
            f"{'chk hit':>8} {'chk fail':>9} {'rec cyc':>8}  kinds",
        ]
        for s in sites:
            lines.append(
                f"{s.label:<24} {s.allocations:>6} {s.collisions:>8} "
                f"{s.evictions:>6} {s.check_hits:>8} {s.check_failures:>9} "
                f"{s.recovery_cycles:>8}  {','.join(sorted(s.kinds))}"
            )
        return "\n".join(lines)

    def render(self, top: int = 10) -> str:
        return "\n\n".join(
            [self.format_listing(), self.format_hot_lines(top),
             self.format_sites()]
        )

    # -- machine-readable ------------------------------------------------

    def to_dict(self, top: int = 10) -> dict:
        prof = self.profile
        per_line = prof.per_line()
        total = self.total_slots or 1
        w = prof.issue_width
        hot = sorted(
            per_line.items(), key=lambda kv: kv[1]["slots"], reverse=True
        )[:top]
        return {
            "program": prof.program_name,
            "attribution_pct": self.attribution_pct,
            "cycles": prof.total_slots // w if prof.total_slots else 0,
            "per_function_cycles": prof.per_function_cycles(),
            "hot_lines": [
                {
                    "line": line,
                    "cycle_pct": 100.0 * agg["slots"] / total,
                    "cycles": agg["slots"] / w,
                    "retired": agg["retired"],
                    "data_cycles": agg["data_cycles"],
                    "spec": agg["spec"],
                }
                for line, agg in hot
            ],
            "sites": [s.as_dict() for s in prof.sites.values()],
        }

    def emit_events(self, obs) -> None:
        """Stream ``profile.line`` / ``profile.site`` events."""
        if obs is None or not obs.enabled:
            return
        total = self.total_slots or 1
        w = self.profile.issue_width
        for line, agg in sorted(self.profile.per_line().items()):
            obs.event(
                "profile.line",
                line=line,
                cycle_pct=round(100.0 * agg["slots"] / total, 3),
                cycles=round(agg["slots"] / w, 3),
                retired=agg["retired"],
                data_cycles=agg["data_cycles"],
                spec=agg["spec"],
            )
        for site in self.profile.sites.values():
            obs.event("profile.site", **site.as_dict())
