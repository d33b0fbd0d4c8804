"""Per-function promotion driver.

Order of operations for one round (paper section 3.2):

1. split critical edges (so PRE insertions have a home);
2. build HSSA with the alias manager (and the speculation decider when
   profile/heuristic speculation is on);
3. collect candidates;
4. run SSAPRE per candidate, **direct candidates first** (their
   variables appear inside indirect candidates' address expressions;
   in-place expression rewriting keeps the shared nodes' identities so
   the later candidates' occurrence maps stay valid), skipping the
   candidates it cannot change (one load, on no CFG cycle);
5. verify.

The *cascade* option reruns the whole round once: loads whose addresses
contained loads become candidates after the inner loads were promoted
(section 2.4 / the paper's "future work" lift of its implementation
restriction).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.alias.manager import AliasManager
from repro.analysis.loops import cyclic_blocks
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.verify import verify_function
from repro.obs.trace import NULL_TRACE, TraceContext
from repro.pre.candidates import collect_candidates
from repro.pre.ssapre import PREOptions, PREResult, SSAPRE, cannot_change_code
from repro.ssa.hssa import SpecDecider, build_hssa


def split_critical_edges(fn: Function) -> int:
    """Split every edge whose source has multiple successors and whose
    target has multiple predecessors.  Returns the number split."""
    fn.compute_preds()
    count = 0
    # Snapshot edges first: splitting mutates the block list.
    edges: list[tuple[BasicBlock, BasicBlock]] = []
    for block in fn.blocks:
        succs = block.successors()
        if len(succs) < 2:
            continue
        for succ in succs:
            if len(succ.preds) >= 2:
                edges.append((block, succ))
    for pred, succ in edges:
        fn.split_edge(pred, succ)
        count += 1
    return count


@dataclass
class FunctionPREStats:
    """Aggregated per-function promotion statistics."""

    function: str
    rounds: int = 0
    results: list[PREResult] = field(default_factory=list)

    def _sum(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.results)

    @property
    def saves(self) -> int:
        return self._sum("saves")

    @property
    def reloads(self) -> int:
        return self._sum("reloads")

    @property
    def speculative_reloads(self) -> int:
        return self._sum("speculative_reloads")

    @property
    def checks(self) -> int:
        return self._sum("checks")

    @property
    def inserts(self) -> int:
        return self._sum("inserts")

    @property
    def invalidates(self) -> int:
        return self._sum("invalidates")

    @property
    def left_saves(self) -> int:
        return self._sum("left_saves")

    @property
    def speculative_inserts(self) -> int:
        return self._sum("speculative_inserts")

    def reloads_by_kind(self) -> dict[str, int]:
        """Eliminated loads split into direct/indirect (Figure 9)."""
        out = {"direct": 0, "indirect": 0}
        for r in self.results:
            out[r.candidate.kind.value] += r.reloads
        return out


def run_load_pre(
    fn: Function,
    module: Module,
    am: AliasManager,
    options: Optional[PREOptions] = None,
    spec_decider: Optional[SpecDecider] = None,
    rounds: int = 1,
    obs: Optional[TraceContext] = None,
) -> FunctionPREStats:
    """Run ``rounds`` promotion rounds over one function.

    ``obs`` (optional) records one ``pre.round`` span per round with
    ``pre.hssa`` / ``pre.rewrite`` / ``pre.verify`` children, so a
    trace shows where PRE compile time goes per function."""
    opts = options or PREOptions()
    obs = obs if obs is not None else NULL_TRACE
    stats = FunctionPREStats(fn.name)
    split_critical_edges(fn)
    for round_index in range(max(1, rounds)):
        round_opts = opts
        if round_index > 0:
            # Later rounds see the loads uncovered by earlier rewrites
            # (outer links of pointer chains); with ALAT speculation on,
            # they may promote across earlier-round checks — the cascade
            # scheme of section 2.4.
            am = AliasManager(module, am.kind, am.use_type_filter)
            if opts.speculative and not opts.softcheck:
                round_opts = dataclasses.replace(opts, cascade=True)
        with obs.span("pre.round", function=fn.name, round=round_index):
            with obs.span("pre.hssa"):
                info = build_hssa(
                    fn, module, am, spec_decider=spec_decider
                )
                cyclic = cyclic_blocks(fn)
                candidates = collect_candidates(fn, info)
            changed = False
            with obs.span("pre.rewrite", candidates=len(candidates)):
                for cand in candidates:
                    if cannot_change_code(cand, cyclic):
                        continue
                    result = SSAPRE(fn, info, cand, round_opts).run()
                    if result.changed or result.checks or result.invalidates:
                        stats.results.append(result)
                        changed = changed or result.changed
            stats.rounds += 1
            with obs.span("pre.verify"):
                verify_function(fn, module)
        if not changed:
            break
    return stats
