"""Alias speculation: the paper's core contribution.

* :mod:`profile` — run the program on a *train* input under the IR
  interpreter and record the concrete target set of every indirect
  load/store (section 3.1's alias-profiling feedback), and turn the
  profile into the χ_s/μ_s decider HSSA construction consumes
  (:func:`make_profile_decider`, Figure 5).
* :mod:`heuristics` — the decider for rule-based speculation when no
  profile exists.
* :mod:`spec_ssa` — inspection helpers counting the χ_s/μ_s a decider
  produced.

The transformation itself is an SSAPRE extension and lives in
:mod:`repro.pre`: speculative Rename, CodeMotion and chk.a recovery
code in :mod:`repro.pre.ssapre`, the Nicolau-style software checks of
the -O3 baseline (section 5) under ``PREOptions.softcheck``, and the
cascade round for pointer chains (section 2.4) in
:func:`repro.pre.driver.run_load_pre`.
"""

from repro.speculation.profile import (
    AliasProfile,
    collect_alias_profile,
    make_profile_decider,
)
from repro.speculation.heuristics import make_heuristic_decider
from repro.speculation.spec_ssa import count_speculative_ops

__all__ = [
    "AliasProfile",
    "collect_alias_profile",
    "make_profile_decider",
    "make_heuristic_decider",
    "count_speculative_ops",
]
