"""The two pieces of compile work that are reused instead of redone.

* ``compile_to_ir`` parses each source text once and reuses the AST for
  later compiles of the same text; every compile still gets a fresh
  module, variables and statements.
* SSAPRE seeds its Phi insertion from the dominance frontiers and def
  blocks HSSA built for the round, instead of recomputing the frontiers
  and rescanning every statement for each candidate.  The test keeps
  the rescan and compares it with the reused sets at every candidate.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.domfrontier import compute_dominance_frontiers
from repro.chaos.campaign import default_modes
from repro.chaos.generator import generate_program
from repro.errors import ParseError, SemanticError, SpecLintError
from repro.ir.stmt import stmt_defines
from repro.minic import lower
from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source
from repro.pre import ssapre
from repro.ssa.hssa import var_key
from repro.target.asmprinter import format_program
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE, STATIC_SPECULATIVE

# -- parse memo ----------------------------------------------------------------

SOURCE_A = """
int g;
struct node { int v; struct node *next; };
int sum(struct node *n) {
    int s = 0;
    while (n != 0) { s += n->v; n = n->next; }
    return s;
}
int main(int k) {
    struct node *a = alloc(struct node, 2);
    int *p = &g;
    a->v = k;
    a->next = a + 1;
    a->next->v = 2 * k;
    *p = sum(a);
    print(g);
    return g % 7;
}
"""

SOURCE_B = "int main(int n) { int s = 0; for (int i = 0; i < n; i += 1) s += i; return s; }"


def _objects(module) -> set[int]:
    """Identities of every variable and statement of a module."""
    ids = {id(v) for v in module.globals}
    for fn in module.iter_functions():
        ids.update(id(v) for v in fn.all_variables())
        ids.update(id(s) for s in fn.iter_stmts())
    return ids


def test_repeated_source_reuses_the_parse_but_nothing_downstream():
    lower._parse_memo.cache_clear()
    options = SPECULATIVE()
    first = compile_source(SOURCE_A, options, train_args=[3])
    compile_source(SOURCE_B, options, train_args=[3])
    again = compile_source(SOURCE_A, options, train_args=[3])
    assert lower._parse_memo.cache_info().hits >= 1
    assert not _objects(first.module) & _objects(again.module)
    assert format_program(first.program) == format_program(again.program)
    assert first.run([5]).counters == again.run([5]).counters


@pytest.mark.parametrize(
    "source, error",
    [
        ("int main() { return y; }", SemanticError),
        ("int main() {\n  int x = 1.5 % 2;\n  return x;\n}", SemanticError),
        ("int main() { return 1 }", ParseError),
    ],
)
def test_source_errors_repeat_exactly(source, error):
    lower._parse_memo.cache_clear()
    seen = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            compile_source(source, BASELINE())
        seen.append((str(exc.value), exc.value.line, exc.value.column))
    assert seen[0] == seen[1]
    assert seen[0][1] > 0
    if error is ParseError:
        assert lower._parse_memo.cache_info().currsize == 0


# -- SSAPRE seeds and frontiers from HSSA -------------------------------------


def full_rescan(pre: ssapre.SSAPRE) -> set[int]:
    """The seed set as SSAPRE built it by scanning every statement."""
    seeds: set[int] = set(pre._occ_by_block)
    key_set = set(pre.keys)
    for block in pre.fn.blocks:
        for stmt in block.stmts:
            target = stmt_defines(stmt)
            if target is not None and var_key(target) in key_set:
                seeds.add(block.bid)
            for chi in stmt.chi_list:
                if chi.key in key_set:
                    seeds.add(block.bid)
        for key in pre.info.block_phis(block):
            if key in key_set:
                seeds.add(block.bid)
    return seeds


@pytest.fixture
def checked_phi_insertions(monkeypatch):
    """Check every SSAPRE Phi insertion against the rescan.  The
    returned one-element list counts the insertions checked."""
    checked = [0]
    original = ssapre.SSAPRE._insert_phis

    def insert_phis(pre):
        # Order matters too: the Phi order follows the set's iteration.
        assert list(pre._phi_seeds()) == list(full_rescan(pre))
        assert pre.info.frontiers == compute_dominance_frontiers(
            pre.fn, pre.info.domtree
        )
        checked[0] += 1
        return original(pre)

    monkeypatch.setattr(ssapre.SSAPRE, "_insert_phis", insert_phis)
    return checked


def _modes() -> list[CompilerOptions]:
    software = CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.SOFTWARE, fallback=False
    )
    return [BASELINE(), SPECULATIVE(), STATIC_SPECULATIVE(), software] + default_modes()


def _compile_every_mode(source: str, train_args) -> None:
    for options in _modes():
        try:
            compile_source(source, options, train_args=list(train_args))
        except SpecLintError as exc:
            # the one known speclint SPEC002 shape left, about 1
            # program in 2,800 (copy propagation, ROADMAP item 1)
            assert {d.rule for d in exc.report.errors} == {"SPEC002"}


@pytest.mark.parametrize("name", BENCHMARKS)
def test_kernel_phi_seeds_match_a_full_rescan(name, checked_phi_insertions):
    workload = get_workload(name)
    _compile_every_mode(workload.source, workload.train_args)
    assert checked_phi_insertions[0] > 0


@pytest.mark.parametrize("index", range(50))
def test_generated_phi_seeds_match_a_full_rescan(index, checked_phi_insertions):
    program = generate_program(random.Random(f"pre-reuse:{index}"), index)
    _compile_every_mode(program.source, program.train_args)
    assert checked_phi_insertions[0] > 0
