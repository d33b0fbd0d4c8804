"""Compile work that is reused or skipped instead of redone.

* ``compile_to_ir`` parses each source text once and reuses the AST for
  later compiles of the same text; every compile still gets a fresh
  module, variables and statements.
* SSAPRE seeds its Phi insertion from the dominance frontiers and def
  blocks HSSA built for the round, instead of recomputing the frontiers
  and rescanning every statement for each candidate.  The test keeps
  the rescan and compares it with the reused sets at every candidate.
* The PRE driver skips the candidates SSAPRE cannot change (one load,
  on no CFG cycle).  The test runs SSAPRE on each of them anyway: the
  result is empty and the printed function unchanged.
* SSAPRE computes a candidate's speculative bases for its value key
  only, and the cascade's address bases once per round.  The test
  recomputes both in full at every candidate.
* SSAPRE's Rename and Finalize enter only the dominator subtrees that
  hold an occurrence, a Phi, a Phi predecessor or an exit.  The test
  repeats both over the whole tree at every candidate and compares
  what they decided.
* Copy propagation counts its substitutions instead of printing every
  statement twice.  The test prints them and compares the counts.
* Expression walks are one iterative generator (and, for callers that
  only read, one list-building loop, ``Stmt.expr_nodes``), and so is
  the depth-first walk behind ``Function.reachable_blocks``.  The test
  compares them with the recursive walks they replaced on every
  function that reaches code generation.
* HSSA construction walks each statement's expressions once and shares
  the loads and variable reads between μ/χ attachment, the variable
  scan behind Phi placement, renaming and candidate collection, and
  its renamer copies the current versions only at the blocks that
  change them.  The test builds HSSA again at every call with the
  construction it replaced (``tests/reference_hssa.py``, which walks
  at each of those steps and copies every block's versions) and
  compares the μ/χ lists, the Phis, every version map and the walks.
  It also computes the facts of the round ``HSSAInfo`` derives on
  first use (the exits, the loop headers, the layout positions) the
  way SSAPRE used to for every candidate, and compares them.
* ``AliasManager`` builds its alias classes and GMOD/GREF in one scan of
  the module.  The test repeats the two scans it replaced
  (``tests/reference_alias.py``) for every manager the compiler builds
  and compares each object's class, the order the classes' virtual
  variables are made in, and both summaries.

The compile tests run every kernel and 50 generated programs under
every mode of ``tests.corpus.compile_modes()``, with all the checks on.
"""

from __future__ import annotations

import collections
import itertools
import random
from typing import Iterator

import pytest

from repro.alias.manager import AliasAnalysisKind, AliasManager
from repro.analysis.domfrontier import compute_dominance_frontiers
from repro.analysis.loops import cyclic_blocks, find_natural_loops
from repro.chaos.generator import generate_program
from repro.errors import ParseError, SemanticError, SpecLintError
from repro.ir import INT, ModuleBuilder
from repro.ir import symbols
from repro.ir.expr import BinOp, ConstInt, Expr, clone_expr, walk_expr
from repro.ir.printer import format_function
from repro.ir.stmt import Return, Stmt, stmt_defines
from repro.minic import lower
from repro.opt import driver as opt_driver
from repro.pipeline import compile_source
from repro.pipeline import driver as pipeline_driver
from repro.pre import driver as pre_driver
from repro.pre import ssapre
from repro.pre.candidates import collect_candidates
from repro.ssa.hssa import build_hssa, compute_spec_bases, var_key
from repro.target.asmprinter import format_program
from repro.workloads.programs import BENCHMARKS, get_workload
from repro.workloads.runner import BASELINE, SPECULATIVE
from tests import reference_alias, reference_hssa
from tests.corpus import compile_modes

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


# -- skipped candidates, per-key and per-round bases, the walker ----------------


def recursive_walk(expr: Expr) -> Iterator[Expr]:
    """The recursive pre-order walk ``walk_expr`` replaced."""
    yield expr
    for child in expr.children():
        yield from recursive_walk(child)


def recursive_walk_stmt(stmt: Stmt) -> Iterator[Expr]:
    for e in stmt.exprs():
        yield from recursive_walk(e)


def recursive_reachable_blocks(fn) -> list:
    """The recursive depth-first walk ``Function.reachable_blocks``
    replaced: reverse postorder from the entry."""
    seen: set[int] = set()
    order: list = []

    def dfs(block) -> None:
        seen.add(block.bid)
        for succ in block.successors():
            if succ.bid not in seen:
                dfs(succ)
        order.append(block)

    dfs(fn.entry)
    order.reverse()
    return order


def hssa_state(info) -> tuple:
    """What HSSA construction decided, comparable between two builds of
    one function that number their virtual variables alike."""
    stmts = [
        (
            stmt.sid,
            [(str(mu), mu.speculative) for mu in stmt.mu_list],
            [(str(chi), chi.speculative, chi.mechanism, chi.object_mechanisms)
             for chi in stmt.chi_list],
        )
        for stmt in info.fn.iter_stmts()
    ]
    phis = {
        bid: [(key, str(phi), phi.operands) for key, phi in block_phis.items()]
        for bid, block_phis in info.phis.items()
    }
    walks = {
        sid: ([e.eid for e in loads], [e.eid for e in reads])
        for sid, (loads, reads) in info.walks.items()
    }
    return (
        stmts, phis, info.use_version, info.def_version, info.spec_base,
        info.def_site, info.check_def_links, info.block_entry_versions,
        info.block_exit_versions, info.def_blocks, info.frontiers,
        {eid: str(mu) for eid, mu in info.load_mu.items()},
        {sid: str(chi) for sid, chi in info.store_chi.items()},
        walks,
    )


def round_facts(info) -> tuple:
    """The facts of the round HSSAInfo derives on first use, and the
    same facts as SSAPRE computed them for every candidate: the exit
    blocks by a scan, the loop headers from the natural loops, and each
    block's position by its index in the block list."""
    fn = info.fn
    exits = [
        b for b in fn.blocks
        if isinstance(b.terminator, Return) or not b.successors()
    ]
    headers = {
        loop.header.bid for loop in find_natural_loops(fn, info.domtree)
    }
    positions = {b.bid: i for i, b in enumerate(fn.blocks)}
    return (
        (info.exits(), info.exit_ids(), info.loop_headers(), info.layout_position()),
        (exits, {b.bid for b in exits}, headers, positions),
    )


def walk_state(pre) -> tuple:
    """What SSAPRE's Rename and Finalize decided, comparable between
    two instances for the same candidate."""
    phis = {
        bid: (
            phi.class_id, phi.down_safe, phi.can_be_avail, phi.later,
            phi.alat_avail, phi.used,
            [(op.class_id, op.has_real_use, op.speculative, op.insert)
             for op in phi.operands],
        )
        for bid, phi in pre.phis.items()
    }
    occs = [
        (
            rec.class_id, rec.speculative, rec.is_def, rec.role,
            (rec.entry.kind, rec.entry.needs_save, rec.entry.spec_linked)
            if rec.role in ("left", "def") else None,
        )
        for rec in pre._occs
    ]
    return phis, occs


@pytest.fixture
def checked_shortcuts(monkeypatch):
    """Check every shortcut against the work it replaces.  The returned
    Counter counts the checks made, by kind."""
    checked: collections.Counter = collections.Counter()
    # Skippable candidates by id, kept alive so no id is reused.
    skippable: dict[int, object] = {}

    def never_skip(cand, cyclic):
        if ssapre.cannot_change_code(cand, cyclic):
            skippable[id(cand)] = cand
        return False

    run = ssapre.SSAPRE.run
    init = ssapre.SSAPRE.__init__

    def full_walk_state(pre):
        """Rename and Finalize of ``pre``'s candidate, walking the whole
        dominator tree."""
        full = object.__new__(ssapre.SSAPRE)
        init(full, pre.fn, pre.info, pre.cand, pre.opts)
        full._insert_phis()
        full._walked = set(full.info.domtree.children)
        full._rename()
        full._down_safety()
        full._will_be_avail()
        full._finalize()
        return walk_state(full)

    def run_checked(pre):
        if id(pre.cand) not in skippable:
            reference = full_walk_state(pre)
            result = run(pre)
            assert walk_state(pre) == reference
            checked["dominator walks"] += 1
            return result
        before = format_function(pre.fn)
        result = run(pre)
        assert result == ssapre.PREResult(pre.cand)
        assert format_function(pre.fn) == before
        checked["skips"] += 1
        return result

    def init_checked(pre, fn, info, cand, options):
        init(pre, fn, info, cand, options)
        if pre._local_bases is not None:
            full = compute_spec_bases(info, pre._chi_ignorable)
            key = cand.value_key
            assert pre._local_bases == {
                node: base for node, base in full.items() if node[0] == key
            }
            checked["key bases"] += 1
        if pre._addr_bases is not None:
            assert pre._addr_bases == compute_spec_bases(
                info, lambda chi: False, extra_links=info.check_def_links
            )
            checked["cascade bases"] += 1

    propagate = opt_driver.propagate_copies_in_function

    def propagate_checked(fn):
        stmts = list(fn.iter_stmts())
        before = [str(stmt) for stmt in stmts]
        changed = propagate(fn)
        assert changed == sum(str(s) != b for s, b in zip(stmts, before))
        checked["copies"] += 1
        return changed

    build = pre_driver.build_hssa

    def build_checked(fn, module, am, spec_decider=None):
        # Both builds number the virtual variables they make from the
        # same id, so their states compare as printed.
        start = next(symbols._virtual_ids)
        symbols._virtual_ids = itertools.count(start)
        reference = hssa_state(
            reference_hssa.build_hssa(fn, module, am, spec_decider)
        )
        symbols._virtual_ids = itertools.count(start)
        info = build(fn, module, am, spec_decider=spec_decider)
        assert hssa_state(info) == reference
        facts, expected = round_facts(info)
        assert facts == expected
        checked["hssa"] += 1
        return info

    manager_init = AliasManager.__init__

    def manager_checked(am, *args, **kwargs):
        manager_init(am, *args, **kwargs)
        classes, reps = reference_alias.alias_classes(am)
        assert {oid: am._uf.find(oid) for oid in classes} == classes
        assert list(am._vvar_by_class) == reps
        assert (am._gmod, am._gref) == reference_alias.mod_ref(am)
        checked["alias"] += 1

    codegen = pipeline_driver.generate_machine_code

    def codegen_checked(module, *args, **kwargs):
        for fn in module.iter_functions():
            assert fn.reachable_blocks() == recursive_reachable_blocks(fn)
            for stmt in fn.iter_stmts():
                reference = list(recursive_walk_stmt(stmt))
                assert list(stmt.walk_exprs()) == reference
                assert stmt.expr_nodes() == reference
                checked["walks"] += 1
        return codegen(module, *args, **kwargs)

    monkeypatch.setattr(pre_driver, "cannot_change_code", never_skip)
    monkeypatch.setattr(pre_driver, "build_hssa", build_checked)
    monkeypatch.setattr(AliasManager, "__init__", manager_checked)
    monkeypatch.setattr(ssapre.SSAPRE, "run", run_checked)
    monkeypatch.setattr(ssapre.SSAPRE, "__init__", init_checked)
    monkeypatch.setattr(opt_driver, "propagate_copies_in_function", propagate_checked)
    monkeypatch.setattr(pipeline_driver, "generate_machine_code", codegen_checked)
    return checked


def _compile_every_mode(source: str, train_args) -> None:
    for options in compile_modes():
        try:
            compile_source(source, options, train_args=list(train_args))
        except SpecLintError as exc:
            # the one known speclint SPEC002 shape left, about 1
            # program in 2,800 (copy propagation, ROADMAP item 1)
            assert {d.rule for d in exc.report.errors} == {"SPEC002"}


@pytest.mark.parametrize("name", BENCHMARKS)
def test_kernel_phi_seeds_match_a_full_rescan(
    name, checked_phi_insertions, checked_shortcuts
):
    workload = get_workload(name)
    _compile_every_mode(workload.source, workload.train_args)
    assert checked_phi_insertions[0] > 0
    assert checked_shortcuts["walks"] > 0


@pytest.mark.parametrize("index", range(50))
def test_generated_phi_seeds_match_a_full_rescan(
    index, checked_phi_insertions, checked_shortcuts
):
    program = generate_program(random.Random(f"pre-reuse:{index}"), index)
    _compile_every_mode(program.source, program.train_args)
    assert checked_phi_insertions[0] > 0
    assert checked_shortcuts["walks"] > 0


def test_every_shortcut_check_fires(checked_shortcuts):
    """The compile tests above would pass vacuously if a check never
    ran; this program exercises all of them."""
    program = generate_program(random.Random("pre-reuse:9"), 9)
    _compile_every_mode(program.source, program.train_args)
    assert set(checked_shortcuts) == {
        "skips", "key bases", "cascade bases", "dominator walks", "copies",
        "walks", "hssa", "alias",
    }


def _irreducible_module():
    """``main`` reads the global ``g`` once, in block ``a``.  ``a`` and
    ``b`` form a cycle with two entries, so neither dominates the other
    and the cycle has no natural loop."""
    mb = ModuleBuilder("irreducible")
    g = mb.global_var("g", INT, init=3)
    fb = mb.function("main", [("n", INT)], INT)
    n = fb.fn.params[0]
    i = fb.temp(INT, "i")
    s = fb.temp(INT, "s")
    a, b, done = fb.block("a"), fb.block("b"), fb.block("done")
    fb.assign(i, 0)
    fb.assign(s, 0)
    fb.branch(fb.lt(n, 1), a, b)
    fb.set_block(a)
    fb.assign(s, fb.add(s, fb.read(g)))
    fb.jump(b)
    fb.set_block(b)
    fb.assign(i, fb.add(i, 1))
    fb.branch(fb.lt(i, n), a, done)
    fb.set_block(done)
    fb.ret(fb.read(s))
    fb.finish()
    return mb.finish(), a


def test_single_load_on_an_irreducible_cycle_is_not_skipped():
    module, a = _irreducible_module()
    fn = module.main
    am = AliasManager(module, AliasAnalysisKind.ANDERSEN, True)
    pre_driver.split_critical_edges(fn)
    info = build_hssa(fn, module, am)
    assert find_natural_loops(fn, info.domtree).innermost_containing(a) is None
    assert a.bid in cyclic_blocks(fn)
    (cand,) = collect_candidates(fn, info)
    assert len(cand.occurrences) == 1 and cand.occurrences[0].stmt.block is a
    assert not ssapre.cannot_change_code(cand, cyclic_blocks(fn))


def _token(expr: Expr) -> tuple:
    var = getattr(expr, "var", None)
    return (type(expr).__name__, getattr(expr, "value", None),
            var.name if var is not None else None)


def test_the_walk_reads_children_when_it_resumes():
    """Both walks read a node's children when they resume after
    yielding it, so a consumer that replaces the children of the node
    it was just given walks the new ones, in both."""
    program = generate_program(random.Random("pre-reuse:1"), 1)
    module = lower.compile_to_ir(program.source)
    replaced = 0
    for stmt in module.main.iter_stmts():
        for root in stmt.exprs():
            for stop in range(len(list(recursive_walk(root)))):
                walked = []
                for walk in (walk_expr, recursive_walk):
                    nodes = walk(clone_expr(root))
                    seen = [next(nodes) for _ in range(stop + 1)]
                    if isinstance(seen[-1], BinOp):
                        seen[-1].left = ConstInt(stop)
                        seen[-1].right = ConstInt(-stop)
                    seen += nodes
                    walked.append([_token(e) for e in seen])
                assert walked[0] == walked[1]
                replaced += isinstance(seen[stop], BinOp)
    assert replaced > 0
