"""Property-based tests (hypothesis).

The heavyweight property is the differential one: random well-formed
MiniC programs with aliased pointers must produce identical output
under every compilation mode, on inputs that both match and violate the
training profile.  Lightweight properties check arithmetic helpers, the
ALAT against a naive reference model, and dominators against the
path-based definition on random CFGs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compute_dominators
from repro.ir.builder import ModuleBuilder
from repro.ir.expr import BinOpKind, ConstInt
from repro.ir.interp import int_div, int_mod, wrap_int
from repro.ir.stmt import Return
from repro.ir.types import INT
from repro.machine.alat import ALAT, ALATConfig

from tests import reference_interp
from tests.conftest import ALL_MODES, assert_all_modes_agree

# ---------------------------------------------------------------------------
# arithmetic helpers
# ---------------------------------------------------------------------------

ints = st.integers(min_value=-(2**64), max_value=2**64)


@given(ints)
def test_wrap_int_range(v):
    w = wrap_int(v)
    assert -(2**63) <= w < 2**63
    assert (w - v) % (2**64) == 0  # congruent mod 2^64


@given(ints, ints.map(wrap_int).filter(lambda b: b != 0))
def test_div_mod_inverse(a, b):
    a = wrap_int(a)
    q, r = int_div(a, b), int_mod(a, b)
    assert wrap_int(q * b + r) == a
    if q * b + r == a:  # no wrap occurred
        assert abs(r) < abs(b)


@given(ints, ints.filter(lambda b: b != 0))
def test_div_mod_match_the_tree_walker(a, b):
    """The non-negative fast paths and the sign-based remainder give what
    the reference interpreter's helpers give, on and off the int64 range."""
    assert int_div(a, b) == reference_interp.int_div(a, b)
    assert int_mod(a, b) == reference_interp.int_mod(a, b)


@given(ints)
def test_wrap_int_idempotent(v):
    assert wrap_int(wrap_int(v)) == wrap_int(v)


# ---------------------------------------------------------------------------
# ALAT vs naive reference
# ---------------------------------------------------------------------------


class _NaiveALAT:
    """Fully-associative, unbounded, full-address reference model.

    The real ALAT may only have *fewer* valid entries (capacity and
    partial-address collisions drop entries); a check that hits in the
    real table must hit in the naive one.
    """

    def __init__(self):
        self.entries = {}

    def allocate(self, tag, addr):
        self.entries[tag] = addr

    def snoop_store(self, addr):
        self.entries = {t: a for t, a in self.entries.items() if a != addr}

    def check(self, tag, clear):
        hit = tag in self.entries
        if hit and clear:
            del self.entries[tag]
        return hit

    def invalidate_entry(self, tag):
        self.entries.pop(tag, None)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 7), st.integers(0x100, 0x140)),
        st.tuples(st.just("store"), st.integers(0x100, 0x140)),
        st.tuples(st.just("check"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("inval"), st.integers(0, 7)),
    ),
    max_size=60,
)


@given(ops)
def test_alat_hits_imply_naive_hits(op_list):
    real = ALAT(ALATConfig(entries=4, associativity=2, partial_bits=16))
    naive = _NaiveALAT()
    for op in op_list:
        if op[0] == "alloc":
            real.allocate((1, op[1]), op[2])
            naive.allocate((1, op[1]), op[2])
        elif op[0] == "store":
            real.snoop_store(op[1])
            naive.snoop_store(op[1])
        elif op[0] == "check":
            r = real.check((1, op[1]), op[2])
            n = naive.check((1, op[1]), op[2])
            # safety: the hardware may spuriously MISS (capacity,
            # partial collisions) but never spuriously HIT
            assert not (r and not n)
        else:
            real.invalidate_entry((1, op[1]))
            naive.invalidate_entry((1, op[1]))


@given(ops)
def test_alat_occupancy_bounded(op_list):
    config = ALATConfig(entries=4, associativity=2)
    real = ALAT(config)
    for op in op_list:
        if op[0] == "alloc":
            real.allocate((1, op[1]), op[2])
        elif op[0] == "store":
            real.snoop_store(op[1])
        elif op[0] == "check":
            real.check((1, op[1]), op[2])
        else:
            real.invalidate_entry((1, op[1]))
        assert real.occupancy <= config.entries


# ---------------------------------------------------------------------------
# dominators on random CFGs
# ---------------------------------------------------------------------------


@st.composite
def random_cfg(draw):
    """A random function: N blocks, random branches, all terminated."""
    n = draw(st.integers(min_value=2, max_value=10))
    mb = ModuleBuilder("m")
    fb = mb.function("main", [], INT)
    blocks = [fb.current] + [fb.block() for _ in range(n - 1)]
    for i, block in enumerate(blocks):
        fb.set_block(block)
        kind = draw(st.integers(0, 2))
        if kind == 0 or i == n - 1:
            fb.ret(0)
        elif kind == 1:
            target = blocks[draw(st.integers(0, n - 1))]
            fb.jump(target)
        else:
            t1 = blocks[draw(st.integers(0, n - 1))]
            t2 = blocks[draw(st.integers(0, n - 1))]
            fb.branch(ConstInt(1), t1, t2)
    fn = fb.finish()
    fn.remove_unreachable_blocks()
    return fn


@given(random_cfg())
@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_dominators_match_bruteforce_on_random_cfgs(fn):
    dom = compute_dominators(fn)
    blocks = fn.reachable_blocks()

    def brute(a, b):
        if a is b:
            return True
        seen, stack = set(), [fn.entry]
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
            assert dom.dominates(a, b) == brute(a, b)


# ---------------------------------------------------------------------------
# random-program differential testing
# ---------------------------------------------------------------------------

_PRELUDE = """
int g0; int g1; int g2; int g3;
int arr[8];
int *p0;
int *p1;
float f0;
int calls;

int helper(int x) {
    calls = calls + 1;
    g3 = g3 + x %% 5;
    return x * 2 + g0 %% 3;
}
""".replace("%%", "%")

_POINTER_TARGETS = ["&g0", "&g1", "&g2", "&arr[{i}]"]


@st.composite
def random_program(draw):
    """A random but well-defined MiniC program.

    Shape: pointer setup (possibly data-dependent), then a bounded loop
    of statements mixing direct/indirect reads and writes, then prints.
    Pointers always point at valid globals; divisors are never zero;
    indices are masked.  This keeps every generated program within
    defined behaviour so the interpreter is a valid oracle.
    """
    lines = []

    def expr(depth=0) -> str:
        choices = ["i", "s", "g0", "g1", "g2", "g3", "*p0", "*p1",
                   "arr[i % 8]", str(draw(st.integers(-9, 9)))]
        if depth < 2 and draw(st.booleans()):
            op = draw(st.sampled_from(["+", "-", "*"]))
            return f"({expr(depth + 1)} {op} {expr(depth + 1)})"
        return draw(st.sampled_from(choices))

    # pointer initialisation: unconditional or input-dependent
    t0 = draw(st.sampled_from(_POINTER_TARGETS)).format(i=draw(st.integers(0, 7)))
    t1 = draw(st.sampled_from(_POINTER_TARGETS)).format(i=draw(st.integers(0, 7)))
    if draw(st.booleans()):
        lines.append(f"    if (n > 50) {{ p0 = {t0}; }} else {{ p0 = {t1}; }}")
    else:
        lines.append(f"    p0 = {t0};")
    t2 = draw(st.sampled_from(_POINTER_TARGETS)).format(i=draw(st.integers(0, 7)))
    lines.append(f"    p1 = {t2};")

    # optional heap block: p1 may point into fresh heap storage instead
    use_heap = draw(st.booleans())
    if use_heap:
        lines.append("    int *heap = alloc(int, 8);")
        lines.append("    p1 = &heap[0];")

    n_stmts = draw(st.integers(2, 9))
    body = []
    for _ in range(n_stmts):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            body.append(f"s = s + {expr()};")
        elif kind == 1:
            target = draw(st.sampled_from(["g0", "g1", "g2", "g3", "arr[i % 8]"]))
            body.append(f"{target} = {expr()};")
        elif kind == 2:
            ptr = draw(st.sampled_from(["p0", "p1"]))
            body.append(f"*{ptr} = {expr()};")
        elif kind == 3:
            body.append(f"if ({expr()} > {expr()}) {{ s = s + 1; }}")
        elif kind == 4:
            ptr = draw(st.sampled_from(["p0", "p1"]))
            body.append(f"s = s + *{ptr};")
        elif kind == 5:
            body.append(f"f0 = f0 + {draw(st.integers(1, 3))}.5;")
        elif kind == 6:
            body.append(f"s = s + helper({expr()});")
        else:
            limit = draw(st.integers(1, 100))
            body.append(f"if (s > {limit * 100}) {{ break; }}")

    loop_body = "\n            ".join(body)
    lines.append(
        f"""    int s = 0;
    for (int i = 0; i < n % 23; i = i + 1) {{
            {loop_body}
    }}"""
    )
    lines.append("    print(s); print(g0); print(g1); print(g2); print(g3);")
    lines.append("    print(arr[0]); print(arr[5]); print(f0); print(*p0);")
    lines.append("    print(*p1); print(calls);")
    lines.append("    return s % 256;")
    source = _PRELUDE + "int main(int n) {\n" + "\n".join(lines) + "\n}\n"
    return source


@given(random_program(), st.integers(0, 120), st.integers(0, 120))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_agree_across_all_modes(source, ref_arg, train_arg):
    """The flagship property: every mode, interpreter and simulator,
    trained on one input and run on another (mis-speculation included),
    produces identical observable output."""
    assert_all_modes_agree(source, [ref_arg], train_args=[train_arg])


# ---------------------------------------------------------------------------
# random pointer-chain programs (cascade coverage)
# ---------------------------------------------------------------------------

_CHAIN_PRELUDE = """
int a; int b; int c; int d;
int *p;
int *alt;
int **q;
int **w;
int out;
"""


@st.composite
def random_chain_program(draw):
    """Random **q programs: the inner pointer may really be redirected
    at a random rate, exercising cascade promotion (rounds=2) and its
    chk.a recovery under both success and failure."""
    lines = [
        "    q = &p;",
        f"    p = &{draw(st.sampled_from(['a', 'b']))};",
        "    alt = &d;",
        "    w = &alt;",
        "    if (n == -1) { w = &p; }",
        f"    a = {draw(st.integers(1, 9))};",
        f"    b = {draw(st.integers(1, 9))};",
    ]
    redirect_rate = draw(st.sampled_from([0, 3, 7, 50]))
    body = []
    if redirect_rate:
        body.append(
            f"if (i > {draw(st.integers(0, 30))} && i % {redirect_rate} == 0)"
            " { w = &p; } else { w = &alt; }"
        )
    body.append("out = out + *(*q);")
    body.append(f"*w = &{draw(st.sampled_from(['b', 'c']))};")
    if draw(st.booleans()):
        body.append("out = out + *(*q) % 11;")
    if draw(st.booleans()):
        body.append(f"c = c + i % {draw(st.integers(2, 6))};")
    loop = "\n        ".join(body)
    lines.append(
        f"""    int i = 0;
    while (i < n % 67) {{
        {loop}
        i = i + 1;
    }}"""
    )
    lines.append("    print(out); print(*p); print(c); print(d);")
    lines.append("    return out % 256;")
    return _CHAIN_PRELUDE + "int main(int n) {\n" + "\n".join(lines) + "\n}\n"


@given(random_chain_program(), st.integers(0, 130), st.integers(0, 130))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_pointer_chains_agree_with_cascade(source, ref_arg, train_arg):
    """Cascade promotion (rounds=2) on random pointer-chain programs,
    trained and measured on independent inputs."""
    from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source, run_program

    ref = run_program(source, [ref_arg])
    for rounds in (1, 2):
        out = compile_source(
            source,
            CompilerOptions(
                opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, rounds=rounds
            ),
            train_args=[train_arg],
        )
        ires = out.interpret([ref_arg])
        assert ires.output == ref.output, f"interp diverged (rounds={rounds})"
        mres = out.run([ref_arg])
        assert mres.output == ref.output, f"machine diverged (rounds={rounds})"
        assert mres.exit_value == ref.exit_value


# ---------------------------------------------------------------------------
# chaos-generator programs as hypothesis inputs
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32), st.integers(0, 120), st.integers(0, 120))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chaos_generated_programs_agree_across_all_modes(seed, ref_arg, train_arg):
    """The seeded chaos generator feeds the same flagship property the
    hypothesis grammars do — one generator, two harnesses."""
    from repro.chaos import generate_program

    program = generate_program(seed)
    assert_all_modes_agree(
        program.source, [ref_arg], train_args=[train_arg]
    )


@given(st.integers(0, 2**32), st.integers(0, 120), st.integers(0, 120))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recovery_counters_consistent(seed, ref_arg, train_arg):
    """Accounting invariant: every retired ld.c/chk.a probes the ALAT
    exactly once, so simulator check counters and ALAT stats must agree
    — including under fault injection, where extra misses come from
    injected entry loss but never from double counting."""
    from repro.chaos import FaultInjector, FaultPlan, generate_program
    from repro.machine.cpu import Simulator
    from repro.pipeline import CompilerOptions, OptLevel, SpecMode, compile_source

    program = generate_program(seed)
    out = compile_source(
        program.source,
        CompilerOptions(opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE),
        train_args=[train_arg],
    )
    for plan in (None, FaultPlan(name="stress", seed=seed,
                                 spurious_invalidate_rate=0.4,
                                 drop_alloc_rate=0.2, flush_rate=0.01)):
        injector = FaultInjector(plan) if plan is not None else None
        sim = Simulator(out.program, out.options.machine, injector=injector)
        result = sim.run([ref_arg])
        alat, counters = result.alat_stats, result.counters
        assert alat.check_hits + alat.check_misses == counters.check_instructions
        assert counters.check_failures == alat.check_misses
