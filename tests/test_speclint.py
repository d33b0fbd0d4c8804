"""Speculation-safety analyzer (`repro.speclint`).

The load-bearing property: seeded miscompiles — reverting the cascade
chk.a upgrade, truncating recovery, deleting an emitted check — are
caught as SPEC### errors at the correct source location, while every
legal compilation (all workloads, all modes) passes strict mode clean.
"""

import json

import pytest

from repro.errors import SpecLintError, VerificationError
from repro.ir.expr import BinOp, BinOpKind, ConstInt, VarRead
from repro.ir.stmt import Assign, Call, SpecFlag, Store
from repro.ir.verify import verify_module
from repro.machine.alat import ALATConfig
from repro.machine.cpu import MachineConfig
from repro.minic.lower import compile_to_ir
from repro.obs.sinks import MemorySink
from repro.obs.trace import TraceContext
from repro.pipeline import (
    CompilerOptions,
    OptLevel,
    SpecLintMode,
    SpecMode,
    compile_source,
)
from repro.speclint import (
    RULE_TABLE,
    Severity,
    diff_executions,
    lint_output,
    run_speclint,
    validate_translation,
)
from repro.speclint.mir import lint_program
#: **q chain (shared shape with test_cascade.py): statically the *w
#: store may modify the pointer p itself; dynamically it (almost)
#: never does.
CHAIN_SRC = """
int a; int b; int c;
int *p;
int *other;
int **q;
int **w;

int main(int n) {
    q = &p;
    p = &a;
    other = &c;
    w = &other;
    if (n == -1) { w = &p; }   // dead: statically *w may modify p
    a = 3;
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + *(*q);
        *w = &b;               // address-ambiguous pointer store
        s = s + *(*q);
        i = i + 1;
    }
    print(s);
    print(*p);
    return 0;
}
"""

#: Same chain, but the address really is modified on rare iterations
#: the training input never reaches.
MISSPEC_SRC = """
int a; int b; int c;
int *p;
int *other;
int **q;
int **w;

int main(int n) {
    q = &p;
    p = &a;
    other = &c;
    a = 3;
    b = 9;
    int s = 0;
    int i = 0;
    while (i < n) {
        if (i > 20 && i % 7 == 0) {
            w = &p;            // genuine address aliasing (rare)
        } else {
            w = &other;
        }
        s = s + *(*q);
        *w = &b;               // sometimes really redirects p to b!
        s = s + *(*q);
        i = i + 1;
    }
    print(s);
    print(*p);
    return 0;
}
"""


def compile_spec(src, rounds=2, train=(6,), mode=SpecMode.PROFILE, **opt_kw):
    """Compile with the analyzer off so tests can mutate and re-lint."""
    opts = CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=mode, rounds=rounds,
        speclint=SpecLintMode.OFF, **opt_kw,
    )
    return compile_source(src, opts, train_args=list(train), name="chain")


def find_stmt(out, pred):
    for fn in out.module.iter_functions():
        for block in fn.blocks:
            for i, stmt in enumerate(block.stmts):
                if pred(stmt):
                    return block, i, stmt
    raise AssertionError("expected statement not found")


def is_check(stmt):
    return isinstance(stmt, Assign) and stmt.spec_flag.is_check


# -- seeded miscompiles are caught (the acceptance criterion) ----------


def test_deleted_check_is_caught_at_the_reuse():
    """M1: delete one emitted ld.c — the reuse after the speculated
    store is now unprotected; SPEC002 must name both locations."""
    out = compile_spec(MISSPEC_SRC)
    block, i, _ = find_stmt(
        out, lambda s: is_check(s) and not s.spec_flag.is_branching_check
    )
    del block.stmts[i]
    report = lint_output(out)
    errors = [d for d in report.errors if d.rule == "SPEC002"]
    assert errors, report.format()
    assert errors[0].loc is not None
    assert errors[0].function == "main"


def test_downgraded_cascade_check_is_caught():
    """M2: revert the cascade upgrade — turn the chk.a.nc back into a
    plain ld.c.nc with no recovery (the PR 1 bug)."""
    out = compile_spec(CHAIN_SRC)
    _, _, stmt = find_stmt(
        out, lambda s: is_check(s) and s.spec_flag.is_branching_check
    )
    stmt.spec_flag = SpecFlag.LD_C_NC
    stmt.recovery = None
    report = lint_output(out)
    errors = [d for d in report.errors if d.rule == "SPEC003"]
    assert errors, report.format()
    assert "chk.a" in errors[0].message
    assert errors[0].loc is not None


def test_truncated_recovery_is_caught():
    """M3: recovery that reloads only the checked temp, not the rest of
    the cascade chain (Figure 4 requires the whole chain)."""
    out = compile_spec(CHAIN_SRC)
    _, _, stmt = find_stmt(
        out,
        lambda s: is_check(s) and s.spec_flag.is_branching_check
        and s.recovery,
    )
    stmt.recovery = list(stmt.recovery)[:1]
    report = lint_output(out)
    errors = [d for d in report.errors if d.rule == "SPEC003"]
    assert errors, report.format()
    assert "re-execute" in errors[0].message


def test_strict_mode_fails_the_compilation():
    out = compile_spec(CHAIN_SRC)
    _, _, stmt = find_stmt(
        out, lambda s: is_check(s) and s.spec_flag.is_branching_check
    )
    stmt.spec_flag = SpecFlag.LD_C_NC
    stmt.recovery = None
    with pytest.raises(SpecLintError) as exc:
        run_speclint(out, SpecLintMode.STRICT)
    assert "SPEC003" in str(exc.value)
    # the findings stay on the output even when the phase raises
    assert out.diagnostics


def test_warn_mode_collects_and_emits_trace_events():
    out = compile_spec(CHAIN_SRC)
    _, _, stmt = find_stmt(
        out, lambda s: is_check(s) and s.spec_flag.is_branching_check
    )
    stmt.spec_flag = SpecFlag.LD_C_NC
    stmt.recovery = None
    sink = MemorySink()
    report = run_speclint(out, SpecLintMode.WARN, obs=TraceContext(sink))
    assert report.errors
    events = sink.of_type("speclint.diag")
    assert events and any(e["rule"] == "SPEC003" for e in events)
    assert all("loc" in e and "severity" in e for e in events)


# -- MIR-level rules ---------------------------------------------------


def mir_chk(out):
    from repro.target.isa import ChkA

    fn = out.program.functions["main"]
    chks = [i for i in fn.instrs if isinstance(i, ChkA)]
    assert chks, "cascade must lower to chk.a"
    return fn, chks[0]


def test_mir_unknown_recovery_label():
    out = compile_spec(MISSPEC_SRC)
    _, chk = mir_chk(out)
    chk.recovery_label = ".nowhere"
    errors = [
        d for d in lint_program(out.program)
        if d.rule == "SPEC008" and d.severity is Severity.ERROR
    ]
    assert errors, "retargeted chk.a recovery must be flagged"


def test_mir_recovery_missing_rejoin_branch():
    from repro.target.isa import Br

    out = compile_spec(MISSPEC_SRC)
    fn, chk = mir_chk(out)
    start = fn.label_index(chk.recovery_label) + 1
    for j in range(start, len(fn.instrs)):
        if isinstance(fn.instrs[j], Br):
            del fn.instrs[j]
            break
    else:
        raise AssertionError("recovery has no rejoin branch to delete")
    errors = [d for d in lint_program(out.program) if d.rule == "SPEC008"]
    assert errors, "recovery without a rejoin branch must be flagged"


# -- one planted defect for each rule no compilation trips -------------


def only(diags, rule, severity):
    found = [d for d in diags if d.rule == rule and d.severity is severity]
    assert len(found) == 1, [d.format() for d in diags]
    return found[0]


def test_spec001_computed_redefinition_reaches_a_check():
    """``pr2 = pr3`` planted right before ``pr2``'s ld.c.nc: the check
    compares memory with a value memory never held."""
    out = compile_spec(MISSPEC_SRC)
    block, i, check = find_stmt(
        out, lambda s: is_check(s) and not s.spec_flag.is_branching_check
    )
    source = find_stmt(
        out, lambda s: isinstance(s, Assign) and s.target.name == "pr3"
    )[2].target
    plant = Assign(check.target, VarRead(source))
    block.insert(i, plant)
    diag = only(lint_output(out).diagnostics, "SPEC001", Severity.ERROR)
    assert diag.function == "main"
    assert diag.sid == check.sid
    assert diag.message == (
        f"check of {check.target.name} is reachable from the computed "
        f"redefinition at sid {plant.sid} with no intervening sync store "
        f"or re-arm"
    )


def test_spec001_check_without_an_advanced_load():
    out = compile_spec(MISSPEC_SRC)
    block, i, arming = find_stmt(
        out,
        lambda s: isinstance(s, Assign) and s.spec_flag is SpecFlag.LD_A,
    )
    del block.stmts[i]
    _, _, check = find_stmt(
        out, lambda s: is_check(s) and s.target is arming.target
    )
    diag = only(lint_output(out).diagnostics, "SPEC001", Severity.WARN)
    assert (diag.function, diag.sid) == ("main", check.sid)
    assert diag.message == (
        f"check of {arming.target.name} is not dominated by an advanced "
        f"load, invala.e, or earlier check of the same temp"
    )


def test_spec004_hoisted_load_loses_its_in_loop_check():
    """Delete the loop's chk.a.nc: ``pi7``, armed by an ld.sa above the
    loop, is still read after the store that may redirect its pointer."""
    out = compile_spec(MISSPEC_SRC)
    block, i, _ = find_stmt(
        out, lambda s: is_check(s) and s.spec_flag.is_branching_check
    )
    del block.stmts[i]
    _, _, use = find_stmt(
        out,
        lambda s: isinstance(s, Assign) and s.target.name == "s"
        and "pi7" in str(s.expr),
    )
    diag = only(lint_output(out).diagnostics, "SPEC004", Severity.ERROR)
    assert (diag.function, diag.sid, diag.loc) == ("main", use.sid, use.loc)
    assert diag.message == (
        "temp pi7 armed outside the loop at loop_head2 may be invalidated "
        "inside it but has no in-loop check"
    )


def test_spec005_invala_moved_off_the_dominating_point():
    """Figure 2: move the invala.e from the join into the branch that
    arms the entry; the later check is still reachable from it, but no
    longer dominated."""
    from repro.ir.stmt import InvalidateCheck
    from tests.test_pass_reference import PARTIAL_REDUNDANCY

    out = compile_spec(PARTIAL_REDUNDANCY, rounds=1)
    block, i, inv = find_stmt(out, lambda s: isinstance(s, InvalidateCheck))
    arm_block, _, _ = find_stmt(
        out,
        lambda s: isinstance(s, Assign) and s.target is inv.temp
        and s.spec_flag.is_advanced_load,
    )
    _, _, check = find_stmt(
        out, lambda s: is_check(s) and s.target is inv.temp
    )
    del block.stmts[i]
    arm_block.insert(0, inv)
    diag = only(lint_output(out).diagnostics, "SPEC005", Severity.ERROR)
    assert (diag.function, diag.sid) == ("main", inv.sid)
    assert diag.message == (
        f"invala.e of {inv.temp.name} reaches the check at {check.loc} "
        f"without dominating it"
    )


def _mir_ld_c(out):
    from repro.target.isa import LdC

    fn = out.program.functions["main"]
    return fn, next(i for i, x in enumerate(fn.instrs) if isinstance(x, LdC))


def test_spec007_computed_redefinition_reaches_a_machine_check():
    from repro.target.isa import MovI

    out = compile_spec(MISSPEC_SRC)
    fn, at = _mir_ld_c(out)
    reg = fn.instrs[at].rd
    fn.instrs.insert(at, MovI(reg, 0))
    diag = only(lint_program(out.program), "SPEC007", Severity.ERROR)
    assert (diag.function, diag.sid) == ("main", at + 1)
    assert diag.message == (
        f"check of r{reg} is reachable from the computed redefinition at "
        f"instruction {at} with no intervening re-arm or sync store"
    )


def test_spec007_machine_check_without_an_anchor():
    from repro.target.isa import Ld, LoadKind

    out = compile_spec(MISSPEC_SRC)
    fn, at = _mir_ld_c(out)
    reg = fn.instrs[at].rd
    arming = next(
        i for i, x in enumerate(fn.instrs)
        if isinstance(x, Ld) and x.rd == reg and x.kind is LoadKind.ADVANCED
    )
    del fn.instrs[arming]
    diag = only(lint_program(out.program), "SPEC007", Severity.WARN)
    assert (diag.function, diag.sid) == ("main", at - 1)
    assert diag.loc == fn.instrs[at - 1].loc
    assert diag.message == (
        f"check of r{reg} is not dominated by an advanced load, invala.e, "
        f"or earlier check of the same register"
    )


# -- legal compilations are clean (no false positives) -----------------


@pytest.mark.parametrize("mode", list(SpecMode))
@pytest.mark.parametrize("rounds", [1, 2])
def test_cascade_sources_pass_strict(mode, rounds):
    for src in (CHAIN_SRC, MISSPEC_SRC):
        opts = CompilerOptions(
            opt_level=OptLevel.O3, spec_mode=mode, rounds=rounds
        )
        out = compile_source(src, opts, train_args=[6], name="chain")
        # PRESSURE advisories (the promotion gate's profitability
        # warnings) are not speclint findings: this test guards the
        # safety rules against false positives, so filter them out.
        diags = [d for d in out.diagnostics if d.rule != "PRESSURE"]
        assert not diags, [d.format() for d in diags]


#: SSAPRE under ``rounds=2`` forwards the value of ``*p0 = arr[..]``
#: into both temps caching the location, then stores it:
#: ``pi5 = pi7; pi6 = pi7; *(pr2) = pi7`` (a reduced chaos program).
FORWARDED_STORE_SRC = """
int g0; int g1; int g2; int g3;
int arr[8];
int *p0;
int helper(int x) {
}
int main(int n) {
    p0 = &g0;
    int s = 0;
    for (int i = 0; i < n % 9; i = i + 1) {
            s = s + helper(((i + g1) * (*p0 * i)));
            *p0 = arr[i % 8];
            if (s > 4200) { break; }
            s = s + (arr[i % 8] * *p0);
    }
}
"""


def _forwarded_store(out):
    """The store ending a run ``t1 = e; t2 = e; *(q) = e``."""
    def shape(block, i):
        stmt = block.stmts[i]
        return (
            isinstance(stmt, Store) and i >= 2
            and all(
                isinstance(prev, Assign) and str(prev.expr) == str(stmt.value)
                for prev in block.stmts[i - 2:i]
            )
        )

    for fn in out.module.iter_functions():
        for block in fn.blocks:
            for i in range(len(block.stmts)):
                if shape(block, i):
                    return block, i
    raise AssertionError("expected a forwarded store")


def test_forwarded_store_syncs_every_temp_of_the_run():
    out = compile_spec(FORWARDED_STORE_SRC, train=(82,))
    _forwarded_store(out)
    assert not lint_output(out).errors


def test_sync_run_broken_by_a_write_to_a_read_temp_still_fires():
    """``t1 = x + 1; x = x + 1; t2 = x + 1; *(q) = x + 1``: every
    assignment has the stored text, but the middle one writes ``x``, so
    the store syncs ``t2`` only.  ``t1`` holds the old value, and its
    reuse past the store must be flagged."""
    out = compile_spec(FORWARDED_STORE_SRC, train=(82,))
    block, i = _forwarded_store(out)
    x = block.stmts[i].value.var

    def bumped():
        return BinOp(BinOpKind.ADD, VarRead(x), ConstInt(1))

    for stmt in block.stmts[i - 2:i]:
        stmt.expr = bumped()
    block.stmts[i].value = bumped()
    block.stmts.insert(i - 1, Assign(x, bumped()))
    errors = [d for d in lint_output(out).errors if d.rule == "SPEC002"]
    assert errors


@pytest.mark.parametrize("bench", ["gzip", "mcf", "equake"])
def test_workloads_pass_strict(bench):
    from repro.workloads.programs import get_workload

    w = get_workload(bench)
    for mode in (SpecMode.PROFILE, SpecMode.SOFTWARE):
        opts = CompilerOptions(
            opt_level=OptLevel.O3, spec_mode=mode, rounds=2
        )
        out = compile_source(
            w.source, opts, train_args=list(w.train_args), name=bench
        )
        errors = [d for d in out.diagnostics if d.severity is Severity.ERROR]
        assert not errors, [d.format() for d in errors]


def test_alat_pressure_warning_on_tiny_alat():
    """gzip keeps more advanced loads live in its loop than a 2-entry
    ALAT holds — SPEC006 warns, but never fails the compilation."""
    from repro.workloads.programs import get_workload

    w = get_workload("gzip")
    opts = CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, rounds=1,
        machine=MachineConfig(alat=ALATConfig(entries=2)),
    )
    out = compile_source(
        w.source, opts, train_args=list(w.train_args), name="gzip"
    )
    warns = [d for d in out.diagnostics if d.rule == "SPEC006"]
    assert warns, "2-entry ALAT must trip the pressure heuristic"
    assert all(d.severity is Severity.WARN for d in warns)


# -- translation validation --------------------------------------------


def test_translation_validation_clean():
    opts = CompilerOptions(
        opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE, rounds=2
    )
    diags = validate_translation(
        MISSPEC_SRC, opts, args=[100], train_args=[15], name="chain"
    )
    assert diags == []


def test_translation_validation_reports_first_divergence():
    """Strip every check from the speculative module: the stale temp
    survives the aliasing store and the print stream diverges — SPEC009
    must carry the Loc of the first divergent print."""
    base = compile_spec(MISSPEC_SRC, mode=SpecMode.NONE)
    spec = compile_spec(MISSPEC_SRC)
    stripped = 0
    for fn in spec.module.iter_functions():
        for block in fn.blocks:
            for i in reversed(range(len(block.stmts))):
                s = block.stmts[i]
                if is_check(s):
                    del block.stmts[i]
                    stripped += 1
    assert stripped, "expected checks to strip"
    diags = diff_executions(
        base.module, spec.module, [100], name="chain"
    )
    assert diags and all(d.rule == "SPEC009" for d in diags)
    assert any(d.loc is not None for d in diags)


# -- rendering and registry --------------------------------------------


def test_diagnostic_rendering_text_and_json():
    out = compile_spec(CHAIN_SRC)
    _, _, stmt = find_stmt(
        out, lambda s: is_check(s) and s.spec_flag.is_branching_check
    )
    stmt.spec_flag = SpecFlag.LD_C_NC
    stmt.recovery = None
    report = lint_output(out)
    text = report.format()
    assert "error: SPEC" in text and "[in main]" in text
    assert "error(s)" in text
    payload = json.loads(report.to_json())
    diags = payload["diagnostics"]
    assert diags and {"rule", "severity", "message", "loc", "line"} <= set(
        diags[0]
    )


def test_rule_table_matches_design_doc():
    """DESIGN.md section 10 is the documented registry; every rule id and
    its invariant text must match RULE_TABLE exactly."""
    with open("DESIGN.md") as f:
        design = f.read()
    section = design.split("## 10.")[1]
    for rule, (invariant, anchor) in RULE_TABLE.items():
        assert f"`{rule}`" in section, f"{rule} missing from DESIGN.md §10"
        assert invariant in section.replace("\n", " "), (
            f"{rule} invariant text drifted from DESIGN.md §10"
        )
        assert anchor in section, f"{rule} paper anchor missing"
    ids = {w.strip("`") for w in section.split() if w.startswith("`SPEC")}
    assert ids == set(RULE_TABLE), "DESIGN.md lists rules not in RULE_TABLE"


# -- verifier call-site checks (rides along in this PR) ----------------


CALL_SRC = """
int g;

int helper(int x) {
    return x + 1;
}

int main(int n) {
    int *q;
    q = &g;
    print(*q);
    return helper(n);
}
"""


def get_call(module):
    for fn in module.iter_functions():
        for stmt in fn.iter_stmts():
            if isinstance(stmt, Call) and stmt.callee == "helper":
                return fn, stmt
    raise AssertionError("no call to helper")


def test_verify_accepts_well_formed_call():
    verify_module(compile_to_ir(CALL_SRC))


def test_verify_rejects_unknown_callee():
    module = compile_to_ir(CALL_SRC)
    _, call = get_call(module)
    call.callee = "nonexistent"
    with pytest.raises(VerificationError, match="unknown function"):
        verify_module(module)


def test_verify_rejects_wrong_arg_count():
    module = compile_to_ir(CALL_SRC)
    _, call = get_call(module)
    call.args.append(call.args[0])
    with pytest.raises(VerificationError, match="argument"):
        verify_module(module)


def test_verify_rejects_result_type_mismatch():
    module = compile_to_ir(CALL_SRC)
    fn, call = get_call(module)
    pointer_var = next(
        v for v in fn.all_variables() if v.type.is_pointer
    )
    call.result = pointer_var
    with pytest.raises(VerificationError, match="result type"):
        verify_module(module)
