"""Error hierarchy and diagnostic quality."""

import pytest

import repro
from repro.errors import (
    CodegenError,
    InterpError,
    LexError,
    MachineError,
    ParseError,
    ReproError,
    SemanticError,
    SourceError,
    VerificationError,
)
from repro.minic import compile_to_ir
from repro.pipeline import compile_and_run, run_program


def test_hierarchy():
    for exc in (
        LexError,
        ParseError,
        SemanticError,
        VerificationError,
        InterpError,
        CodegenError,
        MachineError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(LexError, SourceError)
    assert issubclass(ParseError, SourceError)
    assert issubclass(SemanticError, SourceError)


def test_source_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        compile_to_ir("int main() {\n  return 1 2;\n}")
    assert exc.value.line == 2
    assert "2:" in str(exc.value)
    with pytest.raises(LexError) as lex_exc:
        compile_to_ir("int main() {\n  return @;\n}")
    assert lex_exc.value.line == 2


def test_one_catch_all_for_users():
    """A downstream user can wrap everything in `except ReproError`."""
    bad_inputs = [
        "int main( { }",                          # parse
        "int main() { return x; }",               # sema
        "int main() { int *p = 0; return *p; }",  # runtime (interp)
    ]
    for source in bad_inputs:
        with pytest.raises(ReproError):
            run_program(source, [])


def test_machine_fault_is_repro_error():
    with pytest.raises(ReproError):
        compile_and_run("int main() { int *p = 0; *p = 1; return 0; }")


def test_interp_error_message_names_the_problem():
    with pytest.raises(InterpError) as exc:
        run_program("int main() { return 1 / 0; }", [])
    assert "zero" in str(exc.value)


def test_wrong_arity_arguments():
    with pytest.raises(InterpError):
        run_program("int main(int a, int b) { return a + b; }", [1])


def test_public_error_export():
    assert repro.ReproError is ReproError


DEEP = """
int down(int n) {
    if (n == 0) { return 0; }
    return down(n - 1) + 1;
}

int main(int n) { return down(n); }
"""


def test_deep_guest_recursion_is_a_typed_error_on_both_engines():
    """Guest recursion deeper than the host stack holds ends in the
    engine's own error, naming the function, as every other guest
    runtime error does, not in a RecursionError."""
    from repro.pipeline import CompilerOptions, compile_source
    from repro.workloads.runner import SPECULATIVE

    message = "call to down overflowed the host stack"
    with pytest.raises(InterpError, match=message):
        run_program(DEEP, [2000])
    with pytest.raises(InterpError, match=message):  # the profiling run
        compile_source(DEEP, SPECULATIVE(), train_args=[2000])
    output = compile_source(DEEP, CompilerOptions())
    with pytest.raises(MachineError, match=message):
        output.run([2000])
    with pytest.raises(MachineError, match=message):
        output.run([2000], profile=True)  # the probed loop
    # recursion that fits still completes on both
    assert run_program(DEEP, [100]).exit_value == 100
    assert output.run([100]).exit_value == 100
