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


#: ``(int)`` of a float with no integer value: a constant the folder
#: must leave alone, and inf and nan reached inside a loop (n > 9)
NON_FINITE = {
    "inf": """
int main(int n) {
    int k = 0;
    if (n > 5) { k = (int)(1.0e308 * 10.0); }
    return k;
}
""",
    "-inf": """
int main(int n) {
    float x = 0.0 - 1.0e300;
    int s = 0;
    int i = 0;
    while (i < n) { s = s + (int)(x / 1.0e300); x = x * 10.0; i = i + 1; }
    return s;
}
""",
    "nan": """
int main(int n) {
    float x = 1.0e300;
    int s = 0;
    int i = 0;
    while (i < n) { float y = x * 1.0; s = s + (int)((y - x) / 1.0e300); x = x * 10.0; i = i + 1; }
    return s;
}
""",
}


@pytest.mark.parametrize("threshold", [1, 256])
@pytest.mark.parametrize("value", sorted(NON_FINITE))
def test_float_to_int_of_a_non_finite_value_is_a_typed_error(
    value, threshold, monkeypatch
):
    """On both engines and every tier: the interpreter's closures and
    translated regions, and the simulator's tiering loop (translating
    everything at threshold 1), probed loop and translated regions."""
    from repro.ir import interp
    from repro.machine import translate
    from repro.pipeline import compile_source
    from repro.workloads.runner import BASELINE, SPECULATIVE

    monkeypatch.setattr(interp, "THRESHOLD", threshold)
    monkeypatch.setattr(translate, "THRESHOLD", threshold)
    source = NON_FINITE[value]
    message = f"^float-to-int conversion of {value}$"
    assert run_program(source, [3]).exit_value is not None
    with pytest.raises(InterpError, match=message):
        run_program(source, [20])
    for options in (BASELINE(), SPECULATIVE()):
        output = compile_source(source, options, train_args=[3])
        assert output.run([3]).exit_value == run_program(source, [3]).exit_value
        with pytest.raises(InterpError, match=message):
            output.interpret([20])
        with pytest.raises(MachineError, match=message):
            output.run([20])
        with pytest.raises(MachineError, match=message):
            output.run([20], profile=True)  # the probed loop
