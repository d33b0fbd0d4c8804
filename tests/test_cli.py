"""The `python -m repro` command-line driver."""

import pytest

from repro.__main__ import build_parser, main

DEMO = """
int a; int b;
int *p;
int main(int n) {
    if (n > 100) { p = &a; } else { p = &b; }
    a = 7;
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += a; *p = s; s += a; }
    print(s);
    return s % 10;
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(DEMO)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basic_run(demo_file, capsys):
    code, out, _err = run_cli(capsys, [demo_file, "--args", "50"])
    assert out.splitlines() == ["700"]
    assert code == 0


def test_verify_mode(demo_file, capsys):
    code, out, err = run_cli(
        capsys,
        [demo_file, "--args", "50", "--train-args", "10",
         "--opt", "3", "--spec", "profile", "--verify"],
    )
    assert "verify: OK" in err
    assert out.splitlines() == ["700"]


def test_counters_output(demo_file, capsys):
    _code, _out, err = run_cli(
        capsys, [demo_file, "--args", "20", "--counters"]
    )
    assert "cpu_cycles" in err and "retired_loads" in err


def test_dump_ir(demo_file, capsys):
    _code, out, _err = run_cli(
        capsys,
        [demo_file, "--args", "10", "--spec", "heuristic", "--dump-ir"],
    )
    assert "func int main" in out


def test_dump_asm(demo_file, capsys):
    _code, out, _err = run_cli(capsys, [demo_file, "--args", "10", "--dump-asm"])
    assert "main:" in out and "ret" in out


def test_exit_code_propagates(demo_file, capsys):
    code, _out, _err = run_cli(capsys, [demo_file, "--args", "3"])
    # s = 3 iterations of (s += 7; *p = s; s += 7) with a=7 constant
    assert code == main([demo_file, "--args", "3"]) % 256


def test_parser_rejects_bad_opt(demo_file):
    with pytest.raises(SystemExit):
        build_parser().parse_args([demo_file, "--opt", "9"])


def test_missing_file_is_one_line_error_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.mc")
    code, out, err = run_cli(capsys, [missing, "--args", "5"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "nope.mc" in err


@pytest.mark.parametrize(
    "flag",
    ["--trace", "--metrics-out", "--trace-chrome", "--flamegraph",
     "--dump-pressure-dot"],
)
def test_unwritable_output_is_one_line_error_exit_2(
    demo_file, tmp_path, capsys, flag
):
    """An output path into a missing directory fails before the compile
    (nothing printed on stdout) with the missing-input error's shape."""
    target = str(tmp_path / "no-such-dir" / "out")
    code, out, err = run_cli(capsys, [demo_file, "--args", "5", flag, target])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"python -m repro: {target}: No such file or directory"
    ]


def test_unreadable_directory_is_one_line_error_exit_2(tmp_path, capsys):
    code, _out, err = run_cli(capsys, [str(tmp_path), "--args", "5"])
    assert code == 2
    assert len(err.strip().splitlines()) == 1


#: sources whose compile or run fails, and where the message points
FAILING = {
    "parse": ("int main() {\n  int x = ;\n  return 0;\n}\n",
              ": 2:11: unexpected token ';'"),
    "semantic": ("int main() {\n  float f = 1.5;\n  return 3 % f;\n}\n",
                 ": 3:12: % requires integer operands"),
    # the profiling run (n = 1) never divides; the simulated run does
    "guest division by zero": (
        "int main(int n) {\n  int z = 0;\n  if (n > 5) { z = 10 / (n - n); }\n"
        "  return z;\n}\n",
        ": integer division by zero",
    ),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_source_and_guest_errors_are_one_line_exit_2(
    name, tmp_path, capsys
):
    source, where = FAILING[name]
    path = tmp_path / "bad.mc"
    path.write_text(source)
    code, out, err = run_cli(
        capsys, [str(path), "--args", "10", "--train-args", "1"]
    )
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [f"python -m repro: {path}{where}"]


def test_guest_output_before_a_fault_reaches_stdout(tmp_path, capsys):
    path = tmp_path / "fault.mc"
    path.write_text(
        "int main(int n) { print(n); print(n + 1); int z = n - n; "
        "return 10 / z; }\n"
    )
    code, out, err = run_cli(capsys, [str(path), "--args", "3", "--spec", "none"])
    assert code == 2
    assert out == "3\n4\n"
    assert err.splitlines() == [
        f"python -m repro: {path}: integer division by zero"
    ]


def test_speclint_missing_file_is_one_line_exit_2(tmp_path, capsys):
    from repro.speclint.__main__ import main as speclint_main

    missing = tmp_path / "nope.mc"
    code = speclint_main([str(missing)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"python -m repro.speclint: {missing}: No such file or directory"
    ]


def test_speclint_parse_error_is_one_line_exit_2(tmp_path, capsys):
    from repro.speclint.__main__ import main as speclint_main

    path = tmp_path / "bad.mc"
    path.write_text(FAILING["parse"][0])
    code = speclint_main([str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"python -m repro.speclint: {path}{FAILING['parse'][1]}"
    ]
