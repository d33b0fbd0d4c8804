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
