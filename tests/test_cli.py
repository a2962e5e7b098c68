import json
import os
import subprocess
import sys

import pytest

from eqbounds.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_conjI_json(tmp_path, capsys):
    code, out, _ = run_cli(
        ["conjI", "--n", "3", "--iters", "5", "--seed", "1", "--json",
         "--witness-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "conjI"
    assert data["verdict"] == "confirmed-at-scale"


def test_solve_linear(tmp_path, capsys):
    f = tmp_path / "chain.txt"
    f.write_text("x1 = 1\nx1 + x1 = x2\nx2 + x2 = x3\n")
    code, out, _ = run_cli(["solve", str(f)], capsys)
    assert code == 0
    assert "unique solution: (1, 2, 4)" in out


def test_solve_inconsistent(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("x1 = 1\nx1 + x1 = x1\n")
    code, out, _ = run_cli(["solve", str(f)], capsys)
    assert code == 0
    assert "consistent: false" in out


def test_solve_poly_extremal(tmp_path, capsys):
    f = tmp_path / "chain.txt"
    f.write_text("x1 + x1 = x2\nx1 * x1 = x2\nx2 * x2 = x3\nx3 * x3 = x4\n")
    code, out, _ = run_cli(["solve", str(f), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "zero_dimensional"
    assert len(data["solutions"]) == 2
    assert data["max_modulus"] == pytest.approx(256.0, abs=1e-6)


def test_solve_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("x1 + = x2\n")
    code, _, err = run_cli(["solve", str(f)], capsys)
    assert code == 1
    assert "line 1" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conj5", "--variant", "z"])
    assert exc.value.code == 64


@pytest.mark.parametrize("args, message", [
    (["conj3", "--exhaustive", "--n", "6"], "eqbounds: exhaustive enumeration capped at n = 5"),
    (["obs2", "--n", "5", "--iters", "1"], "eqbounds: hat search only supports n <= 4"),
], ids=["conj3-cap", "obs2-precondition"])
def test_driver_refusal_is_an_execution_error(args, message, tmp_path, capsys):
    code, out, err = run_cli([*args, "--witness-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == message + "\n"


def test_negative_iters_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjI", "--iters", "-1"])
    assert exc.value.code == 64
    assert "argument --iters: expected an integer >= 0, got '-1'" in capsys.readouterr().err
    code, out, _ = run_cli(["conjI", "--iters", "0", "--json", "--witness-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    assert json.loads(out)["trials"]["attempted"] == 0


def test_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_range_flag(tmp_path, capsys):
    code, out, _ = run_cli(
        ["conj3", "--n", "3", "--exhaustive", "--range", "0..50", "--json",
         "--witness-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["config"]["range"] == [0, 50]
    assert data["trials"]["attempted"] == 50


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "eqbounds.cli", "conj4", "--n", "3", "--iters", "5",
         "--seed", "2", "--witness-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "conj4: confirmed-at-scale" in result.stdout


def test_closed_stdout_is_not_an_error(tmp_path):
    # the reader is gone before the report is written, as under `| head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "eqbounds.cli", "conjI", "--n", "3", "--iters", "1",
             "--json", "--witness-dir", str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == ""


def test_range_requires_exhaustive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conj3", "--range", "0..10"])
    assert exc.value.code == 64


def test_public_api_imports():
    import eqbounds

    assert callable(eqbounds.solve_zero_dim)
    assert callable(eqbounds.pseudoinverse)
    assert eqbounds.__version__
