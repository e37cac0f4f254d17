"""Matrix literal parsing, file loading, and the command-line surface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numradius.cli import (
    MatrixSyntaxError,
    format_matrix,
    load_matrix_file,
    main,
    parse_matrix,
)

# --- literal grammar -----------------------------------------------------------


def test_parse_semicolon_form():
    M = parse_matrix("[1,2;3,4]")
    assert np.array_equal(M, np.array([[1, 2], [3, 4]], dtype=complex))


def test_parse_bracketed_rows_form():
    # rows are always ';'-separated; brackets around each row are tolerated
    M = parse_matrix("[[1,2];[3,4]]")
    assert np.array_equal(M, np.array([[1, 2], [3, 4]], dtype=complex))


def test_parse_complex_entries():
    M = parse_matrix("[1+2i, -i; 3i, 2-0.5i]")
    assert M[0, 0] == 1 + 2j
    assert M[0, 1] == -1j
    assert M[1, 0] == 3j
    assert M[1, 1] == 2 - 0.5j


def test_parse_bare_imaginary_units():
    M = parse_matrix("[i,+i;-i,0i]")
    assert np.array_equal(M, np.array([[1j, 1j], [-1j, 0]], dtype=complex))


def test_parse_exponents_and_leading_dot():
    M = parse_matrix("[1e-3, .5; 5., 2.5e2i]")
    assert M[0, 0] == 1e-3
    assert M[0, 1] == 0.5
    assert M[1, 0] == 5.0
    assert M[1, 1] == 250j


def test_parse_tolerates_whitespace():
    M = parse_matrix("  [ 1 , 2 ;\n 3 , 4 ]  ")
    assert np.array_equal(M, np.array([[1, 2], [3, 4]], dtype=complex))


def test_parse_one_by_one():
    assert parse_matrix("[5]")[0, 0] == 5.0


def test_parse_ragged_rows_reports_position():
    with pytest.raises(MatrixSyntaxError) as exc:
        parse_matrix("[1,2;3]")
    assert "line 1" in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.col >= 1


def test_parse_garbage_entry_rejected():
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("[1,fish;2,3]")


def test_parse_unbalanced_brackets_rejected():
    for bad in ("[1,2;3,4", "1,2;3,4]", "[[1,2],[3,4]"):
        with pytest.raises(MatrixSyntaxError):
            parse_matrix(bad)


def test_parse_empty_rejected():
    for bad in ("", "[]", "[;]"):
        with pytest.raises(MatrixSyntaxError):
            parse_matrix(bad)


def test_syntax_error_is_value_error():
    assert issubclass(MatrixSyntaxError, ValueError)


def test_format_parse_round_trip_exact():
    rng = np.random.default_rng(8321)
    for n in (1, 2, 3, 5):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        again = parse_matrix(format_matrix(M))
        assert np.array_equal(again, M.astype(np.complex128))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e12),
        min_size=1,
        max_size=9,
    )
)
def test_format_parse_round_trip_fuzz(entries):
    n = int(math.isqrt(len(entries)))
    if n * n == 0:
        return
    M = np.array(entries[: n * n], dtype=np.complex128).reshape(n, n)
    assert np.array_equal(parse_matrix(format_matrix(M)), M)


# --- matrix files ----------------------------------------------------------------


def test_load_matrix_file_round_trip(tmp_path):
    M = np.array([[1 + 2j, -1j], [0.5, 3]], dtype=complex)
    p = tmp_path / "m.json"
    p.write_text(
        json.dumps(
            {
                "rows": 2,
                "cols": 2,
                "data": [[z.real, z.imag] for z in M.reshape(-1)],
            }
        )
    )
    assert np.array_equal(load_matrix_file(str(p)), M)


def test_load_matrix_file_rejects_bad_counts(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]]}))
    with pytest.raises(ValueError):
        load_matrix_file(str(p))


# --- subcommands, in process ------------------------------------------------------


def test_radius_text_output(capsys):
    assert main(["radius", "--t", "[1,1;0,-1]"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "omega: 1.11803398875"


def test_radius_json_output(capsys):
    assert main(["radius", "--t", "[2,0;0,0]", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == 2.0
    lo, hi = doc["enclosure"]
    assert lo <= 2.0 <= hi


def test_radius_accepts_positional_literal(capsys):
    assert main(["radius", "[0,1;0,0]"]) == 0
    assert "omega: 0.5" in capsys.readouterr().out


def test_crawford_output(capsys):
    assert main(["crawford", "--t", "[2,0;0,1]"]) == 0
    assert capsys.readouterr().out.strip() == "crawford: 1"


def test_range_csv_header_and_count(capsys):
    assert main(["range", "--t", "[1,1;0,-1]", "--samples", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 9


def test_range_json(capsys):
    assert main(["range", "--t", "[1,0;0,0]", "--samples", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_deriv_reports_convergence(capsys):
    assert main(["deriv", "--t", "[0,1;0,-1]", "--s", "[1,0;0,0]", "--theta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert out.startswith("derivative: ")


def test_inf_deriv_output(capsys):
    assert main(["inf-deriv", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]"]) == 0
    out = capsys.readouterr().out
    val = float(out.splitlines()[0].split(": ")[1])
    assert val == pytest.approx(-2.0, abs=1e-6)  # -(2/3) * omega(T) omega(S)


def test_ortho_verdict_fields(capsys):
    assert main(["ortho", "--t", "[1i,0;0,0]", "--s", "[0,1;0,-1]", "--eps", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "verdict: ORTHOGONAL"
    assert "epsilon-star: 0" in out
    assert "method: derivative" in out


def test_ortho_direct_method(capsys):
    rc = main(
        ["ortho", "--t", "[0,1;0,-1]", "--s", "[1i,0;0,0]", "--eps", "0", "--method", "direct"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "verdict: NOT ORTHOGONAL"
    assert "method: direct" in out


def test_min_eps_worked_value(capsys):
    assert main(["min-eps", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]"]) == 0
    val = float(capsys.readouterr().out.split(": ")[1])
    assert val == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_bj_ortho_verdict(capsys):
    assert main(["bj-ortho", "--t", "[0,1;0,-1]", "--s", "[1,0;0,0]", "--eps", "0"]) == 0
    assert "ORTHOGONAL" in capsys.readouterr().out


def test_oracle_scan_output(capsys):
    rc = main(
        ["oracle-scan", "--t", "[1i,0;0,0]", "--s", "[0,1;0,-1]", "--eps", "0", "--grid", "32"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    margin = float(out.splitlines()[0].split(": ")[1])
    assert margin >= -1e-9


def test_matrix_from_file_flag(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[2, 0], [0, 0], [0, 0], [0, 0]]}))
    assert main(["radius", "--t-file", str(p)]) == 0
    assert "omega: 2" in capsys.readouterr().out


def test_paper_check_passes_and_is_deterministic(capsys):
    assert main(["paper-check"]) == 0
    first = capsys.readouterr().out
    assert main(["paper-check"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("PASS") == 18
    assert "FAIL" not in first
    assert first.strip().endswith("18/18 claims passed")


# --- exit codes -------------------------------------------------------------------


def test_bad_literal_exits_2(capsys):
    assert main(["radius", "--t", "[1,2;3]"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_second_matrix_exits_2(capsys):
    assert main(["ortho", "--t", "[1,0;0,1]", "--eps", "0.1"]) == 2


def test_conflicting_matrix_sources_exit_2(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[1, 0]]}))
    assert main(["radius", "--t", "[1]", "--t-file", str(p)]) == 2


def test_small_sample_count_exits_2(capsys):
    assert main(["range", "--t", "[1,0;0,1]", "--samples", "2"]) == 2


def test_bad_epsilon_exits_2(capsys):
    assert main(["ortho", "--t", "[1,0;0,1]", "--s", "[1,0;0,0]", "--eps", "1.5"]) == 2


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.1", "1.0"])
def test_oracle_scan_bad_epsilon_exits_2(eps, capsys):
    argv = ["oracle-scan", "--t", "[1,0;0,0]", "--s", "[0,1;0,0]", f"--eps={eps}"]
    assert main(argv) == 2
    assert "epsilon" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["does-not-exist"]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["radius", "--t-file", "/nonexistent/m.json"]) == 2


def test_small_oracle_grid_exits_2(capsys):
    rc = main(["oracle-scan", "--t", "[1]", "--s", "[1]", "--eps", "0", "--grid", "16"])
    assert rc == 2


def test_flags_are_rejected_where_unused(capsys):
    # only oracle-scan reads --grid; only radius, crawford, deriv and
    # inf-deriv read --tol
    assert main(["ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.7", "--grid", "64"]) == 2
    assert main(["min-eps", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--tol", "1e-6"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", "--t", "[1,1;0,-1]"],
        ["crawford", "--t", "[1,1;0,-1]"],
        ["deriv", "--t", "[1,1;0,-1]", "--s", "[1,0;0,1]"],
        ["inf-deriv", "--t", "[1,1;0,-1]", "--s", "[1,0;0,1]"],
    ],
)
def test_zero_tolerance_exits_2(capsys, argv):
    # a zero tolerance is an error, not a request for the default
    assert main(argv + ["--tol", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", "--t", "[1,1;0,-1]"],
        ["crawford", "--t", "[1,1;0,-1]"],
        ["deriv", "--t", "[1,1;0,-1]", "--s", "[1,0;0,1]"],
        ["inf-deriv", "--t", "[1,1;0,-1]", "--s", "[1,0;0,1]"],
    ],
)
def test_infinite_tolerance_exits_2(capsys, argv):
    assert main(argv + ["--tol", "inf"]) == 2
    assert "tol" in capsys.readouterr().err


# --- installed entry point ---------------------------------------------------------


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "numradius.cli", "radius", "--t", "[1,1;0,1]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "omega: 1.5"
