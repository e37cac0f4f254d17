"""Matrix literal parsing, file loading, and the command-line surface."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numradius import cli
from numradius.cli import (
    MatrixSyntaxError,
    format_matrix,
    load_matrix_file,
    main,
    parse_matrix,
)
from numradius.wderiv import ConvergenceError

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


@pytest.mark.parametrize(
    "bad, message",
    [
        ("[1,;2,3]", "empty entry"),
        ("[1,2];[3,4]", "unbalanced ']'"),
        ("[[1,2]3;4,5]", "row bracket not closed"),
        ("[1,[2];3,4]", "nested brackets inside an entry"),
    ],
)
def test_parse_errors_name_the_fault(bad, message):
    with pytest.raises(MatrixSyntaxError, match=re.escape(message)):
        parse_matrix(bad)


def test_parse_empty_rejected():
    for bad in ("", "[]", "[;]"):
        with pytest.raises(MatrixSyntaxError):
            parse_matrix(bad)


def test_syntax_error_is_value_error():
    assert issubclass(MatrixSyntaxError, ValueError)


def test_format_rejects_an_empty_array():
    with pytest.raises(ValueError, match="nonempty"):
        format_matrix(np.zeros((0, 0)))


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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"rows": 0, "cols": 0, "data": []}, "must be positive"),
        ({"rows": 1, "cols": 1, "data": [[1, 0, 2]]}, "is not a [re, im] pair"),
    ],
)
def test_load_matrix_file_rejects_bad_shapes(tmp_path, payload, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix_file(str(p))


@pytest.mark.parametrize(
    "payload, message",
    [
        ([[1, 0]], "expected a JSON object, got list"),
        ({"rows": None, "cols": 1, "data": [[1, 0]]}, 'expected integer "rows" and "cols"'),
        ({"cols": 1, "data": [[1, 0]]}, 'expected integer "rows" and "cols", and "data"'),
        ({"rows": 1, "cols": 1, "data": 5}, "data must be a list of [re, im] pairs"),
        ({"rows": 1, "cols": 1, "data": [5]}, "data[0] is not a [re, im] pair"),
        ({"rows": 1, "cols": 1, "data": [{"re": 1, "im": 0}]}, "data[0] is not a [re, im] pair"),
        ({"rows": 1, "cols": 1, "data": [[None, 0]]}, "data[0] holds a non-number"),
        ({"rows": 1.7, "cols": True, "data": [[1, 0]]}, 'expected integer "rows" and "cols"'),
        ({"rows": "1", "cols": 1, "data": [[1, 0]]}, 'expected integer "rows" and "cols"'),
        ({"rows": 1, "cols": 1, "data": [["1.5", False]]}, "data[0] holds a non-number"),
        ({"rows": 1, "cols": 1, "data": [[True, 0]]}, "data[0] holds a non-number"),
        ({"rows": 1, "cols": 1, "data": [[10**400, 0]]}, "data[0] holds a number too large"),
    ],
)
def test_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, payload, message):
    # each is a usage error (exit 2, "error: ..."): a TypeError traceback
    # would exit 1, the code of numerical non-convergence
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix_file(str(p))
    capsys.readouterr()
    assert main(["radius", "--t-file", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


def test_complex_output_drops_zero_parts():
    assert [cli._gc(z) for z in (2.0, -0.5j, 1 - 2j, -0j)] == ["2", "-0.5i", "1-2i", "0"]


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


@pytest.mark.parametrize(
    "argv", [["radius", "--t", "[1,0;0,0]", "--format", "csv"], ["range", "[1,0;0,0]", "--format", "text"]]
)
def test_format_outside_the_subcommands_choices_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "--format" in capsys.readouterr().err
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("method", ["closed-form", "direct"])
def test_bj_ortho_methods(method, capsys):
    # [2,0;0,0] vs [1,1;0,1]: eps* = |u* S v| / ||S|| = 1 / ||S|| = 0.618...
    base = ["bj-ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--format", "json"]
    estar = 2.0 / (1.0 + math.sqrt(5.0))
    for eps, want in ((0.3, False), (0.7, True)):
        assert main(base + ["--eps", str(eps), "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["orthogonal"] is want
        assert doc["epsilon"] == eps
        assert doc["method"] == method
        if method == "closed-form":
            assert doc["epsilon_star"] == pytest.approx(estar, abs=1e-11)
        else:
            # the direct scan reports its verdict only, no threshold
            assert "epsilon_star" not in doc


def test_bj_ortho_defaults_to_the_closed_form(capsys):
    assert main(["bj-ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: NOT ORTHOGONAL"
    assert lines[2] == "epsilon-star: 0.61803398875"
    assert lines[3] == "method: closed-form"


def test_bj_ortho_direct_text_output(capsys):
    argv = ["bj-ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.7"]
    assert main(argv + ["--method", "direct"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["verdict: ORTHOGONAL", "epsilon: 0.7", "method: direct"]


def test_bj_ortho_bad_method_exits_2(capsys):
    argv = ["bj-ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.3"]
    assert main(argv + ["--method", "derivative"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_oracle_scan_output(capsys):
    rc = main(
        ["oracle-scan", "--t", "[1i,0;0,0]", "--s", "[0,1;0,-1]", "--eps", "0", "--grid", "32"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    margin = float(out.splitlines()[0].split(": ")[1])
    assert margin >= -1e-9


def _text_of_json(value) -> str:
    """A JSON value as the text format prints it."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list) and value and isinstance(value[0], list):
        return "[" + ";".join(cli._gc(complex(*z)) for z in value) + "]"
    if isinstance(value, list):
        return cli._gc(complex(*value))
    if isinstance(value, float):
        return cli._g(value)
    return str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", "--t", "[1,1;0,-1]"],
        ["crawford", "--t", "[2,0;0,1]"],
        ["deriv", "--t", "[0,1;0,-1]", "--s", "[1,0;0,0]", "--theta", "0.5"],
        ["inf-deriv", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]"],
        ["ortho", "--t", "[1i,0;0,0]", "--s", "[0,1;0,-1]", "--eps", "0"],
        ["ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.3", "--method", "direct"],
        ["min-eps", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]"],
        ["bj-ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.7"],
        ["bj-ortho", "--t", "[2,0;0,0]", "--s", "[1,1;0,1]", "--eps", "0.3", "--method", "direct"],
        ["oracle-scan", "--t", "[1i,0;0,0]", "--s", "[0,1;0,-1]", "--eps", "0", "--grid", "32"],
    ],
    ids=lambda argv: argv[0] + ("-" + argv[-1] if "--method" in argv else ""),
)
def test_text_and_json_carry_the_same_fields(argv, capsys):
    # JSON keys are the text names with "_", "orthogonal" stands in for the
    # verdict line and radius adds "enclosure"; values are compared through
    # the 12-digit text rendering
    assert main(argv) == 0
    text = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if argv[0] == "radius":
        lo, hi = doc.pop("enclosure")
        assert lo <= doc["omega"] <= hi
    names = ["orthogonal" if n == "verdict" else n.replace("-", "_") for n, _ in text]
    assert names == list(doc)
    for (name, value), key in zip(text, names):
        if name == "verdict":
            assert value == ("ORTHOGONAL" if doc[key] else "NOT ORTHOGONAL")
        else:
            assert value == _text_of_json(doc[key]), key


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


def test_non_convergence_exits_1(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ConvergenceError("difference quotients failed to stabilize")

    monkeypatch.setattr(cli, "inf_derivative", fail)
    assert main(["inf-deriv", "--t", "[1,1;0,-1]", "--s", "[1,0;0,1]"]) == 1
    assert "failed to stabilize" in capsys.readouterr().err


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
