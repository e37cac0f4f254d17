"""Command-line front door.

Matrix arguments are terse literals like ``[1,2i;0,-1]`` (rows split by
``;``, entries by ``,``, complex entries written ``a+bi``; the bracketed
row form ``[[1,2i];[0,-1]]`` is accepted too) or JSON files of the shape
``{"rows": n, "cols": n, "data": [[re, im], ...]}`` in row-major order.

Exit codes: 0 success, 2 parse/usage error, 1 numerical non-convergence
or a failing `paper-check` row.
All numeric output uses 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import oracle
from .linalg import as_matrix, spectral_norm
from .numrange import boundary_points, crawford_number, numerical_radius
from .wderiv import (
    ConvergenceError,
    inf_derivative,
    is_bj_orthogonal,
    is_omega_orthogonal,
    min_epsilon,
    min_epsilon_bj,
    omega_derivative,
)

__all__ = [
    "MatrixSyntaxError",
    "parse_matrix",
    "format_matrix",
    "load_matrix_file",
    "main",
]


class MatrixSyntaxError(ValueError):
    """Malformed matrix literal; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# matrix literals


_REAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_BOTH = re.compile(rf"([+-]?{_REAL})([+-](?:{_REAL})?)i\Z")
_RE_IMAG = re.compile(rf"([+-]?(?:{_REAL})?)i\Z")
_RE_REAL = re.compile(rf"[+-]?{_REAL}\Z")


def _linecol(text: str, idx: int) -> tuple[int, int]:
    line = text.count("\n", 0, idx) + 1
    col = idx - (text.rfind("\n", 0, idx) + 1) + 1
    return line, col


def _entry_value(token: str, text: str, pos: int) -> complex:
    s = "".join(token.split())  # whitespace is insignificant inside entries
    if not s:
        raise MatrixSyntaxError("empty entry", *_linecol(text, pos))
    m = _RE_BOTH.match(s)
    if m:
        sign = m.group(2)
        imag = float(sign + "1") if len(sign) == 1 else float(sign)
        return complex(float(m.group(1)), imag)
    m = _RE_IMAG.match(s)
    if m:
        head = m.group(1)
        if head in ("", "+"):
            return 1j
        if head == "-":
            return -1j
        return complex(0.0, float(head))
    if _RE_REAL.match(s):
        return complex(float(s), 0.0)
    raise MatrixSyntaxError(f"bad entry {token.strip()!r}", *_linecol(text, pos))


def _split_level0(text: str, lo: int, hi: int, sep: str):
    """Split text[lo:hi] on `sep` at bracket depth 0, yielding (start, part)."""
    parts = []
    depth = 0
    start = lo
    for i in range(lo, hi):
        ch = text[i]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise MatrixSyntaxError("unbalanced ']'", *_linecol(text, i))
        elif ch == sep and depth == 0:
            parts.append((start, text[start:i]))
            start = i + 1
    if depth != 0:
        raise MatrixSyntaxError("unbalanced '['", *_linecol(text, hi - 1))
    parts.append((start, text[start:hi]))
    return parts


def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix literal into a complex array.

    Grammar: ``'[' row (';' row)* ']'`` with comma-separated complex
    entries; each row may optionally be wrapped in its own brackets.
    Raises :class:`MatrixSyntaxError` (with line/column) on bad input.
    """
    i = 0
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text) or text[i] != "[":
        raise MatrixSyntaxError("expected '['", *_linecol(text, min(i, max(len(text) - 1, 0))))
    j = len(text) - 1
    while j > i and text[j].isspace():
        j -= 1
    if text[j] != "]":
        raise MatrixSyntaxError("expected closing ']'", *_linecol(text, j))
    body_lo, body_hi = i + 1, j
    if not text[body_lo:body_hi].strip():
        raise MatrixSyntaxError("empty matrix", *_linecol(text, i))
    rows = []
    for row_start, row_text in _split_level0(text, body_lo, body_hi, ";"):
        lo, hi = row_start, row_start + len(row_text)
        while lo < hi and text[lo].isspace():
            lo += 1
        while hi > lo and text[hi - 1].isspace():
            hi -= 1
        if lo >= hi:
            raise MatrixSyntaxError("empty row", *_linecol(text, row_start))
        if text[lo] == "[":  # bracketed row form
            if text[hi - 1] != "]":
                raise MatrixSyntaxError("row bracket not closed", *_linecol(text, lo))
            lo += 1
            hi -= 1
        entries = []
        for ent_start, ent_text in _split_level0(text, lo, hi, ","):
            if "[" in ent_text or "]" in ent_text:
                raise MatrixSyntaxError(
                    "nested brackets inside an entry", *_linecol(text, ent_start)
                )
            entries.append(_entry_value(ent_text, text, ent_start))
        if rows and len(entries) != len(rows[0][1]):
            raise MatrixSyntaxError(
                f"row has {len(entries)} entries, expected {len(rows[0][1])}",
                *_linecol(text, row_start),
            )
        rows.append((row_start, entries))
    return np.array([r for _, r in rows], dtype=np.complex128)


def _c17(z: complex) -> str:
    """Lossless literal for one entry (17 significant digits)."""
    re_, im_ = float(z.real), float(z.imag)
    if im_ == 0.0:
        return f"{re_:.17g}"
    if re_ == 0.0:
        return f"{im_:.17g}i"
    return f"{re_:.17g}{im_:+.17g}i"


def format_matrix(M) -> str:
    """Literal that parses back to an entry-wise equal matrix."""
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("format_matrix needs a nonempty 2-D array")
    return "[" + ";".join(",".join(_c17(z) for z in row) for row in M) + "]"


def load_matrix_file(path: str) -> np.ndarray:
    """Load {"rows": r, "cols": c, "data": [[re, im], ...]} (row-major), with
    integer rows and cols and number entries that fit a float. Content of
    any other shape, type or size raises ValueError (exit 2 in the CLI)."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    rows, cols, data = obj.get("rows"), obj.get("cols"), obj.get("data")
    # exact types, as json.load makes them: true and false are no counts or numbers
    if type(rows) is not int or type(cols) is not int or "data" not in obj:
        raise ValueError(f'{path}: expected integer "rows" and "cols", and "data"')
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: rows and cols must be positive")
    if not isinstance(data, list):
        raise ValueError(f"{path}: data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} data pairs, got {len(data)}")
    flat = []
    for k, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{path}: data[{k}] is not a [re, im] pair")
        if type(pair[0]) not in (int, float) or type(pair[1]) not in (int, float):
            raise ValueError(f"{path}: data[{k}] holds a non-number")
        try:
            flat.append(complex(float(pair[0]), float(pair[1])))
        except OverflowError:  # an int past the largest float
            raise ValueError(f"{path}: data[{k}] holds a number too large for a float") from None
    return np.array(flat, dtype=np.complex128).reshape(rows, cols)


# ---------------------------------------------------------------------------
# output helpers


def _g(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0
    return f"{x:.12g}"


def _gc(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _g(z.real)
    if z.real == 0.0:
        return _g(z.imag) + "i"
    return f"{_g(z.real)}{float(z.imag):+.12g}i"


def _j(x: float) -> float:
    """Round to the documented 12 significant digits for JSON output."""
    return float(f"{float(x):.12g}")


def _verdict(ok: bool) -> str:
    return "ORTHOGONAL" if ok else "NOT ORTHOGONAL"


def _text(v) -> str:
    """A field value as its text line prints it; a vector as [a;b]."""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return _g(v)
    if isinstance(v, complex):
        return _gc(v)
    if isinstance(v, np.ndarray):
        return "[" + ";".join(_gc(z) for z in v) + "]"
    return str(v)


def _json(v):
    """A field value as JSON output holds it; a complex number as [re, im]."""
    if isinstance(v, float):
        return _j(v)
    if isinstance(v, complex):
        return [_j(v.real), _j(v.imag)]
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_json(x) for x in v]
    return v


def _emit(args, fields) -> None:
    """Print ordered (name, value) fields as `name: value` lines, or as one
    JSON object keyed by the names with "_" for "-". The field `orthogonal`
    prints as the text line `verdict: ...`; `enclosure` is JSON only."""
    if args.format == "json":
        print(json.dumps({name.replace("-", "_"): _json(v) for name, v in fields}))
        return
    for name, v in fields:
        if name == "orthogonal":
            print(f"verdict: {_verdict(v)}")
        elif name != "enclosure":
            print(f"{name}: {_text(v)}")


def _fields(result, names: str):
    """(name, value) pairs for the space-separated `names`, each read off
    `result` as the attribute with "_" for "-"."""
    return [(name, getattr(result, name.replace("-", "_"))) for name in names.split()]


def _matrix_arg(args, name: str) -> np.ndarray:
    lit = getattr(args, name)
    path = getattr(args, f"{name}_file")
    pos = getattr(args, "matrix", None)  # radius, crawford and range take a positional literal
    picked = [s for s in (lit, path, pos) if s]
    if len(picked) != 1:
        extra = " or a positional literal" if hasattr(args, "matrix") else ""
        raise ValueError(f"provide exactly one of --{name}, --{name}-file{extra}")
    return as_matrix(load_matrix_file(path) if path else parse_matrix(lit if lit else pos))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_radius(args) -> int:
    res = numerical_radius(_matrix_arg(args, "t"), tol=args.tol)
    _emit(args, _fields(res, "omega theta-star maximizer enclosure"))
    return 0


def _cmd_crawford(args) -> int:
    c = crawford_number(_matrix_arg(args, "t"), tol=args.tol)
    _emit(args, [("crawford", c)])
    return 0


def _cmd_range(args) -> int:
    T = _matrix_arg(args, "t")
    if args.samples < 3:
        raise ValueError("--samples must be at least 3")
    pts = boundary_points(T, args.samples)
    if args.format == "json":
        print(json.dumps(_json(pts)))
    else:
        print("re,im")
        for z in pts:
            print(f"{_g(z.real)},{_g(z.imag)}")
    return 0


def _cmd_deriv(args) -> int:
    T, S = _matrix_arg(args, "t"), _matrix_arg(args, "s")
    d = omega_derivative(T, S, args.theta, tol=args.tol)
    _emit(
        args,
        [
            ("derivative", d.value),
            ("theta", d.theta),
            ("converged", d.converged),
            ("quotient-steps", len(d.quotient_trace)),
        ],
    )
    return 0 if d.converged else 1


def _cmd_inf_deriv(args) -> int:
    T, S = _matrix_arg(args, "t"), _matrix_arg(args, "s")
    value, worst = inf_derivative(T, S, tol=args.tol)
    _emit(args, [("inf-derivative", value), ("worst-theta", worst)])
    return 0


def _cmd_ortho(args) -> int:
    T, S = _matrix_arg(args, "t"), _matrix_arg(args, "s")
    rep = is_omega_orthogonal(T, S, args.eps, method=args.method)
    names = "orthogonal epsilon margin inf-derivative worst-theta threshold epsilon-star method"
    _emit(args, _fields(rep, names))
    return 0


def _cmd_min_eps(args) -> int:
    T, S = _matrix_arg(args, "t"), _matrix_arg(args, "s")
    _emit(args, [("epsilon-star", min_epsilon(T, S))])
    return 0


def _cmd_bj_ortho(args) -> int:
    T, S = _matrix_arg(args, "t"), _matrix_arg(args, "s")
    ok = is_bj_orthogonal(T, S, args.eps, method=args.method)
    fields = [("orthogonal", ok), ("epsilon", args.eps)]
    if args.method == "closed-form":
        # the direct scan computes no threshold; its verdict stands alone
        fields.append(("epsilon-star", min_epsilon_bj(T, S)))
    _emit(args, fields + [("method", args.method)])
    return 0


def _cmd_oracle_scan(args) -> int:
    T, S = _matrix_arg(args, "t"), _matrix_arg(args, "s")
    if args.grid < 32:
        raise ValueError("--grid must be at least 32 for oracle-scan")
    margin, lam = oracle.direct_lambda_scan(
        T, S, args.eps, grid_r=max(16, args.grid // 2), grid_theta=args.grid
    )
    _emit(
        args,
        [("min-margin", margin), ("argmin-lambda", lam), ("violation", bool(margin < 0.0))],
    )
    return 0


# ---------------------------------------------------------------------------
# reference-value report


def _paper_claims():
    """Built-in reference claims: (id, kind, expected, compute, tol, note)."""
    m = parse_matrix
    T22, S22 = m("[i,0;0,0]"), m("[0,1;0,-1]")
    T24, S24 = m("[0,1;0,-1]"), m("[1,0;0,0]")
    T25, S25 = m("[2,0;0,0]"), m("[1,1;0,1]")
    sq5 = math.sqrt(5.0)

    def omega(M):
        return lambda: numerical_radius(M).omega

    def verdict(T, S, eps, bj=False):
        def run():
            if bj:
                a = is_bj_orthogonal(T, S, eps, method="closed-form")
                b = is_bj_orthogonal(T, S, eps, method="direct")
            else:
                a = is_omega_orthogonal(T, S, eps, method="derivative").orthogonal
                b = is_omega_orthogonal(T, S, eps, method="direct").orthogonal
            return a if a == b else None  # None = methods disagree, always fails

        return run

    claims = [
        ("omega [i,0;0,0]", "value", 1.0, omega(T22), 1e-8, ""),
        ("omega [0,1;0,-1]", "value", (1 + math.sqrt(2)) / 2, omega(S22), 1e-8, ""),
        ("omega [1,1;0,-1]", "value", sq5 / 2, omega(m("[1,1;0,-1]")), 1e-8, ""),
        (
            "omega [0.5,1;0,-1]",
            "value",
            (1 + math.sqrt(13)) / 4,
            omega(m("[0.5,1;0,-1]")),
            1e-8,
            "differs from [1,1;0,-1] (radius sqrt(5)/2 = 1.118) only in the "
            "top-left entry; the two displays are easy to conflate",
        ),
        ("omega [1,1;0,1]", "value", 1.5, omega(S25), 1e-8, ""),
        ("omega [1,-1;0,-1]", "value", sq5 / 2, omega(m("[1,-1;0,-1]")), 1e-8, ""),
        ("omega [2,0;0,0]", "value", 2.0, omega(T25), 1e-8, ""),
        ("norm [0,1;0,-1]", "value", math.sqrt(2.0), lambda: spectral_norm(T24), 1e-8, ""),
        ("norm [1,0;0,0]", "value", 1.0, lambda: spectral_norm(S24), 1e-8, ""),
        (
            "norm-sq [0,1;0,-1] + [1,0;0,0]",
            "value",
            (3 + sq5) / 2,
            lambda: spectral_norm(T24 + S24) ** 2,
            1e-8,
            "equals (2+|l|^2+sqrt(4+|l|^4))/2 at l=1",
        ),
        ("ortho@eps=0 [i,0;0,0] vs [0,1;0,-1]", "verdict", True, verdict(T22, S22, 0.0), 0, ""),
        (
            "ortho@eps=0.005 [0,1;0,-1] vs [i,0;0,0]",
            "verdict",
            False,
            verdict(S22, T22, 0.005),
            0,
            "swapped order of the pair above",
        ),
        (
            "bj-ortho@eps=0 [0,1;0,-1] vs [1,0;0,0]",
            "verdict",
            True,
            verdict(T24, S24, 0.0, bj=True),
            0,
            "closed form and direct scan; eps-star is exactly 0 here",
        ),
        ("ortho@eps=0.005 [0,1;0,-1] vs [1,0;0,0]", "verdict", False, verdict(T24, S24, 0.005), 0, ""),
        ("ortho@eps=0 [2,0;0,0] vs [1,1;0,1]", "verdict", False, verdict(T25, S25, 0.0), 0, ""),
        ("ortho@eps=0.7 [2,0;0,0] vs [1,1;0,1]", "verdict", True, verdict(T25, S25, 0.7), 0, ""),
        (
            "eps-star [i,0;0,0] vs [0,1;0,-1]",
            "value",
            0.0,
            lambda: min_epsilon(T22, S22),
            1e-6,
            "",
        ),
        (
            "eps-star [2,0;0,0] vs [1,1;0,1]",
            "interval",
            2.0 / 3.0,
            lambda: min_epsilon(T25, S25),
            1e-6,
            "pass iff the value lies in (0, 2/3 + 1e-6]",
        ),
    ]
    return claims


def _cmd_paper_check(args) -> int:
    rows = []
    passed = 0
    for cid, kind, expected, compute, tol, note in _paper_claims():
        got = compute()
        if kind == "verdict":
            ok = got is not None and bool(got) == bool(expected)
            exp_s, got_s = _verdict(expected), ("mixed" if got is None else _verdict(got))
            diff_s = "-"
        else:
            ok = 0.0 < got <= expected + tol if kind == "interval" else abs(got - expected) <= tol
            exp_s, got_s = _g(expected), _g(got)
            diff_s = _g(abs(got - expected))
        passed += ok
        rows.append(
            {
                "id": cid,
                "expected": exp_s,
                "computed": got_s,
                "diff": diff_s,
                "pass": bool(ok),
                "note": note,
            }
        )
    if args.format == "json":
        print(json.dumps({"claims": rows, "passed": passed, "total": len(rows)}))
    else:
        for r in rows:
            line = (
                f"{'PASS' if r['pass'] else 'FAIL'} {r['id']}: "
                f"expected {r['expected']} computed {r['computed']} diff {r['diff']}"
            )
            if r["note"]:
                line += f"  [{r['note']}]"
            print(line)
        print(f"paper-check: {passed}/{len(rows)} claims passed")
    return 0 if passed == len(rows) else 1


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="numradius",
        description="Numerical radius, numerical range, and radius-orthogonality tools.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    one = argparse.ArgumentParser(add_help=False)
    one.add_argument("matrix", nargs="?", help="matrix literal, e.g. [1,2i;0,-1]")
    one.add_argument("--t", help="matrix literal")
    one.add_argument("--t-file", dest="t_file", help="matrix JSON file")
    two = argparse.ArgumentParser(add_help=False)
    two.add_argument("--t", help="left matrix literal")
    two.add_argument("--t-file", dest="t_file", help="left matrix JSON file")
    two.add_argument("--s", help="right matrix literal")
    two.add_argument("--s-file", dest="s_file", help="right matrix JSON file")
    tol_t = argparse.ArgumentParser(add_help=False)
    tol_t.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance, in the units of T")
    tol_ts = argparse.ArgumentParser(add_help=False)
    tol_ts.add_argument("--tol", type=float, default=1e-8, help="absolute tolerance, in the units of T times S")
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=float, required=True, help="epsilon in [0, 1)")
    theta = argparse.ArgumentParser(add_help=False)  # --theta comes before --tol in deriv's help
    theta.add_argument("--theta", type=float, default=0.0, help="ray direction in radians")

    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, run, parents, help_):
        p = sub.add_parser(name, parents=parents, help=help_)
        p.set_defaults(run=run)
        return p

    add("radius", _cmd_radius, [one, common, tol_t], "numerical radius, argmax angle, maximizer")
    add("crawford", _cmd_crawford, [one, common, tol_t], "distance from 0 to the numerical range")
    p = add("range", _cmd_range, [one, table], "boundary points of the numerical range")
    p.add_argument("--samples", type=int, default=360, help="number of boundary points (>= 3)")
    add("deriv", _cmd_deriv, [two, common, theta, tol_ts], "one-sided derivative of omega^2 along a ray")
    add("inf-deriv", _cmd_inf_deriv, [two, common, tol_ts], "worst-direction derivative over theta")
    p = add("ortho", _cmd_ortho, [two, common, eps], "approximate radius-orthogonality verdict")
    p.add_argument(
        "--method",
        choices=("derivative", "direct"),
        default="derivative",
        help="decision procedure",
    )
    add("min-eps", _cmd_min_eps, [two, common], "smallest epsilon making the pair orthogonal")
    p = add("bj-ortho", _cmd_bj_ortho, [two, common, eps], "spectral-norm orthogonality verdict")
    p.add_argument(
        "--method",
        choices=("closed-form", "direct"),
        default="closed-form",
        help="decision procedure",
    )
    add("paper-check", _cmd_paper_check, [common], "verify the built-in reference values")
    p = add("oracle-scan", _cmd_oracle_scan, [two, common, eps], "brute-force margin scan over lambda")
    p.add_argument("--grid", type=int, default=64, help="angle grid of the scan (>= 32)")
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:  # a MatrixError or MatrixSyntaxError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
