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
import sys

import numpy as np

from . import oracle
from .linalg import MatrixError, as_matrix, spectral_norm
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

import re  # noqa: E402  (kept next to the patterns it feeds)

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
    """Load {"rows": r, "cols": c, "data": [[re, im], ...]} (row-major).
    Content of any other shape raises ValueError (exit 2 in the CLI)."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError):
        raise ValueError(f'{path}: expected integer "rows" and "cols", and "data"') from None
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
        try:
            flat.append(complex(float(pair[0]), float(pair[1])))
        except TypeError:
            raise ValueError(f"{path}: data[{k}] holds a non-number") from None
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


def _emit(args, lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


class _UsageError(ValueError):
    pass


def _matrix_arg(args, name: str, positional_ok: bool = False) -> np.ndarray:
    lit = getattr(args, name, None)
    path = getattr(args, f"{name}_file", None)
    pos = getattr(args, "matrix", None) if positional_ok else None
    picked = [s for s in (lit, path, pos) if s]
    if len(picked) != 1:
        extra = " or a positional literal" if positional_ok else ""
        raise _UsageError(f"provide exactly one of --{name}, --{name}-file{extra}")
    if path:
        return load_matrix_file(path)
    return parse_matrix(lit if lit else pos)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_radius(args) -> int:
    T = as_matrix(_matrix_arg(args, "t", positional_ok=True))
    res = numerical_radius(T, tol=args.tol)
    vec = "[" + ";".join(_gc(z) for z in res.maximizer) + "]"
    _emit(
        args,
        [f"omega: {_g(res.omega)}", f"theta-star: {_g(res.theta_star)}", f"maximizer: {vec}"],
        {
            "omega": _j(res.omega),
            "theta_star": _j(res.theta_star),
            "maximizer": [[_j(z.real), _j(z.imag)] for z in res.maximizer],
            "enclosure": [_j(res.enclosure[0]), _j(res.enclosure[1])],
        },
    )
    return 0


def _cmd_crawford(args) -> int:
    T = as_matrix(_matrix_arg(args, "t", positional_ok=True))
    c = crawford_number(T, tol=args.tol)
    _emit(args, [f"crawford: {_g(c)}"], {"crawford": _j(c)})
    return 0


def _cmd_range(args) -> int:
    T = as_matrix(_matrix_arg(args, "t", positional_ok=True))
    if args.samples < 3:
        raise _UsageError("--samples must be at least 3")
    pts = boundary_points(T, args.samples)
    if args.format == "json":
        print(json.dumps([[_j(z.real), _j(z.imag)] for z in pts]))
    else:
        print("re,im")
        for z in pts:
            print(f"{_g(z.real)},{_g(z.imag)}")
    return 0


def _cmd_deriv(args) -> int:
    T = as_matrix(_matrix_arg(args, "t"))
    S = as_matrix(_matrix_arg(args, "s"))
    d = omega_derivative(T, S, args.theta, tol=args.tol)
    _emit(
        args,
        [
            f"derivative: {_g(d.value)}",
            f"theta: {_g(d.theta)}",
            f"converged: {'yes' if d.converged else 'no'}",
            f"quotient-steps: {len(d.quotient_trace)}",
        ],
        {
            "derivative": _j(d.value),
            "theta": _j(d.theta),
            "converged": d.converged,
            "quotient_steps": len(d.quotient_trace),
        },
    )
    return 0 if d.converged else 1


def _cmd_inf_deriv(args) -> int:
    T = as_matrix(_matrix_arg(args, "t"))
    S = as_matrix(_matrix_arg(args, "s"))
    value, worst = inf_derivative(T, S, tol=args.tol)
    _emit(
        args,
        [f"inf-derivative: {_g(value)}", f"worst-theta: {_g(worst)}"],
        {"inf_derivative": _j(value), "worst_theta": _j(worst)},
    )
    return 0


def _cmd_ortho(args) -> int:
    T = as_matrix(_matrix_arg(args, "t"))
    S = as_matrix(_matrix_arg(args, "s"))
    rep = is_omega_orthogonal(T, S, args.eps, method=args.method)
    verdict = "ORTHOGONAL" if rep.orthogonal else "NOT ORTHOGONAL"
    _emit(
        args,
        [
            f"verdict: {verdict}",
            f"epsilon: {_g(rep.epsilon)}",
            f"margin: {_g(rep.margin)}",
            f"inf-derivative: {_g(rep.inf_derivative)}",
            f"worst-theta: {_g(rep.worst_theta)}",
            f"threshold: {_g(rep.threshold)}",
            f"epsilon-star: {_g(rep.epsilon_star)}",
            f"method: {rep.method}",
        ],
        {
            "orthogonal": rep.orthogonal,
            "epsilon": _j(rep.epsilon),
            "margin": _j(rep.margin),
            "inf_derivative": _j(rep.inf_derivative),
            "worst_theta": _j(rep.worst_theta),
            "threshold": _j(rep.threshold),
            "epsilon_star": _j(rep.epsilon_star),
            "method": rep.method,
        },
    )
    return 0


def _cmd_min_eps(args) -> int:
    T = as_matrix(_matrix_arg(args, "t"))
    S = as_matrix(_matrix_arg(args, "s"))
    e = min_epsilon(T, S)
    _emit(args, [f"epsilon-star: {_g(e)}"], {"epsilon_star": _j(e)})
    return 0


def _cmd_bj_ortho(args) -> int:
    T = as_matrix(_matrix_arg(args, "t"))
    S = as_matrix(_matrix_arg(args, "s"))
    ok = is_bj_orthogonal(T, S, args.eps, method=args.method)
    verdict = "ORTHOGONAL" if ok else "NOT ORTHOGONAL"
    lines = [f"verdict: {verdict}", f"epsilon: {_g(args.eps)}"]
    doc = {"orthogonal": ok, "epsilon": _j(args.eps)}
    if args.method == "closed-form":
        # the direct scan computes no threshold; its verdict stands alone
        estar = min_epsilon_bj(T, S)
        lines.append(f"epsilon-star: {_g(estar)}")
        doc["epsilon_star"] = _j(estar)
    lines.append(f"method: {args.method}")
    doc["method"] = args.method
    _emit(args, lines, doc)
    return 0


def _cmd_oracle_scan(args) -> int:
    T = as_matrix(_matrix_arg(args, "t"))
    S = as_matrix(_matrix_arg(args, "s"))
    if args.grid < 32:
        raise _UsageError("--grid must be at least 32 for oracle-scan")
    margin, lam = oracle.direct_lambda_scan(
        T, S, args.eps, grid_r=max(16, args.grid // 2), grid_theta=args.grid
    )
    _emit(
        args,
        [
            f"min-margin: {_g(margin)}",
            f"argmin-lambda: {_gc(lam)}",
            f"violation: {'yes' if margin < 0.0 else 'no'}",
        ],
        {
            "min_margin": _j(margin),
            "argmin_lambda": [_j(lam.real), _j(lam.imag)],
            "violation": bool(margin < 0.0),
        },
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

    def verdict(T, S, eps):
        def run():
            a = is_omega_orthogonal(T, S, eps, method="derivative").orthogonal
            b = is_omega_orthogonal(T, S, eps, method="direct").orthogonal
            return a if a == b else None  # None = methods disagree, always fails

        return run

    def bj_verdict(T, S, eps):
        def run():
            a = is_bj_orthogonal(T, S, eps, method="closed-form")
            b = is_bj_orthogonal(T, S, eps, method="direct")
            return a if a == b else None

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
            bj_verdict(T24, S24, 0.0),
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
            exp_s = "ORTHOGONAL" if expected else "NOT ORTHOGONAL"
            got_s = (
                "mixed"
                if got is None
                else ("ORTHOGONAL" if got else "NOT ORTHOGONAL")
            )
            diff_s = "-"
        elif kind == "interval":
            ok = 0.0 < got <= expected + tol
            exp_s, got_s = _g(expected), _g(got)
            diff_s = _g(abs(got - expected))
        else:
            ok = abs(got - expected) <= tol
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

    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    p = sub.add_parser("radius", parents=[one, common], help="numerical radius, argmax angle, maximizer")
    p.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance, in the units of T")
    p = sub.add_parser("crawford", parents=[one, common], help="distance from 0 to the numerical range")
    p.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance, in the units of T")
    p = sub.add_parser("range", parents=[one, table], help="boundary points of the numerical range")
    p.add_argument("--samples", type=int, default=360, help="number of boundary points (>= 3)")
    p = sub.add_parser("deriv", parents=[two, common], help="one-sided derivative of omega^2 along a ray")
    p.add_argument("--theta", type=float, default=0.0, help="ray direction in radians")
    p.add_argument("--tol", type=float, default=1e-8, help="absolute tolerance, in the units of T times S")
    p = sub.add_parser("inf-deriv", parents=[two, common], help="worst-direction derivative over theta")
    p.add_argument("--tol", type=float, default=1e-8, help="absolute tolerance, in the units of T times S")
    p = sub.add_parser("ortho", parents=[two, common], help="approximate radius-orthogonality verdict")
    p.add_argument("--eps", type=float, required=True, help="epsilon in [0, 1)")
    p.add_argument(
        "--method",
        choices=("derivative", "direct"),
        default="derivative",
        help="decision procedure",
    )
    sub.add_parser("min-eps", parents=[two, common], help="smallest epsilon making the pair orthogonal")
    p = sub.add_parser("bj-ortho", parents=[two, common], help="spectral-norm orthogonality verdict")
    p.add_argument("--eps", type=float, required=True, help="epsilon in [0, 1)")
    p.add_argument(
        "--method",
        choices=("closed-form", "direct"),
        default="closed-form",
        help="decision procedure",
    )
    sub.add_parser("paper-check", parents=[common], help="verify the built-in reference values")
    p = sub.add_parser("oracle-scan", parents=[two, common], help="brute-force margin scan over lambda")
    p.add_argument("--eps", type=float, required=True, help="epsilon in [0, 1)")
    p.add_argument("--grid", type=int, default=64, help="angle grid of the scan (>= 32)")
    return ap


_DISPATCH = {
    "radius": _cmd_radius,
    "crawford": _cmd_crawford,
    "range": _cmd_range,
    "deriv": _cmd_deriv,
    "inf-deriv": _cmd_inf_deriv,
    "ortho": _cmd_ortho,
    "min-eps": _cmd_min_eps,
    "bj-ortho": _cmd_bj_ortho,
    "paper-check": _cmd_paper_check,
    "oracle-scan": _cmd_oracle_scan,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except MatrixSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixError, _UsageError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
