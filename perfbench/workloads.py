"""Benchmark workloads: seeded instances, the timed calls of one
instance, and the checks made on its outputs after the timed loop.

An instance is a dict of inputs made from ``oracle.generators(seed)``
(matrices) and ``numpy.random.default_rng(seed)`` (scalars). ``run``
makes the instance's calls through ``calls`` (a ``Calls`` counter) and
returns their outputs; it looks every function up on its module at call
time, so the traced run's wrappers see them. ``check`` compares outputs
against numpy references and the package's own guarantees and returns
(label, passed) pairs.

Workloads (see README.md for why each exists):

- ortho-small: generic, Hermitian-base and positive-base pairs, n = 2..6;
  not listed in BENCHMARK.json, to leave time for longer runs of the rest
- ortho-disk: square-zero bases (disk-shaped range), n in {2, 3}
- radius-large: generic n = 64 matrices, radius-side calls plus BJ
- validate: n in {2, 3, 4} pairs against invariance copies and oracles,
  plus one in-process ``paper-check`` per run
- scale: positive rescaling copies (c T, d S), c, d = 10^U(-3, 3); not
  listed in BENCHMARK.json because the program fails on it today
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback

import numpy as np

from numradius import cli, linalg, numrange, oracle, wderiv

import tracing

# verdicts this close to the threshold may go either way (the deciders'
# own tolerance band); the acceptance suite skips the same band
BAND = 1e-4


class Failed(Exception):
    """A call of the instance raised; the rest of the instance is skipped."""


class Calls:
    """Counts the calls an instance makes and the exceptions they raise."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.errors = {"ConvergenceError": 0, "other": 0}

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except wderiv.ConvergenceError:
            self.errors["ConvergenceError"] += 1
            raise Failed from None
        except Exception:  # any other crash is counted, shown, and the run goes on
            self.errors["other"] += 1
            traceback.print_exc(file=sys.stderr)
            raise Failed from None

    def paper_check(self) -> dict:
        """One in-process ``numradius paper-check --format json``."""
        out = io.StringIO()

        def run():
            with contextlib.redirect_stdout(out):
                return cli.main(["paper-check", "--format", "json"])

        if self.tracer is None:
            code = self(run)
        else:
            code = self(self.tracer.span, tracing.PAPER_CHECK, run)
        report = json.loads(out.getvalue())
        return {"exit": code, "passed": report["passed"], "total": report["total"]}


def _key(*mats) -> bytes:
    return b"".join(np.ascontiguousarray(m).tobytes() for m in mats)


# ---------------------------------------------------------------------------
# shared checks


def _radius_checks(T, rad, craw) -> list[tuple[str, bool]]:
    w = rad.omega
    nrm = float(np.linalg.norm(T, 2))
    x = rad.maximizer
    attained = abs(np.vdot(x, T @ x))
    slack = 1e-12 * nrm
    return [
        ("maximizer attains omega", abs(attained - w) <= 1e-8 * w + slack),
        ("crawford <= omega", craw <= w + slack),
        ("||T||/2 <= omega <= ||T||", 0.5 * nrm - slack <= w <= nrm + slack),
        ("omega inside its enclosure", rad.enclosure[0] <= w <= rad.enclosure[1]),
    ]


def _verdict_checks(out, eps, estar) -> list[tuple[str, bool]]:
    a = out["derivative"].orthogonal
    b = out["direct"].orthogonal
    checks = [("derivative and direct verdicts agree", a == b)]
    if abs(eps - estar) >= BAND:
        checks.append(("verdict matches the side of estar", a == (eps > estar)))
    return checks


# ---------------------------------------------------------------------------
# ortho-small


def _make_small(seed: int, count: int) -> list[dict]:
    gen = oracle.generators(seed)
    rng = np.random.default_rng(seed)
    bases = (gen.matrix, gen.hermitian, gen.positive)
    out = []
    for i in range(count):
        n = 2 + i % 5
        T = bases[i % 3](n)
        S = gen.matrix(n)
        # as in the acceptance suite: half the draws near the threshold
        mag = rng.uniform(2e-4, 0.05) if i % 2 else rng.uniform(0.05, 0.5)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        out.append({"key": _key(T, S), "kind": i % 15, "T": T, "S": S,
                    "hermitian": i % 3 == 1, "delta": sign * mag})
    return out


def _run_small(inst: dict, calls: Calls) -> dict:
    T, S = inst["T"], inst["S"]
    out = {
        "radius": calls(numrange.numerical_radius, T),
        "crawford": calls(numrange.crawford_number, T),
        "estar": calls(wderiv.min_epsilon, T, S),
    }
    eps = min(max(out["estar"] + inst["delta"], 0.0), 0.98)
    out["eps"] = eps
    if abs(eps - out["estar"]) >= BAND:
        out["derivative"] = calls(wderiv.is_omega_orthogonal, T, S, eps, "derivative")
        out["direct"] = calls(wderiv.is_omega_orthogonal, T, S, eps, "direct")
        out["bj"] = calls(wderiv.is_bj_orthogonal, T, S, eps)
    return out


def _check_small(inst: dict, out: dict) -> list[tuple[str, bool]]:
    checks = _radius_checks(inst["T"], out["radius"], out["crawford"])
    if "bj" in out:
        checks += _verdict_checks(out, out["eps"], out["estar"])
        if inst["hermitian"]:
            checks.append((
                "hermitian base: omega-orthogonal implies BJ-orthogonal",
                out["bj"] or not out["derivative"].orthogonal,
            ))
    return checks


# ---------------------------------------------------------------------------
# ortho-disk


def _make_disk(seed: int, count: int) -> list[dict]:
    gen = oracle.generators(seed)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        # one n = 3 in three: the slow n = 3 instances then fill the
        # tail, and the median stays among the n = 2 ones
        n = 3 if i % 3 == 0 else 2
        T = gen.nilpotent_rank_one(n)
        S = gen.matrix(n)
        out.append({"key": _key(T, S), "kind": i % 3, "T": T, "S": S,
                    "eps": rng.uniform(0.55, 0.9)})
    return out


def _run_disk(inst: dict, calls: Calls) -> dict:
    T, S, eps = inst["T"], inst["S"], inst["eps"]
    return {
        "bj": calls(wderiv.is_bj_orthogonal, T, S, eps),
        "estar": calls(wderiv.min_epsilon, T, S),
        "derivative": calls(wderiv.is_omega_orthogonal, T, S, eps, "derivative"),
        "direct": calls(wderiv.is_omega_orthogonal, T, S, eps, "direct"),
    }


def _check_disk(inst: dict, out: dict) -> list[tuple[str, bool]]:
    return _verdict_checks(out, inst["eps"], out["estar"]) + [(
        "square-zero base: BJ-orthogonal implies omega-orthogonal",
        out["direct"].orthogonal or not out["bj"],
    )]


# ---------------------------------------------------------------------------
# radius-large


def _make_large(seed: int, count: int) -> list[dict]:
    gen = oracle.generators(seed)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        T = gen.matrix(64)
        S = gen.matrix(64)
        out.append({"key": _key(T, S), "kind": 0, "T": T, "S": S,
                    "eps": rng.uniform(0.02, 0.3)})
    return out


def _run_large(inst: dict, calls: Calls) -> dict:
    T, S = inst["T"], inst["S"]
    return {
        "radius": calls(numrange.numerical_radius, T),
        "crawford": calls(numrange.crawford_number, T),
        "enclosure": calls(numrange.radius_enclosure, T, 256),
        "boundary": calls(numrange.boundary_points, T, 64),
        "maximizers": calls(numrange.maximizers, T),
        "norm": calls(linalg.spectral_norm, T),
        "bj": calls(wderiv.is_bj_orthogonal, T, S, inst["eps"]),
    }


def _bj_threshold(T, S) -> float:
    """Smallest eps for BJ orthogonality when ||T|| is a simple singular
    value: |u* S v| / ||S|| for the top singular pair T v = ||T|| u."""
    U, _, Vh = np.linalg.svd(T)
    u, v = U[:, 0], Vh[0].conj()
    return abs(np.vdot(u, S @ v)) / float(np.linalg.norm(S, 2))


def _check_large(inst: dict, out: dict) -> list[tuple[str, bool]]:
    T, S, eps = inst["T"], inst["S"], inst["eps"]
    rad = out["radius"]
    w = rad.omega
    nrm = float(np.linalg.norm(T, 2))
    slack = 1e-12 * nrm
    lo, hi = out["enclosure"]
    checks = _radius_checks(T, rad, out["crawford"]) + [
        ("omega inside radius_enclosure", lo - slack <= w <= hi + slack),
        ("boundary points within omega", max(abs(p) for p in out["boundary"]) <= w + slack),
        ("maximizers attain omega", all(
            abs(np.vdot(x, T @ x)) >= w - 1e-7 - slack for _, x in out["maximizers"]
        )),
        ("spectral_norm matches numpy", abs(out["norm"] - nrm) <= 1e-10 * nrm),
    ]
    estar = _bj_threshold(T, S)
    if abs(eps - estar) >= BAND:
        checks.append(("BJ verdict matches the closed-form threshold",
                       out["bj"] == (eps > estar)))
    return checks


# ---------------------------------------------------------------------------
# validate


def _make_validate(seed: int, count: int) -> list[dict]:
    gen = oracle.generators(seed)
    rng = np.random.default_rng(seed)
    out = [{"key": b"paper-check", "kind": None, "paper_check": True}]
    for i in range(count - 1):
        n = 2 + i % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        U = gen.unitary(n)
        Uh = U.conj().T
        rot = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        out.append({
            "key": _key(T, S), "kind": i % 3, "T": T, "S": S,
            "unitary": (U @ T @ Uh, U @ S @ Uh),
            "rotated": rot * S,
            "mc_seed": int(rng.integers(2**31)),
        })
    return out


def _run_validate(inst: dict, calls: Calls) -> dict:
    if inst.get("paper_check"):
        return {"paper_check": calls.paper_check()}
    T, S = inst["T"], inst["S"]
    out = {
        "radius": calls(numrange.numerical_radius, T),
        "crawford": calls(numrange.crawford_number, T),
        "sampled": calls(oracle.sample_radius_lower, T, 4000, inst["mc_seed"]),
        "estar": calls(wderiv.min_epsilon, T, S),
        "estar_unitary": calls(wderiv.min_epsilon, *inst["unitary"]),
        "estar_rotated": calls(wderiv.min_epsilon, T, inst["rotated"]),
    }
    if T.shape[0] == 2:
        out["ellipse"] = calls(oracle.ellipse_radius_2x2, T)
    if out["estar"] <= 0.93:
        # well inside the orthogonal side, as in the acceptance suite
        eps = out["eps"] = min(out["estar"] + 0.35, 0.98)
        out["derivative"] = calls(wderiv.is_omega_orthogonal, T, S, eps, "derivative")
        out["direct"] = calls(wderiv.is_omega_orthogonal, T, S, eps, "direct")
        out["scan"] = calls(oracle.direct_lambda_scan, T, S, eps, 16, 32)
    return out


def _check_validate(inst: dict, out: dict) -> list[tuple[str, bool]]:
    if inst.get("paper_check"):
        pc = out["paper_check"]
        return [("paper-check passes 18/18",
                 pc["exit"] == 0 and pc["passed"] == pc["total"] == 18)]
    T = inst["T"]
    w = out["radius"].omega
    estar = out["estar"]
    checks = _radius_checks(T, out["radius"], out["crawford"]) + [
        ("sampled lower bound <= omega", out["sampled"] <= w + 1e-12 * w),
        ("min_epsilon invariant under unitary similarity",
         abs(out["estar_unitary"] - estar) <= 1e-6),
        ("min_epsilon invariant under rotation of S",
         abs(out["estar_rotated"] - estar) <= 1e-6),
    ]
    if "ellipse" in out:
        checks.append(("2x2 radius matches the ellipse", abs(out["ellipse"] - w) <= 1e-8))
    if "scan" in out:
        checks += _verdict_checks(out, out["eps"], estar)
        checks.append(("oracle scan sign agrees with the deciders",
                       (out["scan"][0] >= -1e-9) == out["derivative"].orthogonal))
    return checks


# ---------------------------------------------------------------------------
# scale


def _make_scale(seed: int, count: int) -> list[dict]:
    gen = oracle.generators(seed)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 2 + i % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        c, d = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        out.append({"key": _key(T, S), "kind": i % 3, "T": T, "S": S,
                    "scaled": (c * T, d * S)})
    return out


def _run_scale(inst: dict, calls: Calls) -> dict:
    return {
        "estar": calls(wderiv.min_epsilon, inst["T"], inst["S"]),
        "estar_scaled": calls(wderiv.min_epsilon, *inst["scaled"]),
    }


def _check_scale(inst: dict, out: dict) -> list[tuple[str, bool]]:
    return [("min_epsilon invariant under positive rescaling",
             abs(out["estar_scaled"] - out["estar"]) <= 1e-6)]


class Workload:
    """make(seed, count) -> instances; run(instance, calls) -> outputs;
    check(instance, outputs) -> [(label, passed)]. ``rate_cap`` bounds the
    instances per second a run can consume: the instance pool made in
    set-up holds rate_cap * seconds instances. Peak RSS is read once
    ``rss_after`` instances are done, a count every run reaches today,
    so that a faster program, filling its caches with more instances,
    does not read as a memory regression."""

    def __init__(self, make, run, check, rate_cap: float, rss_after: int):
        self.make = make
        self.run = run
        self.check = check
        self.rate_cap = rate_cap
        self.rss_after = rss_after


WORKLOADS = {
    "ortho-small": Workload(_make_small, _run_small, _check_small, 150.0, 60),
    "ortho-disk": Workload(_make_disk, _run_disk, _check_disk, 30.0, 30),
    "radius-large": Workload(_make_large, _run_large, _check_large, 8.0, 8),
    "validate": Workload(_make_validate, _run_validate, _check_validate, 15.0, 16),
    "scale": Workload(_make_scale, _run_scale, _check_scale, 150.0, 60),
}
