"""numradius benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ortho-disk --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts fresh worker processes (perfbench/worker.py) with one
BLAS thread:

- ``--trace 0``: one timed worker, then SETUP_SAMPLES - 1 workers that
  only set up; prints the end-to-end metrics (set-up time is the median
  of all set-up samples). Times are scaled to reference speed (see
  CAL_REF_S).
- ``--trace 1``: a plain and a traced worker on the same instances,
  each for half of ``--seconds`` so that the run lasts as long as a
  plain one; prints the per-layer metrics of the traced worker after
  checking that both produced bitwise the same outputs.
  ``trace.overhead_frac`` is the traced worker's time over the plain
  one's, less one, on the instances both completed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (calls made), ``failed`` (calls that raised) and
``metrics`` ({name: {"value", "unit"}}). The line before it, also JSON,
records the machine, the run's sample counts, the failure and wrong
fractions and the labels of failed checks. ``--quick`` runs three
instances per worker, for perfbench/selftest.py.

Exits non-zero, without a result line, when the package is missing, a
worker fails or the run overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
# The tail is p80, not p90: ortho-disk's n = 3 instances fall in two
# clusters (about 0.7 s and 1.8 s at reference speed, the slow one about
# 10 % of all instances), so p90 jumped between them with the seed; and
# with 10 samples beyond it, validate's 30-40 instances put the tail on
# the edge between its n = 3 and n = 4 instances.
TAIL_PCT = 80
TAIL_BEYOND = 5  # samples beyond the tail, at least
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# Every reported time is scaled to reference speed. A shared machine's
# speed swings by up to 1.9x, within a second as well as over minutes,
# which no run length averages out. The worker samples a fixed reference
# kernel about every 25 ms while the loop runs (worker.Speedometer) and
# scales each instance by CAL_REF_S over the kernel times sampled while it
# ran; set-up is scaled by the kernel's median time right after set-up.
# The kernel runs no program code, so a change to the program still moves
# the scaled times in full. The measured times are printed on the info
# line.
CAL_REF_S = 0.001  # worker.CAL_REF_S, the kernel's time at reference speed
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    """A worker failed or the run overran its time limit."""


def _worker(args, mode: str, deadline: float, seconds: float) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), str(seconds), mode]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} worker overran the time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _latencies(res: dict, scaled: bool = True) -> list[float]:
    """Per-instance latency, scaled to reference speed by the kernel time
    measured around that instance (or as measured when ``scaled`` is
    false); a failed instance misses every limit."""
    out = []
    for t, ok, f in zip(res["latency_s"], res["ok"], res["speed"]):
        out.append((t * f if scaled else t) if ok else float("inf"))
    return out


def _rate(lat: list[float], res: dict) -> float:
    """Instances per second of a typical cycle: the workload cycles
    through instance kinds (n, base), and the rate is the number of kinds
    over the sum of each kind's median latency. Medians keep one rare
    slow instance, which the tail reports, from swinging the rate."""
    by_kind: dict[int, list[float]] = {}
    for kind, t in zip(res["kinds"], lat):
        if kind is not None:
            by_kind.setdefault(kind, []).append(t)
    total = sum(statistics.median(v) for v in by_kind.values())
    return len(by_kind) / total if total > 0 else 0.0


def _tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the order statistic at
    TAIL_PCT, or lower so that at least TAIL_BEYOND samples lie beyond
    it; with 2 * TAIL_BEYOND samples or fewer, the median."""
    s = sorted(lat)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        k = (n - 1) // 2
    else:
        k = min(math.floor(TAIL_PCT / 100.0 * (n - 1)), n - 1 - TAIL_BEYOND)
    pct = 100.0 * k / (n - 1) if n > 1 else 50.0
    return s[k], pct, n - 1 - k


def _git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(res: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **res["machine"],
        "commit": _git_commit(),
    }


def _counts(res: dict) -> dict:
    failed = sum(res["errors"].values())
    return {
        "instances": len(res["ok"]),
        "pool": res["pool"],
        "pool_exhausted": res["exhausted"],
        "calls": res["attempted"],
        "failed_calls": failed,
        "failed_frac": failed / max(res["attempted"], 1),
        "errors": res["errors"],
        "checks": res["checks"],
        "wrong_frac": sum(res["wrong"].values()) / max(res["checks"], 1),
        "wrong": res["wrong"],
        "instances_distinct": res["distinct"],
    }


def _correct(res: dict) -> bool:
    return not res["wrong"] and res["distinct"] and res["checks"] > 0


def _to_reference(res: dict) -> float:
    """Factor taking this worker's set-up time to reference speed."""
    return CAL_REF_S / statistics.median(res["cal_s"])


def _plain(args, deadline: float) -> tuple[dict, bool, dict, dict]:
    main = _worker(args, "plain", deadline, args.seconds)
    extra = 1 if args.quick else SETUP_SAMPLES - 1
    workers = [main] + [_worker(args, "setup", deadline, args.seconds) for _ in range(extra)]
    setups = [w["setup_s"] for w in workers]
    raw = _latencies(main, scaled=False)
    lat = _latencies(main)
    tail, pct, beyond = _tail(lat)
    measured = {
        "setup_s": statistics.median(setups),
        "instances_per_s": _rate(raw, main),
        "latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_tail_ms": 1e3 * _tail(raw)[0],
    }
    metrics = {
        "setup_s": (statistics.median(s * _to_reference(w) for s, w in zip(setups, workers)), "s"),
        "instances_per_s": (_rate(lat, main), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    info = {
        **_counts(main),
        "measured": measured,
        "speed_factor_range": [min(main["speed"]), max(main["speed"])],
        "meter_samples": main["meter_samples"],
        "meter_s": main["meter_s"],
        "setup_samples_s": setups,
        "loop_instances_per_s": sum(main["ok"]) / main["loop_s"],
        "latency_tail_pct": pct,
        "latency_tail_beyond": beyond,
        "peak_rss_after_instances": main["rss_instances"],
    }
    return main, _correct(main), metrics, info


def _traced(args, deadline: float) -> tuple[dict, bool, dict, dict]:
    plain = _worker(args, "plain", deadline, args.seconds / 2)
    traced = _worker(args, "traced", deadline, args.seconds / 2)
    k = min(len(plain["ok"]), len(traced["ok"]))
    identical = plain["digests"][:k] == traced["digests"][:k] and (
        plain["ok"][:k] == traced["ok"][:k]
    )
    both = [i for i in range(k) if plain["ok"][i] and traced["ok"][i]]
    f = _to_reference(traced)
    lat_plain, lat_traced = _latencies(plain), _latencies(traced)
    t_plain = sum(lat_plain[i] for i in both)
    t_traced = sum(lat_traced[i] for i in both)
    metrics = {
        name: (v * f if unit == "s" else v, unit) for name, (v, unit) in traced["layers"].items()
    }
    metrics["errors.ConvergenceError"] = (traced["errors"]["ConvergenceError"], "count")
    metrics["errors.other"] = (traced["errors"]["other"], "count")
    metrics["trace.overhead_frac"] = (t_traced / t_plain - 1.0 if t_plain > 0 else 0.0, "ratio")
    info = {
        **_counts(traced),
        "reference_kernel_ms": {
            "plain": 1e3 * CAL_REF_S / _to_reference(plain),
            "traced": 1e3 * CAL_REF_S / f,
        },
        "compared_instances": k,
        "outputs_identical": identical,
        "missing_targets": traced["missing"],
    }
    correct = _correct(plain) and _correct(traced) and identical
    return traced, correct, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="three instances per worker")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "numradius", "__init__.py")):
        print("error: src/numradius not found; run from a numradius checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        res, correct, metrics, info = (_traced if args.trace else _plain)(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "seed": args.seed, **info, "machine": _machine(res)}
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": sum(res["errors"].values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
