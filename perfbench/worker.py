"""One fresh process of a benchmark run: set-up, timed loop, checks.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [--quick]

MODE is ``plain`` (timed loop), ``traced`` (timed loop with per-layer
spans) or ``setup`` (set-up only, one more set-up sample). Set-up is
everything before the timed loop: importing numpy and numradius, making
the instance pool and one warm-up call (``numerical_radius``) on an
instance from another seed. The
timed loop is closed: one caller thread makes each instance's calls
after the previous instance finished, until SECONDS have passed or the
pool is used up. ``--quick`` runs a pool of three instances instead.
A fixed reference kernel is timed after set-up, and about every
METER_EVERY_S from a timer signal while the loop runs (Speedometer), to
measure how fast the machine ran; the time spent in the kernel is taken
out of each instance's latency. Checks run after the loop. Prints one
JSON object on stdout.

BLAS threads are set by the parent through the environment, before
numpy is imported here.
"""

import time

T_START = time.perf_counter()

import bisect  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK_POOL = 3
CAL_SAMPLES = 25  # reference-kernel timings right after set-up
CAL_REF_S = 0.001  # the kernel's time at reference speed
METER_EVERY_S = 0.025  # the loop samples the kernel this often
METER_WINDOW_S = 0.2  # and scales an instance by at least this much of it
# the warm-up instance comes from seed + WARM_OFFSET, never from the pool
WARM_OFFSET = 1 << 40


def _digest(out) -> str:
    """Hash of an instance's outputs that changes with any bit of them."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.generic):
            x = x.item()
        if x is None or isinstance(x, (bool, int, str, bytes)):
            h.update(repr(x).encode())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        elif isinstance(x, complex):
            h.update(f"{x.real.hex()},{x.imag.hex()}".encode())
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                h.update(f.name.encode())
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(k.encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")
        h.update(b";")

    feed(out)
    return h.hexdigest()[:16]


def _reference_kernel():
    """A function timing one run of a fixed kernel of about a millisecond:
    scalar and batched ``eigvalsh`` and plain Python, none of it program
    code. Its time tracks how fast the machine runs."""
    eigvalsh = np.linalg.eigvalsh  # bound before any tracing wrapper
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = A + A.T
    B = rng.standard_normal((64, 8, 8))
    B = B + B.transpose(0, 2, 1)

    def kernel() -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            eigvalsh(A)
        eigvalsh(B)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.perf_counter() - t0

    return kernel


class Speedometer:
    """Times the reference kernel every METER_EVERY_S of wall time, from
    a SIGALRM handler, while the timed loop runs. ``spent`` is the wall
    time spent in the handler, which the loop takes out of each
    instance's latency. ``factors`` gives for each instance's span
    [t0, t1], widened to at least METER_WINDOW_S, the mean of CAL_REF_S
    over the kernel times sampled in it: the factor taking the instance's
    time to reference speed. A shared machine's speed changes within a
    second, so an instance is scaled by the speed sampled while it ran."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []  # (time, kernel time)
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        dt = self.kernel()
        self.samples.append((t0, dt))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_EVERY_S, METER_EVERY_S)

    def stop(self) -> None:
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def factors(self, spans: list[tuple[float, float]], fallback: float) -> list[float]:
        times = [t for t, _ in self.samples]
        out = []
        for t0, t1 in spans:
            pad = max(0.0, 0.5 * (METER_WINDOW_S - (t1 - t0)))
            lo = bisect.bisect_left(times, t0 - pad)
            hi = bisect.bisect_right(times, t1 + pad)
            window = [CAL_REF_S / dt for _, dt in self.samples[lo:hi]]
            out.append(statistics.fmean(window) if window else fallback)
        return out


def _machine() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25 prints only
        pass
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[:4]
    seed, seconds = int(seed), float(seconds)
    quick = "--quick" in argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads
    from numradius import numrange

    wl = workloads.WORKLOADS[name]
    size = QUICK_POOL if quick else int(math.ceil(wl.rate_cap * seconds)) + 1
    pool = wl.make(seed, size)
    warm = wl.make(seed + WARM_OFFSET, 2)[1]
    numrange.numerical_radius(warm["T"])
    setup_s = time.perf_counter() - T_START
    kernel = _reference_kernel()
    cal = [kernel() for _ in range(CAL_SAMPLES)]
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "cal_s": cal}))
        return 0

    tracer = tracing.Tracer() if mode == "traced" else None
    calls = workloads.Calls(tracer)
    latency: list[float] = []
    spans: list[tuple[float, float]] = []
    outs: list = []
    meter = Speedometer(kernel)
    if tracer is not None:
        tracer.install()
    meter.start()
    t_loop = time.perf_counter()
    deadline = math.inf if quick else t_loop + seconds
    try:
        for inst in pool:
            t0, spent0 = time.perf_counter(), meter.spent
            if t0 >= deadline:
                break
            try:
                out = wl.run(inst, calls)
            except workloads.Failed:
                out = None
            t1, spent1 = time.perf_counter(), meter.spent
            latency.append(t1 - t0 - (spent1 - spent0))
            spans.append((t0, t1))
            outs.append(out)
            if len(outs) == wl.rss_after:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        meter.stop()
        if tracer is not None:
            tracer.uninstall()
    loop_s = time.perf_counter() - t_loop
    fallback = CAL_REF_S / statistics.median(cal)
    speed = meter.factors(spans, fallback)
    if len(outs) < wl.rss_after:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks = 0
    wrong: dict[str, int] = {}
    for inst, out in zip(pool, outs):
        if out is None:
            continue
        for label, ok in wl.check(inst, out):
            checks += 1
            if not ok:
                wrong[label] = wrong.get(label, 0) + 1
    # caches are keyed on matrix bytes: an instance timed twice would be a
    # cache hit, so the timed instances and the warm-up must all differ
    keys = [inst["key"] for inst in pool[: len(outs)]] + [warm["key"]]
    result = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "latency_s": latency,
        "cal_s": cal,
        "speed": speed,
        "meter_samples": len(meter.samples),
        "meter_s": meter.spent,
        "ok": [out is not None for out in outs],
        "kinds": [inst["kind"] for inst in pool[: len(outs)]],
        "pool": len(pool),
        "exhausted": len(outs) == len(pool) and not quick,
        "attempted": calls.attempted,
        "errors": calls.errors,
        "checks": checks,
        "wrong": wrong,
        "distinct": len(set(keys)) == len(keys),
        "digests": [_digest(out) for out in outs],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "rss_instances": min(len(outs), wl.rss_after),
        "machine": _machine(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(outs), sum(latency))
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
