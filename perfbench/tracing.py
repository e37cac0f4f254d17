"""Per-layer spans for the traced run.

The traced worker wraps the public functions of each numradius module,
and the numpy eigensolvers they call (layer ``lapack``), by replacing
module attributes for the duration of the timed loop. Nothing under
``src/`` changes: callers that look a function up on its module at call
time (``_eig.max_batch(...)``, ``np.linalg.eigvalsh(...)``), and names a
module imported with ``from ... import`` (the CLI's), all reach the
wrapper. A wrapper passes arguments and results through untouched, so
the traced run must produce bitwise the plain run's outputs.

For each wrapped function F the tracer keeps the call count, inclusive
time and the time covered by wrapped child spans, so that self time is
inclusive time minus child time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute); a target missing from the program is
# reported as missing and its metrics read zero
TARGETS = (
    ("wderiv", "numradius.wderiv", "min_epsilon"),
    ("wderiv", "numradius.wderiv", "inf_derivative"),
    ("wderiv", "numradius.wderiv", "omega_derivative"),
    ("wderiv", "numradius.wderiv", "is_omega_orthogonal"),
    ("wderiv", "numradius.wderiv", "is_bj_orthogonal"),
    ("numrange", "numradius.numrange", "numerical_radius"),
    ("numrange", "numradius.numrange", "crawford_number"),
    ("numrange", "numradius.numrange", "radius_enclosure"),
    ("numrange", "numradius.numrange", "boundary_points"),
    ("numrange", "numradius.numrange", "maximizers"),
    ("linalg", "numradius.linalg", "spectral_norm"),
    ("oracle", "numradius.oracle", "direct_lambda_scan"),
    ("oracle", "numradius.oracle", "sample_radius_lower"),
    ("oracle", "numradius.oracle", "ellipse_radius_2x2"),
    ("_eig", "numradius._eig", "extremes_batch"),
    ("_eig", "numradius._eig", "max_batch"),
    ("_eig", "numradius._eig", "lammax_single"),
    ("_eig", "numradius._eig", "eigh_single"),
    ("_eig", "numradius._eig", "spectral_norm_fast"),
    ("_eig", "numradius._eig", "jacobi_eigh"),
    ("lapack", "numpy.linalg", "eigvalsh"),
    ("lapack", "numpy.linalg", "eigh"),
)

# the paper-check span is opened by the workload around cli.main
PAPER_CHECK = "cli.paper_check"

# every span name, in report order; the leaves call no wrapped function,
# so their self time equals their inclusive time and is not reported
SPANS = (
    PAPER_CHECK,
    "wderiv.min_epsilon",
    "wderiv.inf_derivative",
    "wderiv.omega_derivative",
    "wderiv.is_omega_orthogonal.derivative",
    "wderiv.is_omega_orthogonal.direct",
    "wderiv.is_bj_orthogonal",
    "numrange.numerical_radius",
    "numrange.crawford_number",
    "numrange.radius_enclosure",
    "numrange.boundary_points",
    "numrange.maximizers",
    "linalg.spectral_norm",
    "oracle.direct_lambda_scan",
    "oracle.sample_radius_lower",
    "oracle.ellipse_radius_2x2",
    "_eig.extremes_batch",
    "_eig.max_batch",
    "_eig.lammax_single",
    "_eig.eigh_single",
    "_eig.spectral_norm_fast",
    "_eig.jacobi_eigh",
    "lapack.eigvalsh.single",
    "lapack.eigvalsh.batched",
    "lapack.eigh",
)
LEAVES = frozenset(
    {
        "oracle.sample_radius_lower",
        "oracle.ellipse_radius_2x2",
        "_eig.jacobi_eigh",
        "lapack.eigvalsh.single",
        "lapack.eigvalsh.batched",
        "lapack.eigh",
    }
)


def _batch(a) -> int:
    """Number of matrices in a (..., n, n) stack."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Span accounting for wrapped functions; install() ... uninstall()."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            self.calls[name] += 1
            self.inclusive[name] += dt
            self.child[name] += child
            if self._open:
                self._open[-1] += dt

    def _wrapper(self, layer: str, attr: str, fn):
        span = self.span
        if attr == "is_omega_orthogonal":
            base = f"{layer}.{attr}"

            def wrapped(*args, **kwargs):
                method = kwargs.get("method", args[3] if len(args) > 3 else "derivative")
                return span(f"{base}.{method}", fn, *args, **kwargs)

        elif attr == "eigvalsh":
            counts = self.counts

            def wrapped(a, *args, **kwargs):
                if np.ndim(a) > 2:
                    counts["lapack.eigvalsh.batched.matrices"] += _batch(a)
                    return span("lapack.eigvalsh.batched", fn, a, *args, **kwargs)
                return span("lapack.eigvalsh.single", fn, a, *args, **kwargs)

        elif attr in ("extremes_batch", "max_batch"):
            name = f"{layer}.{attr}"
            lanes = f"{name}.lanes"
            counts = self.counts

            def wrapped(H, *args, **kwargs):
                counts[lanes] += _batch(H)
                return span(name, fn, H, *args, **kwargs)

        else:
            name = f"{layer}.{attr}"

            def wrapped(*args, **kwargs):
                return span(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _replace(self, module, name: str, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> None:
        """Replace every target, and each numradius alias of it."""
        aliases = [
            m for k, m in sorted(sys.modules.items())
            if k == "numradius" or k.startswith("numradius.")
        ]
        for layer, modname, attr in TARGETS:
            module = sys.modules.get(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrapper(layer, attr, fn)
            self._replace(module, attr, wrapped)
            for m in aliases:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    def metrics(self, instances: int, busy_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.time_s"] = (self.inclusive[name], "s")
            if name not in LEAVES:
                out[f"{name}.self_s"] = (self.inclusive[name] - self.child[name], "s")
        for name in (
            "_eig.extremes_batch.lanes",
            "_eig.max_batch.lanes",
            "lapack.eigvalsh.batched.matrices",
        ):
            out[name] = (self.counts[name], "count")
        out["lapack.eigvalsh.single.per_instance"] = (
            self.calls["lapack.eigvalsh.single"] / max(instances, 1),
            "count/instance",
        )
        lapack_s = sum(v for k, v in self.inclusive.items() if k.startswith("lapack."))
        out["lapack.time_share"] = (lapack_s / busy_s if busy_s > 0 else 0.0, "ratio")
        return out
