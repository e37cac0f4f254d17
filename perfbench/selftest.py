"""Self-test of the benchmark: the quick mode of every workload.

    python3 perfbench/selftest.py

For each workload, plain and traced, runs ``run.py --quick`` (three
instances per worker) and checks that the last line has exactly the
result keys, that every metric BENCHMARK.json names prints with its
unit, that no instance was timed twice in one process, and that the
traced run's outputs equal the plain run's bitwise. The listed
workloads must also pass their correctness checks; the unlisted
``ortho-small`` and ``scale`` are run too, and ``scale``'s verdict is
not required, since the program fails it today.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNLISTED = ("ortho-small", "scale")


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in bench["workloads"]] + list(UNLISTED):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            info, result = _run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if got != declared[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append("non-numeric metric value")
            if not info["instances_distinct"]:
                problems.append("an instance was timed twice in one process")
            if trace and not info["outputs_identical"]:
                problems.append("traced outputs differ from the plain run's")
            if workload != "scale" and not result["correct"]:
                problems.append(f"correctness checks failed: {info['wrong']}")
            print(f"{'FAIL' if problems else 'ok'} {label}: {len(got)} metrics, "
                  f"{info['instances']} instances")
            failures += [f"{label}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
