"""Run every workload untraced and traced; print all metrics and the overhead.

    python3 bench/report.py

For each workload of BENCHMARK.json, with seed 1 and its run_seconds,
this runs ``run.py --trace 0`` (end-to-end metrics, checked answers)
and ``run.py --trace 1`` (per-layer table), then prints the tracing
overhead as traced wall_s / untraced measured wall time, with both
bases.
Exits 1 if any run fails or reports a wrong answer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int):
    """(stdout lines before the result, result object or None)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ok = True
    overhead = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            lines, result = run(workload, 1, spec["run_seconds"], trace)
            print("\n".join(lines))
            if result is None or not result["correct"]:
                print("%s (trace %d): FAILED" % (workload, trace))
                ok = False
                break
            if trace == 0:
                # the traced run has no speed probe, so compare measured times
                measured = next(ln for ln in lines if ln.startswith("measured: pass "))
                untraced = float(measured.split()[2])
            else:
                overhead.append((workload, untraced, result["metrics"]["traced.wall_s"]["value"]))
            print()
    print("tracing overhead (traced wall_s / untraced measured wall time):")
    for workload, base, traced in overhead:
        print("  %-12s %8.3f s / %8.3f s = %.3f" % (workload, traced, base, traced / base))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
