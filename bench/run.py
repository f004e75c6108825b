"""Outside-in benchmark of dfinite: time to verdict, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload family --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout the script sits
in.  A run measures set-up time in fresh interpreters, then makes
exactly one pass over the workload's requests, checking every answer.
``--seconds`` is the pass's time budget: it is checked, not filled, so
a faster program still measures one cold pass.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json, with times scaled to
a nominal machine speed by a speed probe (``SpeedProbe``; README.md
says why); with ``--trace 1`` it wraps the program's public functions
(see tracer.py) and reports the per-layer metrics instead, after
printing a per-layer table.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
# The speed probe runs about 2 ms of reference work every 50 ms of the
# untraced pass: a few hundred samples a pass, at about 4 % of its time.
PROBE_PERIOD = 0.05
REFERENCE_TERMS = 20
# End-to-end times are scaled to a machine on which one reference_work
# takes this long (about its median time on the 2-core machine of
# README.md), so that they read as seconds but do not drift with the
# machine's speed.
REFERENCE_NOMINAL_S = 0.002
SETUP_REFERENCE_REPEATS = 5
HASH_SEED = "0"
WORKLOADS = ("family", "diagonal", "local-scan", "small-ops")

# Layers each workload must call at least once in a traced run (the
# "should move" column of README.md).  A layer listed here that reads 0
# means the wrapper was bypassed or the workload no longer exercises it.
_VERDICT = ["transcend.transcendence_test", "transcend.verify_report"]
_GUESS = ["linalg.kernel_rank_mod_p", "linalg.kernel_vector_exact",
          "minimize.guess_annihilator", "minimize.minimal_annihilator",
          "series.unroll", "series.validate_init"]
_LOCAL = ["local.singularities", "local.indicial_branches", "local.rational_roots_nf",
          "quotient.split_cases", "sympy.resultant", "polys.Poly.rational_roots"]
REQUIRED_LAYERS = {
    "family": _VERDICT + _GUESS + ["generators.gen_binomial_sum",
                                   "transcend.globally_bounded_test", "cli.main"],
    "diagonal": _VERDICT + _GUESS + _LOCAL + ["generators.gen_diagonal",
                                              "transcend.globally_bounded_test"],
    "local-scan": _VERDICT + _LOCAL + ["local.formal_solutions",
                                       "transcend.globally_bounded_test"],
    "small-ops": _VERDICT + ["ore.lclm", "ore.op_right_divrem", "ore.ode_to_rec",
                             "series.unroll", "series.validate_init",
                             "minimize.certify_annihilates"],
}
# Layers a workload must not reach: local-scan does no guessing.
FORBIDDEN_LAYERS = {"local-scan": ["linalg.kernel_rank_mod_p", "linalg.kernel_vector_exact"]}

SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.load(sys.argv[3], int(sys.argv[4]))
"""


class HarnessError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_workloads():
    """Import the program from this checkout's src/ and the workloads."""
    init = SRC / "dfinite" / "__init__.py"
    if not init.is_file():
        raise HarnessError("no program to measure: %s is missing" % init.relative_to(ROOT))
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dfinite

    if Path(dfinite.__file__).resolve() != init.resolve():
        raise HarnessError("imported dfinite from %s, not from this checkout" % dfinite.__file__)
    import workloads

    return workloads


def reference_time(repeats: int) -> float:
    """Mean time of ``reference_work`` over back-to-back repeats."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - t0) / repeats


def measure_setup(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import dfinite and load the
    inputs, in seconds at the reference speed: each set-up is scaled by
    the reference work timed just before and just after it."""
    times = []
    for _ in range(SETUP_RUNS):
        before = reference_time(SETUP_REFERENCE_REPEATS)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = reference_time(SETUP_REFERENCE_REPEATS)
        times.append(elapsed * REFERENCE_NOMINAL_S / ((before + after) / 2))
    return statistics.median(times)


def reference_work() -> List[Fraction]:
    """A fixed piece of exact rational arithmetic, about 2 ms long, that
    uses nothing of the program: a product of two dense polynomials with
    small rational coefficients, as stdlib Fractions in lists."""
    a = [Fraction(i * 7 % 13 - 6, i % 5 + 1) for i in range(REFERENCE_TERMS)]
    b = [Fraction(i * 5 % 11 - 5, i % 7 + 1) for i in range(REFERENCE_TERMS)]
    c = [Fraction(0)] * (2 * REFERENCE_TERMS - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return c


class SpeedProbe:
    """Times ``reference_work`` every PROBE_PERIOD seconds of wall time,
    from a SIGALRM handler, while the program runs between the ticks.

    The samples follow the machine's speed through the pass.  ``clock``
    is perf_counter minus the time spent in the handler, so the program's
    own times leave the probe out.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(W, cases):
    """One untraced pass, with the speed probe running."""
    with SpeedProbe() as probe:
        p = W.Pass(probe.clock)
        t0 = probe.clock()
        W.run_cases(cases, p)
        p.wall_s = probe.clock() - t0
    p.reference_s = statistics.fmean(probe.samples)
    return p


def run_traced_pass(W, cases, tracer):
    """One pass with the tracer's wrappers in place and no probe, whose
    ticks would land inside the traced spans."""
    p = W.Pass()
    t0 = time.perf_counter()
    W.run_cases(cases, p)
    p.wall_s = time.perf_counter() - t0
    p.layers = tracer.snapshot()
    return p


def end_to_end(p, setup_s: float) -> Dict[str, float]:
    """Times are in seconds at the reference speed (see README.md)."""
    scale = REFERENCE_NOMINAL_S / p.reference_s
    return {
        "wall_s": p.wall_s * scale,
        # the geometric mean is the median of a log-normal sample, and
        # unlike a median it moves with every request (see README.md)
        "request_p50_s": statistics.geometric_mean(p.times) * scale,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (p.attempted - p.failed) / p.attempted,
    }


def per_layer(p, names: List[str]) -> Dict[str, float]:
    out = {}
    for name in names:
        if name == "traced.wall_s":
            out[name] = p.wall_s
            continue
        layer, stat = name.rsplit(".", 1)
        out[name] = p.layers.get(layer, {}).get(stat, 0)
    return out


def self_check(workload: str, tracer, p) -> None:
    """Raise HarnessError unless the trace covers what the workload runs."""
    problems = ["unwrapped alias %s" % a for a in tracer.unwrapped_aliases()]
    problems += ["%s recorded no call" % layer
                 for layer in REQUIRED_LAYERS[workload] if layer not in p.layers]
    problems += ["%s was called" % layer
                 for layer in FORBIDDEN_LAYERS.get(workload, []) if layer in p.layers]
    if problems:
        raise HarnessError("trace self-check failed on %s: %s" % (workload, "; ".join(problems)))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing orders sets and dicts inside sympy; one fixed seed
        # keeps that order, and the work it implies, the same in every run
        os.execve(sys.executable, [sys.executable, __file__] + argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    spec = load_spec()
    W = import_workloads()
    cases = W.load(args.workload, args.seed)
    import sympy  # noqa: F401  (the program imports it lazily; keep that out of the passes)

    if args.trace:
        from tracer import Tracer, format_table

        tracer = Tracer()
        tracer.install()
        try:
            p = run_traced_pass(W, cases, tracer)
            print("per-layer trace of %s (wall %.3f s):" % (args.workload, p.wall_s))
            print(format_table(p.layers, p.wall_s))
            self_check(args.workload, tracer, p)
        finally:
            tracer.uninstall()
        metrics = per_layer(p, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setup_s = measure_setup(args.workload, args.seed)
        p = run_pass(W, cases)
        print("measured: pass %.6f s, reference work %.4f ms a sample (%.4f ms nominal)" % (
            p.wall_s, 1e3 * p.reference_s, 1e3 * REFERENCE_NOMINAL_S))
        metrics = end_to_end(p, setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: metrics[name] for name in units}

    if p.wall_s > args.seconds:
        print("bench: the pass took %.1f s, over the %g s budget" % (p.wall_s, args.seconds),
              file=sys.stderr)
    for err in p.errors:
        print("FAILED %s" % err)
    print("%s: %d requests, %d failed (fail_ratio %.4f), answers %s" % (
        args.workload, p.attempted, p.failed, p.failed / p.attempted, p.digest()[:16]))
    for name, value in metrics.items():
        print("  %-40s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except HarnessError as e:
        print("bench: %s" % e, file=sys.stderr)
        sys.exit(3)
