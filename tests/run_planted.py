"""A larger seeded run of the planted-truth suite in ``test_planted.py``.

Runs the suite's strategies with hypothesis seed 0 and far more
examples than tier-1 allows: about 300 algebraic plants (plain and
lclm'd; the lclm'd ones scan clusters that split at the exact root
check) and 600 hypergeometric draws, interlacing and not.  pytest does
not collect this file.  Run it from the repository root:

    PYTHONPATH=src python tests/run_planted.py

It prints what it ran and how long it took, and exits 1 on a false
``T``, a false certificate from ``prove_algebraic`` or a report that
``verify_report`` rejects.
"""

import sys
import time
import traceback

from hypothesis import HealthCheck, given, seed, settings

import dfinite.transcend as transcend
from dfinite.local import SingularPoint

import test_planted as planted

# (name, inner test of test_planted, its strategies, examples)
RUNS = [
    ("algebraic plants", planted.test_algebraic_plants_never_get_t,
     dict(plant=planted._algebraic_plants()), 300),
    ("interlacing hypergeometric", planted.test_interlacing_hypergeometric_never_gets_t,
     dict(params=planted._interlacing_params()), 150),
    ("non-interlacing hypergeometric", planted.test_non_interlacing_hypergeometric_gets_no_certificate,
     dict(params=planted._applicable_params()), 450),
]


def main() -> int:
    splits = [0]
    branches = transcend.indicial_branches

    def counting(op, point):
        out = branches(op, point)
        splits[0] += point.kind == SingularPoint.ALGEBRAIC and len(out) > 1
        return out

    transcend.indicial_branches = counting
    failed = []
    for name, test, strategies, n in RUNS:
        drawn, checked = [0], [0]
        inner = test.hypothesis.inner_test

        def counted(**kw):
            drawn[0] += 1
            inner(**kw)  # an assume() inside rejects the draw
            checked[0] += 1

        run = seed(0)(settings(max_examples=n, deadline=None, database=None,
                               suppress_health_check=list(HealthCheck))(
            given(**strategies)(counted)))
        splits[0] = 0
        t0 = time.perf_counter()
        try:
            run()
        except Exception:
            traceback.print_exc()
            failed.append(name)
        print("%s: %d checked of %d drawn, %d split clusters scanned, %.1f s%s"
              % (name, checked[0], drawn[0], splits[0], time.perf_counter() - t0,
                 ", FAILED" if name in failed else ""))
    if failed:
        print("soundness failure in: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
