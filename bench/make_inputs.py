"""Regenerate the checked-in inputs and pinned answers under data/.

The local-scan operators are the minimal annihilators of criterion 5
(pairs (1,3), (3,1), (2,3)) and of criterion 6(i), found by guessing
from generated terms; ``expected.json`` pins their singular points,
indicial data and verdicts.  ``small_verdicts.json`` pins the verdict
of every entry of the small-ops verdict pool.  Run from the repository root:

    python3 bench/make_inputs.py           # rewrite data/
    python3 bench/make_inputs.py --check   # exit 1 unless data/ matches byte for byte
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dfinite as D  # noqa: E402
from dfinite.transcend import TranscendOptions  # noqa: E402

import workloads as W  # noqa: E402

APERY = {
    "variable": "z",
    "operator": [[-5, 1], [1, -112, 7], [0, 3, -153, 6], [0, 0, 1, -34, 1]],
    "initial_terms": ["1", "5", "73"],
}


def dump(obj) -> str:
    """One top-level key per line, keys sorted."""
    lines = ["  %s: %s" % (json.dumps(k), json.dumps(obj[k])) for k in sorted(obj)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def problem(op, init, assertions=None) -> dict:
    coeffs = [[c for c in p.coeffs] for p in op.coeffs]
    if any(c.denominator != 1 for p in coeffs for c in p):
        raise ValueError("operator is not integral")
    out = {
        "variable": "z",
        "operator": [[int(c) for c in p] for p in coeffs],
        "initial_terms": [str(c) for c in init.coeffs],
    }
    if assertions:
        out["assertions"] = assertions
    return out


def local_scan_operators():
    for p, q in ((1, 3), (3, 1), (2, 3)):
        f = D.gen_binomial_sum([p, q], W.FAMILY_TERMS)
        op = D.guess_annihilator(f, max_order=8)
        yield "family_%d_%d" % (p, q), problem(op, f.prefix(op.order + max(4, op.order)))
    f = D.gen_diagonal(W.diagonal_spec(W.SPEC_6I), 120)
    op = D.guess_annihilator(f, 5)
    yield "diagonal_6i", problem(op, f.prefix(op.order + 4), {"globally_bounded": True})


def expected_answers(problems: dict) -> dict:
    out = {}
    for name, prob in problems.items():
        op = D.fileio.op_from_json(prob["operator"])
        init = D.fileio.series_from_json(prob["initial_terms"])
        call = lambda fn, *args, **kwargs: fn(*args, **kwargs)  # noqa: E731
        points = [W.scan_point(call, op, pt) for pt in D.singularities(op)]
        test = D.globally_bounded_test if prob.get("assertions") else D.transcendence_test
        rep = test(op, init, TranscendOptions(skip_minimization=True))
        out[name] = {"points": points, "verdict": rep.verdict}
    return out


def small_verdicts() -> dict:
    return {shape: [D.transcendence_test(op, init, W.SMALL_OPTS).verdict for op, init in entries]
            for shape, entries in W.verdict_pool().items()}


def generate() -> dict:
    """{file name: contents} for everything under data/."""
    problems = dict(local_scan_operators())
    files = {"apery.json": dump(APERY)}
    files.update(("%s.json" % name, dump(prob)) for name, prob in problems.items())
    files["expected.json"] = dump(expected_answers(problems))
    files["small_verdicts.json"] = dump(small_verdicts())
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the checked-in files instead of writing them")
    args = ap.parse_args()
    files = generate()
    if args.check:
        bad = [name for name, text in files.items()
               if not (W.DATA / name).is_file() or (W.DATA / name).read_text() != text]
        for name in bad:
            print("differs: data/%s" % name, file=sys.stderr)
        return 1 if bad else 0
    W.DATA.mkdir(exist_ok=True)
    for name, text in files.items():
        (W.DATA / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
