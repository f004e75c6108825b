"""The benchmark's four workloads, built from the paper's own objects.

Each workload is a fixed list of cases; a case is a chain of requests
(one public call each: a verdict, an indicial query, an lclm, ...) whose
answers are checked against values pinned from the acceptance suite or,
for ``local-scan`` and the ``small-ops`` verdicts, under ``data/``.
Requests are timed one by one through ``Pass.call``; a wrong answer, an exception or a
certificate that does not replay marks the request failed and the pass
goes on with the next case.

Only ``small-ops`` draws its inputs from the seed; the other workloads
are the same objects on every seed.  Program functions are looked up
on the ``dfinite`` package at call time (``D.name``), so a traced run
calls the tracer's wrappers.  See README.md for why each workload exists
and what it leaves out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import dfinite as D
import dfinite.cli  # noqa: F401  (loaded before tracing so cli.main is wrapped)
import dfinite.fileio  # noqa: F401
from dfinite.minimize import INPUT_RETURNED, MinimizeOptions
from dfinite.rationals import QQ
from dfinite.transcend import TranscendOptions

DATA = Path(__file__).resolve().parent / "data"

# Criterion 5 pairs run per pass (the full p+q <= 5 family takes ~41 s,
# more than one run may spend): the FAIL/A pair, the equal-even exception
# and the largest order-6 guess.  Degrees are pinned from the seed commit.
FAMILY = {(1, 1): 2, (2, 2): 4, (4, 1): 15}
FAMILY_TERMS = 300
LOCAL_SCAN = ("family_1_3", "family_3_1", "family_2_3", "diagonal_6i")
SMALL_LCLM_PAIRS = 200
SMALL_VERDICTS = 200
SMALL_FIXED_SEED = 0  # draws the verdict pool and the deal of degree vectors
SMALL_POOL_PER_SHAPE = 60


class Pass:
    """One pass over a workload: per-request times, failures, outputs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.times: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.outputs: List[object] = []
        self._current_ok = True

    def call(self, fn: Callable, *args, **kwargs):
        """Time one request."""
        out, dt = self._issue(fn, args, kwargs)
        self.times.append(dt)
        return out

    def replay(self, op, init, report) -> None:
        """Replay a verdict's certificate as its own request.  Replays take
        0.1 to 20 ms, and between processes their times swing by up to 2x
        on a noisy machine, so they count in the pass but not in ``times``."""
        (ok, reason), _ = self._issue(D.verify_report, (op, init, report), {})
        self.expect(ok, "certificate does not replay: %s" % reason)

    def _issue(self, fn: Callable, args, kwargs):
        self.attempted += 1
        self._current_ok = True
        t0 = self.clock()
        out = fn(*args, **kwargs)
        return out, self.clock() - t0

    def expect(self, cond: bool, what: str) -> None:
        """Check the answer of the latest request; one failure per request."""
        if not cond and self._current_ok:
            self._current_ok = False
            self.failed += 1
            self.errors.append(what)

    def record(self, obj) -> None:
        self.outputs.append(obj)

    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class Case(NamedTuple):
    label: str
    requests: int  # requests the case issues when nothing fails
    run: Callable[[Pass], None]


def run_cases(cases: List[Case], p: Pass) -> None:
    """Run every case; an exception fails the request in flight and the
    requests of the case it never reached."""
    for case in cases:
        before = p.attempted
        try:
            case.run(p)
        except Exception as e:  # a failing request must not end the pass
            p.expect(False, "%s: %s: %s" % (case.label, type(e).__name__, e))
        missing = case.requests - (p.attempted - before)
        if missing > 0:
            p.attempted += missing
            p.failed += missing
            p.errors.append("%s: %d requests not reached" % (case.label, missing))


def report_json(rep) -> Dict:
    out = rep.to_json()
    out.pop("timings")
    return out


def _minimize_opts(op, precision: int) -> MinimizeOptions:
    return MinimizeOptions(max_degree=op.degree() + 8, max_precision=precision)


def _family_order(p: int, q: int) -> int:
    if p == q and p % 2 == 0:
        return p * p - 1
    return ((p + q) ** 2) // 4


# ---------------------------------------------------------------------------
# family: criterion 5 end to end, plus the Apery problem through the CLI
# ---------------------------------------------------------------------------


def _family_case(p: int, q: int, degree: int) -> Case:
    def run(ps: Pass) -> None:
        f = ps.call(D.gen_binomial_sum, [p, q], FAMILY_TERMS)
        op = ps.call(D.guess_annihilator, f, max_order=8)
        ps.expect(op is not None and op.order == _family_order(p, q) and op.degree() == degree,
                  "(%d,%d): guessed %r" % (p, q, op))
        init = f.prefix(op.order + max(4, op.order))
        opts = TranscendOptions(minimize=_minimize_opts(op, FAMILY_TERMS))
        res = ps.call(D.minimal_annihilator, op, init, opts.minimize)
        ps.expect(res.status == INPUT_RETURNED, "(%d,%d): status %s" % (p, q, res.status))
        data = D.indicial(res.operator, D.SingularPoint.rational(QQ(0)))
        ps.expect(data.root_multiplicity(QQ(0)) == p + q - 1 and data.degree == op.order,
                  "(%d,%d): indicial data at 0 %r" % (p, q, data))
        ps.expect(D.diagonal_grade_bound(res.operator) == p + q,
                  "(%d,%d): diagonal grade bound" % (p, q))
        rep = ps.call(D.transcendence_test, res.operator, init, opts)
        want = "FAIL" if (p, q) == (1, 1) else "T"
        ps.expect(rep.verdict == want, "(%d,%d): verdict %s" % (p, q, rep.verdict))
        ps.record(report_json(rep))
        ps.replay(op, init, rep.to_json())
        if (p, q) == (1, 1):
            rep = ps.call(D.globally_bounded_test, res.operator, init, opts)
            ps.expect(rep.verdict == "A", "(1,1): globally bounded verdict %s" % rep.verdict)
            ps.record(report_json(rep))
            ps.replay(op, init, rep.to_json())

    return Case("family(%d,%d)" % (p, q), 7 if (p, q) == (1, 1) else 5, run)


def _cli_case(path: Path) -> Case:
    def run(ps: Pass) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ps.call(D.cli.main, ["test", str(path)])
        rep = json.loads(buf.getvalue())
        last = rep["certificate"][-1]
        ps.expect(code == 0 and rep["verdict"] == "T" and last["kind"] == "nonsplitting-indicial"
                  and last["point"] == {"kind": "rational", "value": "0"},
                  "cli test on the Apery problem: %s" % rep.get("verdict"))
        rep.pop("timings")
        ps.record(rep)
        op, init, _ = D.fileio.load_problem(str(path))
        ps.replay(op, init, rep)

    return Case("cli test apery", 2, run)


def family_cases() -> List[Case]:
    cases = [_family_case(p, q, d) for (p, q), d in FAMILY.items()]
    cases.append(_cli_case(DATA / "apery.json"))
    return cases


# ---------------------------------------------------------------------------
# diagonal: criterion 6, both halves
# ---------------------------------------------------------------------------


def _expand_product(f1: Dict, f2: Dict, nvars: int):
    out: Dict[Tuple[int, ...], int] = {}
    for e1, c1 in f1.items():
        for e2, c2 in f2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return D.MPoly(nvars, out)


def diagonal_spec(first_factor: Dict):
    """1 / (first_factor * (1 - x - xy)) in x, y, z."""
    den = _expand_product(first_factor, {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1}, 3)
    return D.DiagonalSpec(D.MPoly(3, {(0, 0, 0): 1}), den, ["x", "y", "z"])


# (i) 1/((1-5x-7yz-13z^2)(1-x-xy)): order 3, degree 13, verdict A
SPEC_6I = {(0, 0, 0): 1, (1, 0, 0): -5, (0, 1, 1): -7, (0, 0, 2): -13}
# (ii) 1/((1-x-y-z^2)(1-x-xy)): order 7, degree 19, verdict T at the origin
SPEC_6II = {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 2): -1}


def _diagonal_case(label, first_factor, terms, max_order, order, degree, test, verdict) -> Case:
    def run(ps: Pass) -> None:
        f = ps.call(D.gen_diagonal, diagonal_spec(first_factor), terms)
        op = ps.call(D.guess_annihilator, f, max_order)
        ps.expect(op is not None and op.order == order and op.degree() == degree,
                  "%s: guessed %r" % (label, op))
        init = f.prefix(op.order + 4)
        opts = TranscendOptions(minimize=_minimize_opts(op, terms))
        res = ps.call(D.minimal_annihilator, op, init, opts.minimize)
        ps.expect(res.status == INPUT_RETURNED, "%s: status %s" % (label, res.status))
        rep = ps.call(getattr(D, test), res.operator, init, opts)
        ok = rep.verdict == verdict
        if verdict == "A":
            ok = ok and rep.confidence == "conjectural-christol-andre"
        else:
            step = rep.certificate[-1]
            ok = ok and step.payload["point"] == {"kind": "rational", "value": "0"}
            if ok and step.kind == "nonsplitting-indicial":
                mult0 = {r: m for r, m in step.payload["distinct_rational_roots"]}
                ok = mult0.get("0", 0) >= 2
            else:
                ok = ok and step.kind == "logarithm-detected"
        ps.expect(ok, "%s: verdict %s" % (label, rep.verdict))
        ps.record(report_json(rep))
        ps.replay(op, init, rep.to_json())

    return Case(label, 5, run)


def diagonal_cases() -> List[Case]:
    return [
        _diagonal_case("diagonal 6(i)", SPEC_6I, 120, 5, 3, 13, "globally_bounded_test", "A"),
        _diagonal_case("diagonal 6(ii)", SPEC_6II, 190, 8, 7, 19, "transcendence_test", "T"),
    ]


# ---------------------------------------------------------------------------
# local-scan: precomputed operators, singular points only
# ---------------------------------------------------------------------------


def indicial_json(branches) -> List[Dict]:
    return [{
        "point": b.point.label(),
        "degree": b.degree,
        "rational_roots": [[str(r), m] for r, m in b.rational_roots],
    } for b in branches]


def frobenius_order(branch) -> Optional[int]:
    """Series order a logarithm check needs at a branch: the largest
    integer difference of its indicial roots, or None when a root is not
    rational or no two roots differ by an integer."""
    if sum(m for _, m in branch.rational_roots) < branch.degree:
        return None
    roots = [r for r, _ in branch.rational_roots]
    diffs = [r - s for r in roots for s in roots if r > s and (r - s).denominator == 1]
    return int(max(diffs)) if diffs else None


def scan_point(call: Callable, op, point) -> Dict:
    """Indicial data at every branch of a point, then a Frobenius
    logarithm check wherever the roots call for one."""
    branches = call(D.indicial_branches, op, point)
    logarithms = []
    for b in branches:
        order = frobenius_order(b)
        if order is not None:
            basis = call(D.formal_solutions, op, b.point, order, mode="flag", branch=b.branch)
            logarithms.append(basis.has_logarithms)
    return {"label": point.label(), "branches": indicial_json(branches), "logarithms": logarithms}


def _local_case(name: str, expected: Dict) -> Case:
    path = DATA / ("%s.json" % name)
    op, init, assertions = D.fileio.load_problem(str(path))
    test = "globally_bounded_test" if assertions.get("globally_bounded") else "transcendence_test"
    opts = TranscendOptions(skip_minimization=True)

    def run(ps: Pass) -> None:
        points = ps.call(D.singularities, op)
        labels = [pt.label() for pt in points]
        ps.expect(labels == [pt["label"] for pt in expected["points"]],
                  "%s: singular points %s" % (name, labels))
        for pt in points:
            got = scan_point(ps.call, op, pt)
            ps.expect(got in expected["points"], "%s: local data at %s" % (name, pt.label()))
            ps.record(got)
        rep = ps.call(getattr(D, test), op, init, opts)
        ps.expect(rep.verdict == expected["verdict"], "%s: verdict %s" % (name, rep.verdict))
        ps.record(report_json(rep))
        ps.replay(op, init, rep.to_json())

    requests = sum(1 + len(pt["logarithms"]) for pt in expected["points"])
    return Case("local-scan %s" % name, requests + 3, run)


def local_scan_cases() -> List[Case]:
    with open(DATA / "expected.json") as fh:
        expected = json.load(fh)
    return [_local_case(name, expected[name]) for name in LOCAL_SCAN]


# ---------------------------------------------------------------------------
# small-ops: many small requests from the criterion-8 distribution
# ---------------------------------------------------------------------------


class _ShapeDeck:
    """Degree vectors of random operators, dealt from shuffled decks.

    Criterion 8 draws each coefficient degree uniformly; dealing every
    shape of an order once before any repeats keeps those proportions
    exact in the deal.
    """

    def __init__(self, rng: random.Random, max_deg: int):
        self.rng = rng
        self.max_deg = max_deg
        self.decks: Dict[int, List[Tuple[int, ...]]] = {}

    def draw(self, order: int) -> Tuple[int, ...]:
        deck = self.decks.get(order)
        if not deck:
            deck = list(itertools.product(range(self.max_deg + 1), repeat=order + 1))
            self.rng.shuffle(deck)
            self.decks[order] = deck
        return deck.pop()


def _rand_poly(rng: random.Random, deg: int, nonzero: bool = False):
    while True:
        p = D.Poly([QQ(rng.randint(-5, 5)) for _ in range(deg + 1)])
        if not nonzero or not p.is_zero():
            return p


def _rand_op(rng: random.Random, degrees: Tuple[int, ...]):
    coeffs = [_rand_poly(rng, d) for d in degrees[:-1]]
    coeffs.append(_rand_poly(rng, degrees[-1], nonzero=True))
    return D.DiffOp(coeffs)


def _verdict_input(rng: random.Random, degrees: Tuple[int, ...]):
    while True:
        op = _rand_op(rng, degrees)
        if op.leading[0] != 0:
            break
    while True:
        init = D.TruncSeries([QQ(rng.randint(-4, 4)) for _ in range(op.order)])
        if any(c != 0 for c in init.coeffs):
            return op, init


def shape_label(degrees: Tuple[int, ...]) -> str:
    return "".join(map(str, degrees))


def verdict_pool() -> Dict[str, List]:
    """{shape label: [(op, init), ...]}: SMALL_POOL_PER_SHAPE verdict inputs
    for every degree vector of order 1 and 2 with degrees <= 1.  The pool is
    the same on every seed, so ``data/small_verdicts.json`` can pin the
    verdict of each entry."""
    rng = random.Random(SMALL_FIXED_SEED)
    return {shape_label(degrees): [_verdict_input(rng, degrees) for _ in range(SMALL_POOL_PER_SHAPE)]
            for order in (1, 2) for degrees in itertools.product(range(2), repeat=order + 1)}


def small_ops_shapes():
    """(degree vectors of the lclm pairs, shape labels of the verdicts):
    one deal from the shape decks, the same on every seed.  Orders
    alternate evenly.  A pair's lclm takes 1 to 300 ms, growing with the
    degrees it is dealt, so a fresh deal per seed would move the cost of
    a pass by about 5 % from seed to seed."""
    rng = random.Random(SMALL_FIXED_SEED)
    deck = _ShapeDeck(rng, 2)
    pairs = [(deck.draw(oa + 1), deck.draw(ob + 1))
             for oa, ob in (divmod(i % 4, 2) for i in range(SMALL_LCLM_PAIRS))]
    deck = _ShapeDeck(rng, 1)
    return pairs, [shape_label(deck.draw(1 + i % 2)) for i in range(SMALL_VERDICTS)]


def small_ops_inputs(seed: int):
    """(lclm pairs, verdict picks) for a seed.  The seed draws the lclm
    coefficients and which pool entries of each shape the verdicts take.
    A pick is (shape label, index into ``verdict_pool()[shape]``)."""
    rng = random.Random(seed)
    pair_shapes, verdict_shapes = small_ops_shapes()
    pairs = [(_rand_op(rng, a), _rand_op(rng, b)) for a, b in pair_shapes]
    unused = {s: rng.sample(range(SMALL_POOL_PER_SHAPE), SMALL_POOL_PER_SHAPE)
              for s in sorted(set(verdict_shapes))}
    return pairs, [(s, unused[s].pop()) for s in verdict_shapes]


SMALL_OPTS = TranscendOptions(minimize=MinimizeOptions(max_degree=4, max_precision=80))


def _lclm_case(i: int, a, b) -> Case:
    def run(ps: Pass) -> None:
        m = ps.call(D.lclm, a, b)
        ps.expect(m.order <= a.order + b.order and D.ore.right_divides(a, m)
                  and D.ore.right_divides(b, m), "lclm %d does not divide" % i)
        ps.record(D.fileio.op_to_json(m))

    return Case("lclm %d" % i, 1, run)


def _verdict_case(i: int, op, init, verdict: str) -> Case:
    def run(ps: Pass) -> None:
        rep = ps.call(D.transcendence_test, op, init, SMALL_OPTS)
        ps.expect(rep.verdict == verdict, "verdict %d: %s, pinned %s" % (i, rep.verdict, verdict))
        ps.record(report_json(rep))
        ps.replay(op, init, rep.to_json())

    return Case("verdict %d" % i, 2, run)


def small_ops_cases(seed: int) -> List[Case]:
    pairs, picks = small_ops_inputs(seed)
    pool = verdict_pool()
    with open(DATA / "small_verdicts.json") as fh:
        pinned = json.load(fh)
    cases = [_lclm_case(i, a, b) for i, (a, b) in enumerate(pairs)]
    cases.extend(_verdict_case(i, *pool[s][j], pinned[s][j]) for i, (s, j) in enumerate(picks))
    return cases


def load(name: str, seed: int) -> List[Case]:
    """The cases of a workload; raises KeyError for an unknown name."""
    if name == "small-ops":
        return small_ops_cases(seed)
    return {"family": family_cases, "diagonal": diagonal_cases,
            "local-scan": local_scan_cases}[name]()
