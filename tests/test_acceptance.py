"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and expected value is pinned here; runtime ceilings are
asserted with the wall clock.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import time

import pytest

from dfinite import (
    BivarPoly,
    DiagonalSpec,
    DiffOp,
    HypParams,
    MPoly,
    Poly,
    TRIDENT_STEPS,
    TruncSeries,
    RecOp,
    apery_diagonal_spec,
    binomial_double_product_spec,
    diagonal_grade_bound,
    gen_binomial_sum,
    gen_diagonal,
    gen_walk,
    globally_bounded_test,
    guess_annihilator,
    indicial,
    interlacing_criterion,
    minimal_annihilator,
    p_curvature,
    prove_algebraic,
    rec_to_ode,
    transcendence_test,
    unroll,
)
from dfinite.hypergeom import ALGEBRAIC, INAPPLICABLE, TRANSCENDENTAL
from dfinite.local import SingularPoint
from dfinite.minimize import INPUT_RETURNED, MinimizeOptions
from dfinite.rationals import QQ
from dfinite.transcend import (
    CONF_CONJECTURAL,
    STEP_LOGARITHM,
    STEP_NONSPLITTING,
    TranscendOptions,
    VERDICT_A,
    VERDICT_FAIL,
    VERDICT_T,
)
from oracles import p_curvature_oracle


def _report(criterion: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, "criterion %s exceeded %.0f s (%.1f s)" % (criterion, limit, elapsed)
    print("ACCEPTANCE %s: PASS (%.1f s%s)" % (criterion, elapsed, ("; " + detail) if detail else ""))


def test_criterion_1_apery_end_to_end():
    t0 = time.perf_counter()
    n = Poly.x()
    rec = RecOp(
        [n * n * n,
         Poly([1, 2]) * Poly([5, 17, 17]) * Poly([-1]),
         (n + 1) * (n + 1) * (n + 1)],
        backshift=1,
    )
    op = rec_to_ode(rec)
    expected = DiffOp([
        Poly([-5, 1]), Poly([1, -112, 7]), Poly([0, 3, -153, 6]), Poly([0, 0, 1, -34, 1])])
    assert op == expected  # canonical content-1 forms agree up to scalar
    assert op.order == 3 and op.degree() == 4
    f = unroll(op, TruncSeries([1, 5, 73]), 120)
    assert f == gen_binomial_sum([2, 2], 120)
    res = minimal_annihilator(op, TruncSeries([1, 5, 73]))
    assert res.status == INPUT_RETURNED
    data = indicial(op, SingularPoint.rational(QQ(0)))
    assert data.monic_q_poly() == Poly([0, 0, 0, 1])  # exactly lambda^3
    rep = transcendence_test(op, TruncSeries([1, 5, 73]))
    assert rep.verdict == VERDICT_T
    assert rep.certificate[-1].kind == STEP_NONSPLITTING
    assert rep.certificate[-1].payload["point"] == {"kind": "rational", "value": "0"}
    _report("1 (Apery end-to-end)", t0, 10.0)


def test_criterion_2_algebraic_control():
    t0 = time.perf_counter()
    op = DiffOp([Poly([4]), Poly([0, -4]), Poly([1, -2]) * Poly([1, -4])])
    init = TruncSeries([1, -1])
    rep_a = transcendence_test(op, init)
    assert rep_a.verdict == VERDICT_FAIL
    rep_b = globally_bounded_test(op, init)
    assert rep_b.verdict == VERDICT_A
    assert rep_b.confidence == CONF_CONJECTURAL
    got = prove_algebraic(op, init, max_dy=4, max_dz=4)
    assert got is not None
    poly, ann = got
    assert poly.deg_y == 2
    assert poly == BivarPoly([Poly([-1, 4, 1]), Poly([0, -2]), Poly([1])])
    assert ann == op  # root annihilator reproduces the display up to content
    _report("2 (algebraic control)", t0, 5.0)


def test_criterion_3_hypergeometric():
    t0 = time.perf_counter()
    for k in range(1, 7):
        verdict, _ = interlacing_criterion(HypParams([QQ(1, 2)] * k, [QQ(1)] * (k - 1)))
        assert verdict == (ALGEBRAIC if k == 1 else TRANSCENDENTAL), k
    verdict, _ = interlacing_criterion(HypParams([1, 1], [2]))
    assert verdict == INAPPLICABLE
    _report("3 (hypergeometric interlacing)", t0, 1.0)


def test_criterion_4_trident():
    t0 = time.perf_counter()
    f = gen_walk(TRIDENT_STEPS, 7)
    assert [int(c) for c in f.coeffs] == [1, 2, 7, 23, 84, 301, 1127]
    _report("4a (trident N=7)", t0, 1.0)
    t0 = time.perf_counter()
    f60 = gen_walk(TRIDENT_STEPS, 60)
    assert f60.trunc_order == 60
    assert list(f60.coeffs[:7]) == list(f.coeffs)
    _report("4b (trident N=60)", t0, 30.0)


def _expected_family_order(p: int, q: int) -> int:
    # order of the minimal operator for the binomial-sum family; the
    # equal-even pair is the documented exception to the square formula
    if p == q and p % 2 == 0:
        return p * p - 1
    return ((p + q) ** 2) // 4


def test_criterion_5_apery_like_family():
    t0 = time.perf_counter()
    pairs = [(p, q) for p in range(1, 5) for q in range(1, 5) if 2 <= p + q <= 5]
    for p, q in pairs:
        f = gen_binomial_sum([p, q], 300)
        op = guess_annihilator(f, max_order=8)
        assert op is not None, (p, q)
        assert op.order == _expected_family_order(p, q), (p, q, op.order)
        init = f.prefix(op.order + max(4, op.order))
        res = minimal_annihilator(
            op, init, MinimizeOptions(max_degree=op.degree() + 8, max_precision=300))
        assert res.status == INPUT_RETURNED, (p, q)
        data = indicial(res.operator, SingularPoint.rational(QQ(0)))
        mult = data.root_multiplicity(QQ(0))
        assert mult == p + q - 1, (p, q, mult)  # z^(p+q-1) * R, R(0) != 0
        assert data.degree == op.order
        assert diagonal_grade_bound(res.operator) == p + q, (p, q)
        rep = transcendence_test(
            res.operator, init,
            TranscendOptions(minimize=MinimizeOptions(
                max_degree=res.operator.degree() + 8, max_precision=300)))
        if (p, q) == (1, 1):
            assert rep.verdict == VERDICT_FAIL
            rep_b = globally_bounded_test(
                res.operator, init,
                TranscendOptions(minimize=MinimizeOptions(
                    max_degree=res.operator.degree() + 8, max_precision=300)))
            assert rep_b.verdict == VERDICT_A
        else:
            assert rep.verdict == VERDICT_T, (p, q)
    _report("5 (binomial-sum family)", t0, 300.0, "%d pairs" % len(pairs))


def _expand_product(f1, f2, nvars):
    out = {}
    for e1, c1 in f1.items():
        for e2, c2 in f2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MPoly(nvars, out)


def test_criterion_6_diagonal_pair():
    # (i) 1/((1-5x-7yz-13z^2)(1-x-xy)): order 3, degree <= 13, verdict A
    t0 = time.perf_counter()
    den = _expand_product(
        {(0, 0, 0): 1, (1, 0, 0): -5, (0, 1, 1): -7, (0, 0, 2): -13},
        {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1},
        3,
    )
    spec = DiagonalSpec(MPoly(3, {(0, 0, 0): 1}), den, ["x", "y", "z"])
    f = gen_diagonal(spec, 120)
    op = guess_annihilator(f, 5)
    assert op is not None and op.order == 3 and op.degree() <= 13
    init = f.prefix(op.order + 4)
    res = minimal_annihilator(op, init, MinimizeOptions(max_degree=op.degree() + 8, max_precision=120))
    assert res.status == INPUT_RETURNED
    rep = globally_bounded_test(
        res.operator, init,
        TranscendOptions(minimize=MinimizeOptions(max_degree=op.degree() + 8, max_precision=120)))
    assert rep.verdict == VERDICT_A and rep.confidence == CONF_CONJECTURAL
    _report("6i (algebraic diagonal)", t0, 300.0)

    # (ii) 1/((1-x-y-z^2)(1-x-xy)): order 7, degree <= 19, logarithm at 0
    t0 = time.perf_counter()
    den2 = _expand_product(
        {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 2): -1},
        {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1},
        3,
    )
    spec2 = DiagonalSpec(MPoly(3, {(0, 0, 0): 1}), den2, ["x", "y", "z"])
    g = gen_diagonal(spec2, 190)
    op2 = guess_annihilator(g, 8)
    assert op2 is not None and op2.order == 7 and op2.degree() <= 19
    init2 = g.prefix(op2.order + 4)
    res2 = minimal_annihilator(op2, init2, MinimizeOptions(max_degree=op2.degree() + 8, max_precision=190))
    assert res2.status == INPUT_RETURNED
    rep2 = transcendence_test(
        res2.operator, init2,
        TranscendOptions(minimize=MinimizeOptions(max_degree=op2.degree() + 8, max_precision=190)))
    assert rep2.verdict == VERDICT_T
    step = rep2.certificate[-1]
    assert step.payload["point"] == {"kind": "rational", "value": "0"}
    if step.kind == STEP_NONSPLITTING:
        # a repeated zero root of the indicial polynomial forces logarithmic
        # local solutions, which is the logarithmic certificate at the origin
        mult0 = dict((r, m) for r, m in
                     [(x[0], x[1]) for x in step.payload["distinct_rational_roots"]])
        assert mult0.get("0", 0) >= 2
    else:
        assert step.kind == STEP_LOGARITHM
    _report("6ii (transcendental diagonal)", t0, 1800.0)


def test_criterion_7_p_curvature_suite(sqrt_op, delannoy_op, cbrt_op, apery_op, log_op):
    t0 = time.perf_counter()
    primes = (3, 5, 7, 11, 13)
    algebraic = [sqrt_op, cbrt_op, delannoy_op]
    transcendental = [apery_op, log_op]
    for op in algebraic:
        for p in primes:
            rep = p_curvature(op, p)
            if not rep.bad_prime:
                assert rep.is_zero, (op, p)
    for op in transcendental:
        for p in primes:
            rep = p_curvature(op, p)
            if not rep.bad_prime:
                assert not rep.is_zero, (op, p)
    # zero-ness and rank over F_p(z) against the independent fraction-arithmetic oracle
    for op in algebraic + transcendental:
        for p in (5, 7, 11, 13):
            rep = p_curvature(op, p)
            assert not rep.bad_prime
            assert (rep.is_zero, rep.matrix_rank) == p_curvature_oracle(op, p), (op, p)
    _report("7 (p-curvature suite)", t0, 30.0)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    import test_properties as props

    props.test_divrem_reconstruction_suite()
    props.test_lclm_divisibility_suite()
    props.test_mul_apply_compatibility_suite()
    props.test_frobenius_annihilation_suite()
    props.test_zero_test_soundness_suite()
    props.test_verdict_determinism_suite()
    _report("8 (property suites, 200 cases each)", t0, 600.0)


def test_criterion_9_appendix_identities():
    t0 = time.perf_counter()
    assert gen_binomial_sum([2, 2], 6) == gen_diagonal(apery_diagonal_spec(2, 2), 6)
    # weight-two pairs and their two-variable diagonal realizations
    assert gen_binomial_sum([1, 0, 1], 12) == gen_diagonal(binomial_double_product_spec(2), 12)
    assert gen_binomial_sum([1, 1], 12) == gen_diagonal(binomial_double_product_spec(1), 12)
    _report("9 (diagonal identities)", t0, 120.0)
