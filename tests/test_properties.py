"""Randomized property suites: 200 cases per property, zero tolerated
failures.  The RNG is seeded so runs are reproducible."""

import random

from dfinite import (
    DiffOp,
    Poly,
    TruncSeries,
    apply_op,
    formal_solutions,
    lclm,
    op_mul,
    op_right_divrem,
    transcendence_test,
    zero_test,
)
from dfinite.local import SingularPoint, _local_coeffs
from dfinite.minimize import MinimizeOptions
from dfinite.ore import op_mul_raw, right_divides
from dfinite.rationals import QQ
from dfinite.transcend import TranscendOptions
from oracles import (
    RatFunc,
    _d_compose,
    _to_ratfuncs,
    apply_local,
    apply_polys,
    divrem_ratfuncs,
    lclm_oracle,
)

N_CASES = 200


def _rand_poly(rng, deg, nonzero=False):
    while True:
        p = Poly([QQ(rng.randint(-5, 5)) for _ in range(deg + 1)])
        if not nonzero or not p.is_zero():
            return p


def _rand_op(rng, max_order, max_deg, min_order=0):
    order = rng.randint(min_order, max_order)
    coeffs = [_rand_poly(rng, rng.randint(0, max_deg)) for _ in range(order)]
    coeffs.append(_rand_poly(rng, rng.randint(0, max_deg), nonzero=True))
    return DiffOp(coeffs)


def test_divrem_reconstruction_suite():
    rng = random.Random(0xD1F1)
    for case in range(N_CASES):
        a = _rand_op(rng, 4, 3)
        b = _rand_op(rng, 4, 3, min_order=1)
        if a.is_zero():
            continue
        q, r = divrem_ratfuncs(*op_right_divrem(a, b))
        assert len(r) - 1 < b.order, case
        # reconstruct q o b + r over Q(z)
        towers = [_to_ratfuncs(b)]
        while len(towers) < len(q):
            towers.append(_d_compose(towers[-1]))
        recon = [RatFunc.const(0)] * (a.order + 1)
        for k, qk in enumerate(q):
            if qk.is_zero():
                continue
            for i, t in enumerate(towers[k]):
                recon[i] = recon[i] + qk * t
        for i, rr in enumerate(r):
            recon[i] = recon[i] + rr
        assert recon == _to_ratfuncs(a), case


def test_lclm_divisibility_suite():
    rng = random.Random(0xD1F2)
    for case in range(N_CASES):
        a = _rand_op(rng, 2, 2, min_order=1)
        b = _rand_op(rng, 2, 2, min_order=1)
        m = lclm(a, b)
        assert m == lclm_oracle(a, b), case
        assert m.order <= a.order + b.order, case
        assert right_divides(a, m), case
        assert right_divides(b, m), case


def test_mul_apply_compatibility_suite():
    rng = random.Random(0xD1F3)
    for case in range(N_CASES):
        a = _rand_op(rng, 3, 2)
        b = _rand_op(rng, 3, 2)
        f = TruncSeries([QQ(rng.randint(-6, 6)) for _ in range(16)])
        lhs = apply_op(op_mul(a, b), f)
        rhs = apply_op(a, apply_op(b, f))
        n = min(lhs.trunc_order, rhs.trunc_order)
        # op_mul normalizes content; compare up to the discarded factor
        raw_ab = [Poly(p) for p in op_mul_raw(a.rows, b.rows)]
        lhs_raw = apply_polys(raw_ab, f)
        n = min(lhs_raw.trunc_order, rhs.trunc_order)
        assert list(lhs_raw.coeffs[:n]) == list(rhs.coeffs[:n]), case


def test_frobenius_annihilation_suite():
    rng = random.Random(0xD1F4)
    done = 0
    while done < N_CASES:
        ks = rng.sample(range(0, 7), rng.randint(1, 2))
        op = DiffOp([Poly([-QQ(ks[0])]), Poly([0, 1])])
        for k in ks[1:]:
            op = lclm(op, DiffOp([Poly([-QQ(k)]), Poly([0, 1])]))
        if rng.random() < 0.5:
            extra = DiffOp([Poly([rng.randint(-3, 3)]), Poly([rng.randint(1, 3)])])
            op = lclm(op, extra)
        order = max(
            (int(b - a) for a in ks for b in ks if b > a and (b - a) == int(b - a)),
            default=1,
        )
        try:
            basis = formal_solutions(op, SingularPoint.rational(QQ(0)), order + 3, mode="full")
        except Exception:
            continue
        loc = _local_coeffs(op, SingularPoint.rational(QQ(0)), None)
        for sol in basis.solutions:
            out = apply_local(loc, sol)
            assert out.is_zero(), (done, ks)
        done += 1


def test_zero_test_soundness_suite():
    rng = random.Random(0xD1F5)
    for case in range(N_CASES):
        op = _rand_op(rng, 3, 2, min_order=1)
        coeffs = [QQ(0)] * rng.randint(1, 10)
        coeffs[rng.randrange(len(coeffs))] = QQ(rng.randint(1, 9))
        g = TruncSeries(coeffs)
        try:
            verdict = zero_test(op, g)
        except Exception:
            continue
        assert verdict is False, case


def test_verdict_determinism_suite():
    rng = random.Random(0xD1F6)
    opts = TranscendOptions(minimize=MinimizeOptions(max_degree=4, max_precision=80))
    done = 0
    while done < N_CASES:
        while True:
            op = _rand_op(rng, 2, 1, min_order=1)
            if op.leading[0] != 0:
                break
        init = TruncSeries([QQ(rng.randint(-4, 4)) for _ in range(op.order)])
        if all(c == 0 for c in init.coeffs):
            continue
        rep1 = transcendence_test(op, init, opts)
        rep2 = transcendence_test(op, init, opts)
        j1, j2 = rep1.to_json(), rep2.to_json()
        j1.pop("timings")
        j2.pop("timings")
        assert j1 == j2, done
        done += 1
