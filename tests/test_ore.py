import random
from functools import reduce
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinite import DiffOp, Poly, RecOp, lclm, ode_to_rec, op_mul, op_right_divrem, rec_to_ode
from dfinite.fileio import op_from_json, op_to_json
from dfinite.ore import op_mul_raw, right_divides
from dfinite.polys import _zgcd
from dfinite.rationals import QQ
from oracles import (
    RatFunc,
    diffop_from_ratfuncs,
    divrem_ratfuncs,
    lclm_oracle,
    ode_to_rec_oracle,
    op_mul_oracle,
    op_right_divrem_oracle,
    rec_to_ode_oracle,
)


def _rand_poly(rng, deg, zero_ok=True):
    while True:
        p = Poly([QQ(rng.randint(-4, 4)) for _ in range(deg + 1)])
        if zero_ok or not p.is_zero():
            return p


def _rand_op(rng, order, deg):
    coeffs = [_rand_poly(rng, rng.randint(0, deg)) for _ in range(order)]
    coeffs.append(_rand_poly(rng, rng.randint(0, deg), zero_ok=False))
    return DiffOp(coeffs)


def test_mul_log_factorization():
    # ((1-z) D - 1) o D has the same normal form as (1-z) D^2 - D
    a = DiffOp([Poly([-1]), Poly([1, -1])])
    d = DiffOp([Poly(), Poly([1])])
    assert op_mul(a, d) == DiffOp([Poly(), Poly([-1]), Poly([1, -1])])


def test_sqrt_factorization_display(sqrt_op):
    # z D - 1 right-divides the operator (it kills the rational solution z);
    # the quotient reconstructs the factorization with denominators cleared
    b = DiffOp([Poly([-1]), Poly([0, 1])])
    q, r = divrem_ratfuncs(*op_right_divrem(sqrt_op, b))
    assert not r
    z = Poly([0, 1])
    assert q[1] == RatFunc(Poly([1, -2]) * Poly([1, -4]), z)
    assert q[0] == RatFunc.const(-4)
    assert op_mul(diffop_from_ratfuncs(q), b) == sqrt_op


def test_mul_identity():
    one = DiffOp([Poly([1])])
    b = DiffOp([Poly([3, 1]), Poly([0, 2]), Poly([5])])
    assert op_mul(one, b) == b
    assert op_mul(b, one) == b


def test_mul_associative_random():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (_rand_op(rng, rng.randint(0, 2), 2) for _ in range(3))
        assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))


def test_divrem_product_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        c = _rand_op(rng, rng.randint(0, 2), 2)
        b = _rand_op(rng, rng.randint(1, 2), 2)
        a = op_mul(c, b)
        q, r = divrem_ratfuncs(*op_right_divrem(a, b))
        assert not r
        assert diffop_from_ratfuncs(q) == c


def test_divrem_sqrt_display(sqrt_op):
    b = DiffOp([Poly([-1]), Poly([0, 1])])
    _, r, _ = op_right_divrem(sqrt_op, b)
    assert not r  # z D - 1 right-divides the operator


def test_divrem_nonzero_remainder():
    # D^2 = (D + 1)(D - 1) + 1
    a = DiffOp([Poly(), Poly(), Poly([1])])
    b = DiffOp([Poly([-1]), Poly([1])])
    assert op_right_divrem(a, b) == ([[1], [1]], [[1]], [1])


_coef = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _ops(max_order, max_deg, min_order=0):
    """Nonzero operators built from rational coefficients."""
    polys = st.lists(_coef, max_size=max_deg + 1).map(Poly)
    return st.builds(DiffOp, st.lists(polys, min_size=min_order + 1, max_size=max_order + 1)
                     ).filter(lambda op: op.order >= min_order)


_Z = Poly([0, 1])
_ORDER2 = DiffOp([Poly([1, -1]), Poly([2]), Poly([0, 3, 1])])


@settings(max_examples=150, deadline=None)
@given(a=_ops(4, 3), b=_ops(3, 3))
@example(a=DiffOp([Poly([1, 2])]), b=_ORDER2)  # order(a) < order(b)
@example(a=_ORDER2, b=DiffOp([Poly([1, -2, 1])]))  # b of order 0
@example(a=_ORDER2, b=DiffOp([Poly([0, 1]), Poly([3])]))  # constant leading coefficient
@example(a=_ORDER2, b=DiffOp([Poly([1]), _Z * _Z * Poly([1, -1])]))  # lc(b) = z^2 (1 - z)
@example(a=DiffOp([]), b=_ORDER2)  # a = 0
def test_divrem_matches_oracle(a, b):
    quo, rem, den = op_right_divrem(a, b)
    # den a = quo o b + rem over Z[z], with rem of order < order(b)
    lhs = [Poly(den) * c for c in a.coeffs]
    rhs = [Poly(x) for x in op_mul_raw(quo, b.rows)]
    rhs += [Poly()] * (len(rem) - len(rhs))
    for i, x in enumerate(rem):
        rhs[i] = rhs[i] + Poly(x)
    while rhs and rhs[-1].is_zero():
        rhs.pop()
    assert rhs == lhs
    assert len(rem) - 1 < b.order
    assert divrem_ratfuncs(quo, rem, den) == op_right_divrem_oracle(a, b)


@settings(max_examples=100, deadline=None)
@given(c=_ops(2, 2), b=_ops(2, 3))
@example(c=DiffOp([Poly([QQ(1, 2), 1]), Poly([0, 0, 1])]), b=DiffOp([Poly([1]), _Z * _Z]))
def test_divrem_exact_multiple_matches_oracle(c, b):
    a = op_mul(c, b)
    q, r = divrem_ratfuncs(*op_right_divrem(a, b))
    assert r == []
    assert (q, r) == op_right_divrem_oracle(a, b)
    assert diffop_from_ratfuncs(q) == DiffOp(c.coeffs)


@settings(max_examples=40, deadline=None)
@given(a=_ops(2, 2, min_order=1), b=_ops(2, 2, min_order=1))
def test_right_divides_lclm_matches_oracle(a, b):
    m = lclm(a, b)
    for x in (a, b):
        assert divrem_ratfuncs(*op_right_divrem(m, x)) == op_right_divrem_oracle(m, x)
        assert right_divides(x, m)


_ORDER3 = DiffOp([Poly([0, 1]), Poly([1, 1]), Poly([-2]), Poly([1, 0, -1])])
_ORDER1 = DiffOp([Poly([3, -1]), Poly([1, 2])])


@settings(max_examples=40, deadline=None)
@given(a=_ops(3, 2), b=_ops(3, 2))
@example(a=_ORDER3, b=_ORDER1)  # order 3 against order 1
@example(a=DiffOp([Poly([1, 2])]), b=_ORDER2)  # order 0 first
@example(a=_ORDER2, b=DiffOp([Poly([1, -2, 1])]))  # order 0 second
@example(a=_ORDER3, b=_ORDER3)  # a == b
@example(a=op_mul(_ORDER1, _ORDER2), b=_ORDER2)  # b right-divides a
@example(a=_ORDER2, b=op_mul(_ORDER1, _ORDER2))  # a right-divides b
@example(a=DiffOp([Poly([QQ(1, 3), QQ(-2, 7)]), Poly([QQ(5, 2)])]),
         b=DiffOp([Poly([QQ(-1, 2)]), Poly([0, QQ(2, 3)]), Poly([QQ(1, 5), 1])]))  # rational input
def test_lclm_symmetric_matches_oracle(a, b):
    # the cofactor is taken modulo the operand of higher order, so the
    # argument order matters inside lclm but not in its result
    m = lclm(a, b)
    assert m == lclm(b, a) == lclm_oracle(a, b)
    assert right_divides(a, m) and right_divides(b, m)


def test_lclm_idempotent():
    a = DiffOp([Poly([1, 3]), Poly([0, 1]), Poly([2])])
    assert lclm(a, a) == a


def test_lclm_exp_and_const():
    d = DiffOp([Poly(), Poly([1])])
    dm1 = DiffOp([Poly([-1]), Poly([1])])
    m = lclm(d, dm1)
    assert m.order == 2
    assert right_divides(d, m)
    assert right_divides(dm1, m)


def test_lclm_z_and_z2():
    l1 = DiffOp([Poly([-1]), Poly([0, 1])])
    l2 = DiffOp([Poly([-2]), Poly([0, 1])])
    m = lclm(l1, l2)
    assert m == DiffOp([Poly([2]), Poly([0, -2]), Poly([0, 0, 1])])


def test_lclm_divisibility_random():
    rng = random.Random(13)
    for _ in range(15):
        a = _rand_op(rng, rng.randint(1, 2), 1)
        b = _rand_op(rng, rng.randint(1, 2), 1)
        m = lclm(a, b)
        assert m.order <= a.order + b.order
        assert right_divides(a, m)
        assert right_divides(b, m)


def test_ode_to_rec_apery(apery_op):
    rec = ode_to_rec(apery_op)
    n = Poly.x()
    expected = RecOp(
        [n * n * n,
         Poly([1, 2]) * Poly([5, 17, 17]) * Poly([-1]),
         (n + 1) * (n + 1) * (n + 1)],
        backshift=1,
    )
    assert rec == expected


def test_ode_to_rec_exponential():
    rec = ode_to_rec(DiffOp([Poly([-1]), Poly([1])]))
    assert rec == RecOp([Poly([-1]), Poly([1, 1])], backshift=0)


def test_ode_to_rec_geometric():
    rec = ode_to_rec(DiffOp([Poly([-2]), Poly([1, -2])]))
    assert rec == RecOp([Poly([-2, -2]), Poly([1, 1])], backshift=0)


_rec_coef = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_rec_coef, max_size=5), min_size=1, max_size=6))
# zero coefficients between nonzero ones, a Fraction leading term
@example([[QQ(1, 2)], [], [0, 0, QQ(-3, 4)], [QQ(5, 3), 0, 1]])
# every coefficient vanishes but one of high degree: backshift 4
@example([[0, 0, 0, 0, QQ(7, 2)]])
def test_ode_to_rec_matches_fraction_oracle(coeffs):
    op = DiffOp([Poly(c) for c in coeffs])
    if op.is_zero():
        return
    rec = ode_to_rec(op)
    assert rec == ode_to_rec_oracle(op)
    assert all(type(c) is int for p in rec.rows for c in p)


def test_rec_to_ode_apery(apery_op):
    n = Poly.x()
    rec = RecOp(
        [n * n * n,
         Poly([1, 2]) * Poly([5, 17, 17]) * Poly([-1]),
         (n + 1) * (n + 1) * (n + 1)],
        backshift=1,
    )
    assert rec_to_ode(rec) == apery_op


def test_rec_to_ode_trivial():
    rec = RecOp([Poly([-1]), Poly([1, 1])], backshift=0)
    assert rec_to_ode(rec) == DiffOp([Poly([-1]), Poly([1])])


def test_rec_to_ode_damps_a_boundary_row():
    # a_(n+1) = a_n: the row at n = -1 would force a_0 = 0 unless damped by
    # (n + 1); the operator (z - 1) Dz + 1 keeps every c / (1 - z)
    op = rec_to_ode(RecOp([[-1], [1]]))
    assert op == DiffOp([Poly([1]), Poly([-1, 1])])
    from dfinite.series import TruncSeries, apply_op

    assert not any(apply_op(op, TruncSeries([3] * 8)).coeffs)


def test_rec_to_ode_central_binomial_squares():
    # (n+1)^2 a_{n+1} - 4 (2n+1)^2 a_n; indicial at 0 must be a double root
    from dfinite.local import SingularPoint, indicial

    n = Poly.x()
    rec = RecOp([Poly([1, 2]) * Poly([1, 2]) * Poly([-4]), (n + 1) * (n + 1)])
    op = rec_to_ode(rec)
    assert op.order == 2
    data = indicial(op, SingularPoint.rational(QQ(0)))
    assert data.monic_q_poly() == Poly([0, 0, 1])


def test_round_trips_random():
    # every solution of op is annihilated by rec_to_ode(ode_to_rec(op))
    rng = random.Random(17)
    from dfinite.series import TruncSeries, apply_op, unroll

    for _ in range(15):
        while True:
            op = _rand_op(rng, rng.randint(1, 3), 2)
            if op.leading[0] != 0:  # the origin is an ordinary point
                break
        back = rec_to_ode(ode_to_rec(op))
        init = TruncSeries([QQ(rng.randint(-3, 3)) for _ in range(op.order)])
        f = unroll(op, init, op.order + 16)
        out = apply_op(back, f)
        assert all(c == 0 for c in out.coeffs)


def test_lclm_edge_cases_match_oracle():
    a = DiffOp([Poly([-1, 2]), Poly([0, 1]), Poly([3, 0, 1])])
    b = DiffOp([Poly([2]), Poly([1, -1])])
    order_zero = DiffOp([Poly([1, 2])])
    multiple = op_mul(DiffOp([Poly([0, 1]), Poly([5])]), b)  # b right-divides it
    # rational coefficients with denominators to clear
    raw = DiffOp([Poly([QQ(1, 3), QQ(-2, 7)]), Poly([QQ(5, 2)])])
    cases = [(order_zero, a), (a, order_zero), (a, a), (b, multiple), (multiple, b),
             (raw, a), (b, raw), (raw, raw)]
    for x, y in cases:
        m = lclm(x, y)
        assert m == lclm_oracle(x, y), (x, y)
        assert right_divides(x, m) and right_divides(y, m)
    assert lclm(order_zero, a) == a
    assert lclm(a, a) == a
    assert lclm(b, multiple) == multiple


_nonzero_coef = _coef.filter(bool)


@settings(max_examples=150, deadline=None)
@given(cs=st.lists(st.lists(_coef, max_size=4), min_size=1, max_size=4),
       g=st.lists(_coef, min_size=1, max_size=3).filter(any), c=_nonzero_coef)
def test_normal_form(cs, g, c):
    # one normal form per Q(z)-line: primitive integer rows over Z[z]
    op = DiffOp(cs)
    scaled = DiffOp([Poly(g) * Poly([c]) * Poly(p) for p in cs])
    assert scaled == op and hash(scaled) == hash(op)
    assert op_from_json(op_to_json(op)) == op
    if op.is_zero():
        assert op.rows == ()
        return
    assert all(type(x) is int for p in op.rows for x in p)
    assert all(p[-1] for p in op.rows if p) and op.rows[-1][-1] > 0
    assert gcd(*(x for p in op.rows for x in p)) == 1
    assert reduce(_zgcd, [p for p in op.rows if p]) == [1]


_rows = st.lists(st.lists(st.integers(-5, 5), max_size=4).filter(lambda r: not r or r[-1]), max_size=4)


@settings(max_examples=150, deadline=None)
@given(a=_rows, b=_rows)
@example(a=[], b=[[1], [0, 1]])  # an empty operand
@example(a=[[0, 1], [2]], b=[])
@example(a=[[3, 0, 1]], b=[[1], [], [0, 0, 3]])  # a of order 0, an empty row in b
@example(a=[[1], [-1]], b=[[2, 1]])  # b of order 0
@example(a=[[], [], [1]], b=[[], [0, 0, 1]])  # d^2 o z^2 d, empty rows at the bottom
def test_op_mul_raw_matches_leibniz(a, b):
    assert op_mul_raw(a, b) == op_mul_oracle(a, b)


_recs = st.builds(RecOp, st.lists(st.lists(st.integers(-4, 4), max_size=4), min_size=1, max_size=4),
                  st.integers(0, 3)).filter(lambda rec: not rec.is_zero())


@settings(max_examples=150, deadline=None)
@given(rec=_recs)
@example(rec=RecOp([[-1], [1]]))  # damped at n = -1
@example(rec=RecOp([[1], [2], [3]]))  # damped at n = -1 and n = -2
@example(rec=RecOp([[-1], [1, 1]]))  # (n + 1) vanishes at n = -1: nothing to damp
@example(rec=RecOp([[1, 1], [], [0, 2]], 2))  # no positive shift, an empty row
def test_rec_to_ode_matches_stirling(rec):
    assert rec_to_ode(rec) == rec_to_ode_oracle(rec)
