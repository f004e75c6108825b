from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinite import (
    DiffOp,
    Poly,
    RecOp,
    TruncSeries,
    apply_op,
    indicial_bound,
    is_zero_series,
    lclm,
    unroll,
    validate_init,
    valuation,
    zero_test,
)
from dfinite.errors import (
    InconsistentInitialConditions,
    InputError,
    InsufficientInitialConditions,
    PrecisionTooLow,
)
from dfinite.rationals import QQ, cleared
from dfinite.series import _check_rows
from oracles import apply_op_oracle, check_rows_oracle, unroll_oracle, validate_init_oracle


def test_unroll_apery(apery_op, apery_init):
    f = unroll(apery_op, apery_init, 6)
    # A_2..A_4 from the direct binomial sum oracle
    from dfinite.generators import gen_binomial_sum

    oracle = gen_binomial_sum([2, 2], 6)
    assert f == oracle
    assert [int(c) for c in f.coeffs[:5]] == [1, 5, 73, 1445, 33001]


def test_unroll_exponential():
    op = DiffOp([Poly([-1]), Poly([1])])
    f = unroll(op, TruncSeries([1]), 6)
    assert list(f.coeffs) == [QQ(1, factorial(n)) for n in range(6)]


def test_unroll_geometric():
    op = DiffOp([Poly([-2]), Poly([1, -2])])
    f = unroll(op, TruncSeries([1]), 8)
    assert [int(c) for c in f.coeffs] == [2 ** n for n in range(8)]


_coef = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_polys = st.lists(_coef, max_size=3).map(Poly)


@st.composite
def _ordinary_problems(draw):
    """An operator with lc(0) != 0 and any order(op) rational initial
    terms: its degenerate indices 0..order-1 are all covered."""
    cs = draw(st.lists(_polys, min_size=1, max_size=3))
    lead = Poly([draw(_coef.filter(bool))] + draw(st.lists(_coef, max_size=2)))
    op = DiffOp(cs + [lead])
    return op, TruncSeries(draw(st.lists(_coef, min_size=op.order, max_size=op.order)))


@st.composite
def _degenerate_problems(draw):
    """z D - k plus terms of negative shift: the recurrence leads with
    n - k, so index k is degenerate, and k zeros then any term are
    consistent initial terms, at least order(op) <= 2 of them."""
    k = draw(st.integers(1, 4))
    c0 = Poly([QQ(-k)]) + Poly.x() * draw(_polys)
    c1 = Poly.x() + Poly.x(2) * draw(_polys)
    c2 = Poly.x(3) * draw(_polys)
    op = DiffOp([c0, c1, c2])
    return op, TruncSeries([QQ(0)] * k + [draw(_coef)])


@settings(max_examples=150, deadline=None)
@given(problem=st.one_of(_ordinary_problems(), _degenerate_problems()), extra=st.integers(0, 12))
# index 2 degenerate: z D - 2 + z^2 D with rational coefficients
@example(problem=(DiffOp([Poly([-2]), Poly([0, 1, QQ(1, 3)])]),
                  TruncSeries([0, 0, QQ(5, 7)])), extra=6)
def test_unroll_matches_oracle(problem, extra):
    op, init = problem
    n = len(init) + extra
    assert unroll(op, init, n) == unroll_oracle(op, init, n)


@st.composite
def _prefix_problems(draw):
    """An operator of the strategies above with initial terms taken from
    its solution: rational, of different denominators, any number of
    them (too few included), and one term changed or not."""
    op, init = draw(st.one_of(_ordinary_problems(), _degenerate_problems()))
    terms = list(unroll_oracle(op, init, len(init) + draw(st.integers(0, 6))).coeffs)
    terms = terms[:draw(st.integers(0, len(terms)))]
    if terms and draw(st.booleans()):
        terms[draw(st.integers(0, len(terms) - 1))] += draw(_coef.filter(bool))
    return op, TruncSeries(terms)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InsufficientInitialConditions, InconsistentInitialConditions) as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(problem=_prefix_problems(), extra=st.integers(0, 8))
# backshift 2: terms of denominators 3, 6, 12 and 4, the last of which
# breaks row 2 (the solution has a_3 = -7/72)
@example(problem=(DiffOp([Poly([1, 0, 1]), Poly([2, 1])]),
                  TruncSeries([QQ(1, 3), QQ(-1, 6), QQ(1, 12), QQ(1, 4)])), extra=3)
def test_validate_init_and_unroll_match_fraction_row_check(problem, extra):
    op, init = problem
    want = validate_init_oracle(op, init)
    assert validate_init(op, init) == want
    n = len(init) + extra
    got = _outcome(unroll, op, init, n)
    assert got == _outcome(unroll_oracle, op, init, n)
    assert want[0] == isinstance(got, TruncSeries)


@settings(max_examples=150, deadline=None)
@given(st.lists(_polys, min_size=1, max_size=4), st.integers(0, 3),
       st.lists(_coef, max_size=7), st.integers(0, 9))
# row 3 of -a_n + (n - 3) a_(n+1) reads a_4 with coefficient 0: it is
# determined by the four terms and fails, rows 0-2 hold
@example([Poly([-1]), Poly([-3, 1])], 0,
         [QQ(-5), QQ(5, 3), QQ(-5, 6), QQ(5, 6)], 5)
def test_check_rows_matches_fraction_oracle(coeffs, backshift, terms, upto):
    rec = RecOp(coeffs, backshift)
    if rec.is_zero():
        return
    got = _check_rows(rec.rows, rec.backshift, cleared(terms)[0], upto)
    assert got == check_rows_oracle(rec, terms, upto)


def test_validate_init(apery_op, apery_init):
    ok, _ = validate_init(apery_op, apery_init)
    assert ok
    # too short
    ok, why = validate_init(DiffOp([Poly(), Poly(), Poly([1])]), TruncSeries([1]))
    assert not ok and "fewer" in why
    # inconsistent: (1-2z) f' = 2f forces a_1 = 2
    ok, why = validate_init(DiffOp([Poly([-2]), Poly([1, -2])]), TruncSeries([1, 3]))
    assert not ok and "row" in why


def test_unroll_insufficient_for_singular_index():
    # z D - 1 leaves a_1 free: one term cannot pin the solution
    op = DiffOp([Poly([-1]), Poly([0, 1])])
    with pytest.raises(InsufficientInitialConditions):
        unroll(op, TruncSeries([0]), 5)
    f = unroll(op, TruncSeries([0, 7]), 5)
    assert [int(c) for c in f.coeffs] == [0, 7, 0, 0, 0]


def test_unroll_inconsistent_raises():
    op = DiffOp([Poly([-2]), Poly([1, -2])])
    with pytest.raises(InconsistentInitialConditions):
        unroll(op, TruncSeries([1, 3]), 5)


def test_apply_op_sqrt(sqrt_op):
    f = TruncSeries([1, -1, -2, -4, -10])
    out = apply_op(sqrt_op, f)
    assert out.trunc_order >= 3
    assert all(c == 0 for c in out.coeffs)


def test_apply_op_derivative():
    d = DiffOp([Poly(), Poly([1])])
    out = apply_op(d, TruncSeries([1, 1, 1]))
    assert list(out.coeffs) == [QQ(1), QQ(2)]
    assert TruncSeries([1, 1, 1]).derivative() == out


def test_apply_op_exponential_identity():
    op = DiffOp([Poly([-1]), Poly([1])])
    f = TruncSeries([QQ(1, factorial(n)) for n in range(10)])
    out = apply_op(op, f)
    assert out.trunc_order == 9
    assert all(c == 0 for c in out.coeffs)


_frac = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-3, 3), max_size=7), max_size=4),
       coeffs=st.lists(_frac, max_size=12))
@example(rows=[], coeffs=[QQ(1, 2), 3, 0])  # the zero operator
# z^5 d, whose monomial has shift -4; its normal form is d, since a
# normal form has a row with a nonzero constant term and so max_shift >= 0
@example(rows=[[], [0, 0, 0, 0, 0, 1]], coeffs=[QQ(1, 2), 3, QQ(-2, 3), 1])
@example(rows=[[1], [], [1]], coeffs=[QQ(1, 3), 2])  # as long as the shift: no row determined
@example(rows=[[1], [], [1]], coeffs=[QQ(1, 3)])  # shorter than the shift and the order
def test_apply_op_matches_fraction_oracle(rows, coeffs):
    # one integer ShiftSystem product over D f, divided by D, against the
    # term-by-term Fraction loop
    op, f = DiffOp(rows), TruncSeries(coeffs)
    try:
        want = apply_op_oracle(op, f)
    except PrecisionTooLow:
        with pytest.raises(PrecisionTooLow):
            apply_op(op, f)
        return
    got = apply_op(op, f)
    assert got == want
    assert all(type(c) is Fraction for c in got.coeffs)


def test_zero_test_exponential():
    op = DiffOp([Poly([-1]), Poly([1])])
    assert zero_test(op, TruncSeries([0] * 5)) is True


def test_zero_test_nonzero_series():
    op = DiffOp([Poly([2]), Poly([0, -2]), Poly([0, 0, 1])])
    assert zero_test(op, TruncSeries([0, 1, -1])) is False


def test_zero_test_valuation_bound():
    # operator with indicial roots {0, 7} at the origin
    l0 = DiffOp([Poly(), Poly([0, 1])])          # z D (kills constants)
    l7 = DiffOp([Poly([-7]), Poly([0, 1])])      # z D - 7 (kills z^7)
    op = lclm(l0, l7)
    assert indicial_bound(op) == 7
    assert zero_test(op, TruncSeries([0] * 8)) is True
    with pytest.raises(PrecisionTooLow):
        zero_test(op, TruncSeries([0] * 7))


def test_is_zero_and_valuation():
    assert is_zero_series(TruncSeries([0, 0, 0]))
    assert not is_zero_series(TruncSeries([0, 0, 1, 0, 0]))
    assert valuation(TruncSeries([0, 0, 1, 0, 0])) == (2, True)
    assert valuation(TruncSeries([0, 0, 0])) == (3, False)
    with pytest.raises(InputError):
        valuation(TruncSeries([]))
