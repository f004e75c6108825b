import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfinite import (
    HypParams,
    frac_conv,
    hypergeometric_operator,
    interlaces,
    interlacing_criterion,
)
from dfinite.errors import InputError
from dfinite.hypergeom import ALGEBRAIC, INAPPLICABLE, TRANSCENDENTAL
from dfinite.rationals import QQ
from dfinite.series import TruncSeries


def test_frac_conv():
    assert frac_conv(QQ(3, 2)) == QQ(1, 2)
    assert frac_conv(QQ(2)) == QQ(1)
    assert frac_conv(QQ(-1, 3)) == QQ(2, 3)
    assert frac_conv(QQ(0)) == QQ(1)


def test_interlaces_examples():
    assert interlaces([QQ(1, 2)], [QQ(1)])
    assert not interlaces([QQ(1, 2), QQ(1, 2)], [QQ(1, 4), QQ(1)])
    assert not interlaces([QQ(1, 5), QQ(2, 5)], [QQ(3, 5), QQ(4, 5)])
    # either orientation is accepted
    assert interlaces([QQ(1, 3), QQ(2, 3)], [QQ(1, 2), QQ(1)])
    assert interlaces([QQ(1, 2), QQ(1)], [QQ(1, 3), QQ(2, 3)])


def test_central_binomial_powers():
    for k in range(1, 7):
        params = HypParams([QQ(1, 2)] * k, [QQ(1)] * (k - 1))
        verdict, _ = interlacing_criterion(params)
        assert verdict == (ALGEBRAIC if k == 1 else TRANSCENDENTAL)


def test_inapplicable_integer_difference():
    verdict, reason = interlacing_criterion(HypParams([1, 1], [2]))
    assert verdict == INAPPLICABLE
    assert "integer" in reason


def test_lower_parameter_validation():
    with pytest.raises(InputError):
        HypParams([QQ(1, 2), QQ(1, 3)], [QQ(-1)])
    with pytest.raises(InputError):
        HypParams([QQ(1, 2)], [QQ(1, 3)])  # wrong count


def test_dihedral_case_cross_checked_by_guessing():
    # parameters ({1/6, 5/6}; {1/2}): the criterion result is cross-checked
    # by certifying a minimal polynomial for the actual series
    params = HypParams([QQ(1, 6), QQ(5, 6)], [QQ(1, 2)])
    verdict, _ = interlacing_criterion(params)
    assert verdict == ALGEBRAIC
    op = hypergeometric_operator(params)
    # series: a_0 = 1, a_{n+1}/a_n = (n+1/6)(n+5/6)/((n+1/2)(n+1))
    terms = [QQ(1)]
    for n in range(40):
        terms.append(terms[-1] * (QQ(n) + QQ(1, 6)) * (QQ(n) + QQ(5, 6))
                     / ((QQ(n) + QQ(1, 2)) * (n + 1)))
    f = TruncSeries(terms)
    from dfinite import prove_algebraic

    got = prove_algebraic(op, f.prefix(op.order), max_dy=6, max_dz=6)
    assert got is not None
    assert got[0].deg_y == 6  # the function has algebraicity degree 6


@pytest.mark.parametrize("a, b, rows", [
    ((QQ(1, 6), QQ(5, 6)), (QQ(1, 2),), ([5], [-18, 72], [0, -36, 36])),
    ((QQ(1, 7), QQ(2, 7), QQ(4, 7)), (QQ(3, 7), QQ(5, 4)),
     ([32], [-735, 3136], [0, -3675, 5488], [0, 0, -1372, 1372])),
    ((QQ(-2), QQ(3, 5)), (QQ(2),), ([-6], [-10, -2], [0, -5, 5])),
])
def test_hypergeometric_operator_rows_pinned(a, b, rows):
    # normal-form rows of prod_j (theta + b_j - 1) theta - z prod_i (theta + a_i),
    # recorded from a product of theta factors, not from rec_to_ode
    assert hypergeometric_operator(HypParams(a, b)).rows == rows


def test_pure_power_case():
    # k = 1: (1 - z)^(-p/q) is always algebraic for 0 < p < q <= 12, the
    # answer that the walk over every unit mod q, which the criterion
    # skips for one parameter, would give too
    for q in range(2, 13):
        for p in range(1, q):
            if QQ(p, q).denominator == 1:
                continue
            verdict, _ = interlacing_criterion(HypParams([QQ(p, q)], []))
            assert verdict == ALGEBRAIC, (p, q)
            units = [ell for ell in range(1, q) if math.gcd(ell, q) == 1]
            assert all(interlaces([ell * QQ(p, q)], [ell * QQ(1)]) for ell in units), (p, q)


@st.composite
def rational_params(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    def rat(_):
        num = draw(st.integers(min_value=-12, max_value=12))
        den = draw(st.integers(min_value=1, max_value=8))
        return QQ(num, den)
    a = [rat(i) for i in range(k)]
    b = []
    for i in range(k - 1):
        while True:
            x = rat(i)
            if not (x.denominator == 1 and x <= 0):
                break
        b.append(x)
    return a, b


@given(rational_params(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=120, deadline=None)
def test_verdict_depends_only_on_fractional_parts(params, shift):
    a, b = params
    base = interlacing_criterion(HypParams(a, b))[0]
    shifted_a = [x + shift for x in a]
    shifted_b = []
    ok = True
    for x in b:
        y = x + shift
        if y.denominator == 1 and y <= 0:
            ok = False
            break
        shifted_b.append(y)
    if not ok:
        return
    moved = interlacing_criterion(HypParams(shifted_a, shifted_b))[0]
    assert moved == base


@given(rational_params())
@settings(max_examples=120, deadline=None)
def test_conjugation_symmetry(params):
    # ell and D - ell produce mirrored circle configurations, so the
    # per-unit interlacing answers agree
    from math import gcd

    a, b = params
    full_b = list(b) + [QQ(1)]
    den = 1
    for x in a + full_b:
        d = int(x.denominator)
        den = den // gcd(den, d) * d
    for ell in range(1, den + 1):
        if gcd(ell, den) != 1:
            continue
        m = den - ell if den > 1 else 1
        lhs = interlaces([ell * x for x in a], [ell * x for x in full_b])
        rhs = interlaces([m * x for x in a], [m * x for x in full_b])
        assert lhs == rhs
