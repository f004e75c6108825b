import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinite.polys import Poly
from dfinite.rationals import QQ, rat_from_str, rat_to_str
from oracles import RatFunc, fraction_gcd

_polys = st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12),
                  max_size=6).map(Poly)


def test_construction_trims_leading_zeros():
    assert Poly([1, 2, 0, 0]).degree == 1
    assert Poly([]).is_zero()
    assert Poly([0, 0]).is_zero()


def test_poly_of_poly_is_a_copy():
    # iteration stops after the coefficients instead of running on
    # through the zeros __getitem__ returns past the end
    assert list(itertools.islice(iter(Poly([1, 2])), 3)) == [1, 2]
    p = Poly([QQ(1, 2), 0, 3])
    assert Poly(p) == p


def test_arithmetic():
    p = Poly([1, 1])  # 1 + z
    q = Poly([-1, 1])  # z - 1
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p - p == Poly()
    assert (p * q).derivative() == Poly([0, 2])


def test_divmod_roundtrip():
    a = Poly([3, 1, 4, 1, 5])
    b = Poly([2, 7, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_gcd_and_squarefree():
    p = Poly([-1, 1]) * Poly([-1, 1]) * Poly([2, 1])
    g = p.gcd(p.derivative())
    assert g == Poly([-1, 1])
    assert p.squarefree_part() == (Poly([-1, 1]) * Poly([2, 1])).monic()


def test_rational_roots():
    p = Poly([0, 1]) * Poly([-1, 1]) * Poly([-1, 2])  # z (z-1) (2z-1)
    roots = p.rational_roots()
    assert roots == [(QQ(0), 1), (QQ(1, 2), 1), (QQ(1), 1)]
    # multiplicity
    p2 = Poly([-1, 1]) * Poly([-1, 1])
    assert p2.rational_roots() == [(QQ(1), 2)]
    # none
    assert Poly([2, 0, 1]).rational_roots() == []


def test_rational_roots_large_constant_term():
    # rational-root extraction must not hinge on factoring the constant term
    big = 10 ** 40 + 1
    p = Poly([-big, 1]) * Poly([big, 0, 1])
    roots = p.rational_roots()
    assert roots == [(QQ(big), 1)]


@settings(max_examples=200, deadline=None)
@given(_polys, st.one_of(st.just(QQ(0)), st.integers(-9, 9).map(QQ),
                         st.fractions(min_value=-9, max_value=9, max_denominator=20)))
@example(Poly([1, 2, 1]), QQ(-1))  # (1 + z)^2 -> z^2
@example(Poly(), QQ(3, 2))
@example(Poly([QQ(-7, 3)]), QQ(5, 6))
@example(Poly([QQ(1, 2), QQ(-3, 4), QQ(5, 6)]), QQ(0))
@example(Poly([1, 0, 0, 0, 0, QQ(1, 12)]), QQ(-11, 7))
def test_compose_shift_matches_horner_substitution(p, a):
    got = p.compose_shift(a)
    assert got == p(Poly([a, 1]))
    assert all(type(c) is Fraction for c in got.coeffs)
    # a plain int is accepted as the point too
    if a.denominator == 1:
        assert p.compose_shift(int(a)) == got


def test_ratfunc_arithmetic():
    r = RatFunc(Poly([1]), Poly([0, 1]))  # 1/z
    s = RatFunc(Poly([0, 1]))  # z
    assert (r * s) == RatFunc.const(1)
    assert (r + r) == RatFunc(Poly([2]), Poly([0, 1]))
    d = r.derivative()
    assert d == RatFunc(Poly([-1]), Poly([0, 0, 1]))


def test_rat_str_roundtrip():
    for s in ["3", "-5/7", "0", "12345678901234567890/7"]:
        assert rat_to_str(rat_from_str(s)) == s


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
def test_gcd_matches_fraction_euclid(a, b, c):
    # c is a planted common factor; zero, constant and equal inputs ride along
    for x, y in ((a * c, b * c), (a, b), (a * c, c), (a, Poly()), (Poly(), b),
                 (Poly(), Poly()), (Poly([QQ(-7, 3)]), b * c), (a * c, a * c)):
        assert x.gcd(y) == fraction_gcd(x, y), (x, y)
