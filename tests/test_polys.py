import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinite.polys import Poly, _zclear, _zexquo, _zgcd, _zmul, _zprem, _zresultant, _zshift, _zsub
from dfinite.rationals import QQ, cleared, rat_from_str, rat_to_str
from oracles import (
    RatFunc,
    bivariate_resultant_oracle,
    fraction_gcd,
    poly_divmod,
    rational_roots_oracle,
    sylvester_resultant_oracle,
)

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
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_gcd_and_squarefree():
    p = Poly([-1, 1]) * Poly([-1, 1]) * Poly([2, 1])
    a, b = _zclear([p, p.derivative()])
    g = _zgcd(a, b)
    assert Poly(g) == fraction_gcd(p, p.derivative()) == Poly([-1, 1])
    assert Poly(_zexquo(a, g)).monic() == (Poly([-1, 1]) * Poly([2, 1])).monic()


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


def _planted(linear, others=(), content=1):
    """content * prod (b z - a)^k * prod others, as a Poly."""
    f = [content]
    for a, b, k in linear:
        for _ in range(k):
            f = _zmul(f, [-a, b])
    for h in others:
        f = _zmul(f, h)
    return Poly(f)


_no_rational_root = st.one_of(
    # z^2 - c, c not a square
    st.integers(-99, 99).filter(lambda c: c < 0 or math.isqrt(c) ** 2 != c).map(lambda c: [-c, 0, 1]),
    # z^4 + q, irreducible by Eisenstein at the prime q
    st.sampled_from([2, 3, 5, 7, 1009, 1013, 2 ** 61 - 1]).map(lambda q: [q, 0, 0, 0, 1]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80), st.integers(1, 14)),
                max_size=3),
       st.lists(_no_rational_root, max_size=2),
       st.integers(1, 10 ** 6), st.sampled_from([1, -1]))
def test_rational_roots_match_factorization(linear, others, content, sign):
    f = _planted(linear, others, sign * content)
    assert f.rational_roots() == rational_roots_oracle(f)


@pytest.mark.parametrize("f, roots", [
    # 1 = 1010 mod 1009: a double root there, so 1009 is passed over
    (_planted([(1, 1, 1), (1010, 1, 2)]), [(QQ(1), 1), (QQ(1010), 2)]),
    # 1009 and 1013 divide the leading coefficient
    (_planted([(7, 1009 * 1013, 1), (3, 1, 1)], [[-2, 0, 1]]), [(QQ(7, 1009 * 1013), 1), (QQ(3), 1)]),
    # root 0 of multiplicity 3
    (_planted([(0, 1, 3), (-2, 1, 2)], [[-2, 0, 1]]), [(QQ(-2), 2), (QQ(0), 3)]),
    (_planted([(0, 1, 3)]), [(QQ(0), 3)]),
    # a b > 1009^8 < 2 a b: only the lift to 1009^16 reconstructs a/b
    (_planted([(1100000000003, 1000000000001, 1)]), [(QQ(1100000000003, 1000000000001), 1)]),
    (_planted([(-1100000000003, 1000000000001, 2)], [[5, 0, 0, 0, 1]]),
     [(QQ(-1100000000003, 1000000000001), 2)]),
    # rational coefficients, a constant, no rational root
    (Poly([QQ(-1, 3), QQ(1, 2)]), [(QQ(2, 3), 1)]),
    (Poly([QQ(-7, 3)]), []),
    (_planted([], [[-2, 0, 1], [3, 0, 0, 0, 1]]), []),
])
def test_rational_roots_planted(f, roots):
    assert f.rational_roots() == roots
    assert rational_roots_oracle(f) == roots


def test_rational_roots_of_zero():
    with pytest.raises(ValueError):
        Poly().rational_roots()


@settings(max_examples=200, deadline=None)
@given(_polys, st.one_of(st.just(QQ(0)), st.integers(-9, 9).map(QQ),
                         st.fractions(min_value=-9, max_value=9, max_denominator=20)))
@example(Poly([1, 2, 1]), QQ(-1))  # (1 + z)^2 -> z^2
@example(Poly(), QQ(3, 2))
@example(Poly([QQ(-7, 3)]), QQ(5, 6))
@example(Poly([QQ(1, 2), QQ(-3, 4), QQ(5, 6)]), QQ(0))
@example(Poly([1, 0, 0, 0, 0, QQ(1, 12)]), QQ(-11, 7))
def test_zshift_matches_horner_substitution(p, a):
    q, big_d = cleared(p.coeffs)
    r, den = _zshift(q, a)
    assert all(type(c) is int for c in r)
    assert Poly([QQ(c, den * big_d) for c in r]) == p(Poly([a, 1]))
    # a plain int is accepted as the point too
    if a.denominator == 1:
        assert _zshift(q, int(a)) == (r, den)


_ints = st.integers(-50, 50)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ints, max_size=9), st.lists(_ints, max_size=5), st.integers(2, 12))
@example([5, 7], [1, 2, 3], 4)  # a shorter than b: r is a padded, s = 1
@example([0, 0, 0, 1], [1], 6)  # b constant
def test_zprem_is_a_scaled_pseudo_division(a, b_low, lb):
    b = b_low + [lb]
    r, s = _zprem(a, b)
    assert len(r) == len(b) - 1 and s > 0
    # s takes no more than the classical lc(b)^(len(a) - len(b) + 1)
    assert lb ** max(len(a) - len(b) + 1, 0) % s == 0
    # s a = q b + r: the exact division raises unless q is in Z[z]
    _zexquo(_zsub([s * x for x in a], r), b)


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
    # c is a planted common factor; constant and equal inputs ride along
    for x, y in ((a * c, b * c), (a, b), (a * c, c), (Poly([QQ(-7, 3)]), b * c), (a * c, a * c)):
        if x and y:
            assert Poly(_zgcd(*_zclear([x, y]))).monic() == fraction_gcd(x, y), (x, y)


_small = st.integers(-6, 6)


@st.composite
def resultant_cases(draw):
    """(p, m) with P = sum_j p[j](x) lam^j: lam-free P, deg_x P = 0 and
    linear m included, and lc_x(P)(lam) planted to vanish at some of the
    first evaluation points 0, 1, 2."""
    n = draw(st.integers(1, 4))
    m = draw(st.lists(_small, min_size=n, max_size=n)) + [draw(_small.filter(bool))]
    k = draw(st.integers(0, 3))
    lead = [draw(_small.filter(bool))]
    for r in draw(st.lists(st.sampled_from([0, 1, 2]), max_size=2, unique=True)):
        lead = [0] + lead  # times (lam - r)
        for i in range(len(lead) - 1):
            lead[i] -= r * lead[i + 1]
    dl = max(len(lead) - 1, draw(st.integers(0, 3)))
    p = []
    for j in range(dl + 1):
        row = draw(st.lists(_small, min_size=k, max_size=k))
        p.append(row + [lead[j] if j < len(lead) else 0])
    return p, m


def _signed(a):
    return [a, [-c for c in a]]


@settings(max_examples=150, deadline=None)
@given(resultant_cases())
@example(([[1, 2], [0, 1]], [3, 1]))  # linear m
@example(([[5, 0, 1]], [2, 0, 1]))  # lam-free P
@example(([[0], [-2], [1]], [1, 1, 1]))  # deg_x P = 0, P vanishing at 0 and 2
@example(([[1, 0], [3, 2], [0, -3], [0, 1]], [1, 2, 0, 1]))  # lc lam(lam-1)(lam-2)
@example(([[-1, 1], [0, 0]], [-1, 1]))  # Res = 0: P and m share x - 1
def test_zresultant_matches_bivariate_sympy(case):
    p, m = case
    got = _zresultant(p, m)
    want = bivariate_resultant_oracle(p, m)
    assert Poly(got).monic() == Poly(want).monic()
    assert got in _signed(want)
    assert not got or got[-1] > 0


@settings(max_examples=40, deadline=None)
@given(resultant_cases().filter(lambda c: len(c[1]) <= 3 and len(c[0]) <= 3))
def test_zresultant_is_the_sylvester_determinant(case):
    p, m = case
    assert _zresultant(p, m) in _signed(sylvester_resultant_oracle(p, m))


def _lam_scaled(p, h):
    """The coefficient lists of h(lam) * P for P = sum_j p[j](x) lam^j."""
    out = [[0] * max(map(len, p)) for _ in range(len(p) + len(h) - 1)]
    for j, pj in enumerate(p):
        for k, c in enumerate(h):
            for i, a in enumerate(pj):
                out[j + k][i] += c * a
    return out


@st.composite
def content_cases(draw):
    """(h * P', m) with a planted content h(lam) = c prod (b lam - a) of
    degree 0..3, every root a/b a non-integer, and m = (x - r) m2 with
    P'(r, lam) = e (lam - l0), so the resultant vanishes at lam = l0 in
    0, 1, 2; or P' free of lam, so h is the whole lam-dependence."""
    h = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for _ in range(draw(st.integers(0, 3))):
        b = draw(st.integers(2, 4))
        a = draw(st.integers(-6, 6).filter(lambda a: a % b))
        h = _zmul(h, [-a, b])
    if draw(st.booleans()):
        m = draw(st.lists(_small, min_size=1, max_size=3)) + [draw(_small.filter(bool))]
        p = [draw(st.lists(_small, max_size=2)) + [draw(_small.filter(bool))]]
    else:
        r, l0, e = draw(_small), draw(st.integers(0, 2)), draw(_small.filter(bool))
        m = _zmul([-r, 1], draw(st.lists(_small, max_size=2)) + [draw(_small.filter(bool))])
        k = draw(st.integers(0, 2))
        # P' = (x - r) A(x, lam) + e (lam - l0), A of x-degree k
        p = [_zmul([-r, 1], draw(st.lists(_small, min_size=k, max_size=k)) + [draw(_small)])
             for _ in range(draw(st.integers(1, 3)))] + [[0]]
        p[0][0] -= e * l0
        p[1][0] += e
    return _lam_scaled(p, h), m


@settings(max_examples=100, deadline=None)
@given(content_cases())
@example(([[0, 0, 2], [0, 0, -1]], [1, 0, 1]))  # P = (2 - lam) x^2, free of lam after h
@example(([[0, -1], [1, 2], [-2]], [0, -1, 1]))  # (2 lam - 1)(x - lam), Res 0 at lam = 0, 1
def test_zresultant_divides_out_the_content(case):
    p, m = case
    got = _zresultant(p, m)
    want = bivariate_resultant_oracle(p, m)
    assert got in _signed(want)
    assert not got or got[-1] > 0


def test_zresultant_checks_the_spare_point(monkeypatch):
    # Res_x(x + lam, x^2 + 1) = lam^2 + 1 from the values at lam = 0..3; a
    # last value off by 3! keeps every divided difference integral, so
    # only the spare point's check sees it
    import sympy

    calls = []
    true_resultant = sympy.resultant

    def off_at_the_spare_point(f, g):
        calls.append(f)
        r = true_resultant(f, g)
        return r + 6 if len(calls) == 4 else r

    assert _zresultant([[0, 1], [1]], [1, 0, 1]) == [1, 0, 1]
    monkeypatch.setattr(sympy, "resultant", off_at_the_spare_point)
    with pytest.raises(ArithmeticError):
        _zresultant([[0, 1], [1]], [1, 0, 1])
    assert len(calls) == 4
