import hashlib
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb, lcm
from operator import sub
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinite import (
    DiagonalSpec,
    MPoly,
    StepSet,
    TRIDENT_STEPS,
    apery_diagonal_spec,
    binomial_double_product_spec,
    gen_binomial_sum,
    gen_diagonal,
    gen_walk,
)
from dfinite import _sweep, generators
from dfinite.errors import InputError
from dfinite.generators import _content_factors, _pgcd, _pmul, _spans
from dfinite.rationals import QQ
from dfinite.series import TruncSeries

from oracles import diagonal_bruteforce, has_content


def _sha(f):
    return hashlib.sha256(",".join(map(str, f.coeffs)).encode()).hexdigest()


def test_binomial_sum_apery():
    f = gen_binomial_sum([2, 2], 5)
    assert [int(c) for c in f.coeffs] == [1, 5, 73, 1445, 33001]


def test_binomial_sum_geometric():
    f = gen_binomial_sum([1], 6)
    assert [int(c) for c in f.coeffs] == [1, 2, 4, 8, 16, 32]


def test_binomial_sum_central():
    f = gen_binomial_sum([2], 6)
    assert [int(c) for c in f.coeffs] == [comb(2 * n, n) for n in range(6)]


def test_binomial_sum_validation():
    with pytest.raises(InputError):
        gen_binomial_sum([0, 2], 5)
    with pytest.raises(InputError):
        gen_binomial_sum([2], 0)


def test_walk_trident():
    f = gen_walk(TRIDENT_STEPS, 7)
    assert [int(c) for c in f.coeffs] == [1, 2, 7, 23, 84, 301, 1127]


def test_walk_north_only():
    f = gen_walk(StepSet([(0, 1)]), 4)
    assert [int(c) for c in f.coeffs] == [1, 1, 1, 1]


def test_walk_up_down_matches_bruteforce():
    steps = StepSet([(0, 1), (0, -1)])
    f = gen_walk(steps, 7)

    def brute(n):
        paths = [(0, 0)]
        for _ in range(n):
            nxt = []
            for x, y in paths:
                for dx, dy in ((0, 1), (0, -1)):
                    if x + dx >= 0 and y + dy >= 0:
                        nxt.append((x + dx, y + dy))
            paths = nxt
        return len(paths)

    assert [int(c) for c in f.coeffs] == [brute(n) for n in range(7)]
    assert [int(c) for c in f.coeffs[:5]] == [1, 1, 2, 3, 6]


def _walks_bruteforce(steps, n):
    paths = [(0, 0)]
    for _ in range(n):
        paths = [(x + dx, y + dy) for x, y in paths for dx, dy in steps.steps
                 if x + dx >= 0 and y + dy >= 0]
    return len(paths)


@pytest.mark.parametrize("steps", [
    [(2, 0)],
    [(2, 0), (0, 1)],
    [(3, -1), (-2, 2), (0, -1)],
    [(-3, 2), (1, -2), (1, 1)],
])
def test_walk_long_steps(steps):
    # long steps once lost walks to a position cap that assumed unit
    # steps, so the counts depended on how many terms were asked for
    s = StepSet(steps)
    f = gen_walk(s, 20)
    assert gen_walk(s, 8).coeffs == f.coeffs[:8]
    assert [int(c) for c in f.coeffs[:9]] == [_walks_bruteforce(s, n) for n in range(9)]


def test_walk_long_steps_counts():
    assert [int(c) for c in gen_walk(StepSet([(2, 0)]), 10).coeffs] == [1] * 10
    assert [int(c) for c in gen_walk(StepSet([(2, 0), (0, 1)]), 10).coeffs] == [2 ** n for n in range(10)]


def test_diagonal_central_binomial():
    spec = DiagonalSpec(
        MPoly(2, {(0, 0): 1}),
        MPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1}),
        ["x", "y"],
    )
    f = gen_diagonal(spec, 6)
    assert [int(c) for c in f.coeffs] == [comb(2 * n, n) for n in range(6)]


def test_diagonal_bruteforce_oracle():
    # brute-force truncated expansion oracle on a dense bivariate example
    num = MPoly(2, {(0, 0): 1, (1, 0): 2})
    den = MPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -2, (1, 1): 3})
    spec = DiagonalSpec(num, den, ["x", "y"])
    assert list(gen_diagonal(spec, 7).coeffs) == diagonal_bruteforce(spec, 7)


@st.composite
def diagonal_specs(draw):
    """num/den in 1 to 4 variables.  Each variable's den exponents are
    scaled by 0 (the variable is absent), 1, 2 or 3, so per-axis gcds above
    1 are common; num exponents are scaled too, or drawn freely so that
    they can leave the den lattice.  Coefficients and den's constant term
    are integers or fractions whose denominators differ from term to term,
    so scaling to integers needs an lcm."""
    k = draw(st.integers(1, 4))
    scale = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=k, max_size=k))
    coef = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=7))

    def monos(on_lattice, max_size):
        expo = st.lists(st.integers(0, 2), min_size=k, max_size=k)
        out = {}
        for e in draw(st.lists(expo, max_size=max_size)):
            if on_lattice:
                e = [a * g for a, g in zip(e, scale)]
            out[tuple(e)] = draw(coef)
        return out

    den = {e: c for e, c in monos(True, 4).items() if any(e)}
    den[(0,) * k] = draw(st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(5), QQ(-3, 2), QQ(3, 2), QQ(-2, 5)]))
    num = monos(draw(st.booleans()), 3)
    names = ["x%d" % i for i in range(k)]
    return DiagonalSpec(MPoly(k, num), MPoly(k, den), names), draw(st.integers(1, 7 - k))


def _spec(k, num, den):
    return DiagonalSpec(MPoly(k, num), MPoly(k, den), ["x%d" % i for i in range(k)])


def _criterion_6_den(first_factor):
    out = {}
    for e1, c1 in first_factor.items():
        for e2, c2 in {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1}.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


C6I = {(0, 0, 0): 1, (1, 0, 0): -5, (0, 1, 1): -7, (0, 0, 2): -13}
C6I_HALF = {**C6I, (1, 0, 0): QQ(-5, 2)}
C6_THREE = {(0, 0, 0): 3, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 2): -1}
C6II = {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 2): -1}


@settings(max_examples=150, deadline=None)
@given(diagonal_specs())
# per-axis gcd 2 and 3, with the num term (1, 0, 3) breaking the lattice
@example((_spec(3, {(0, 0, 0): 1, (1, 0, 3): 2}, {(0, 0, 0): 1, (2, 0, 3): -1, (0, 1, 6): 1, (2, 1, 0): -2}), 7))
# x1 absent from every term; c0 = -1
@example((_spec(3, {(0, 0, 0): 2}, {(0, 0, 0): -1, (1, 0, 0): 1, (0, 0, 1): 3}), 5))
# rational c0; x1 has one term alone, of step 2, and x0 has two
@example((_spec(2, {(0, 0): 1, (1, 1): 1},
                {(0, 0): QQ(-3, 2), (0, 2): 1, (1, 0): QQ(1, 3), (2, 0): 1, (1, 1): 2}), 7))
# one variable, several terms
@example((_spec(1, {(0,): 1, (2,): -1}, {(0,): 1, (1,): -1, (3,): 2}), 8))
# the criterion-6 (i) den with num 1/2, the same with -5x/2, and (3 - x - y - z^2)(1 - x - xy)
@example((_spec(3, {(0, 0, 0): QQ(1, 2)}, _criterion_6_den(C6I)), 6))
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I_HALF)), 6))
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6_THREE)), 6))
# a rational den that splits once scaled: 2 (1 - x/2)(1 - y/3) becomes (1 - 3x)(1 - 2y)
@example((_spec(2, {(0, 0): 1, (1, 0): QQ(1, 5)},
                _pmul({(0, 0): 2, (1, 0): -1}, {(0, 0): 1, (0, 1): QQ(-1, 3)})), 7))
def test_diagonal_matches_bruteforce(case):
    spec, n_terms = case
    assert list(gen_diagonal(spec, n_terms).coeffs) == diagonal_bruteforce(spec, n_terms)


def test_diagonal_criterion_6_pinned():
    # the terms criterion 6 (i) and (ii) guess from, as a cell-by-cell
    # expansion of the full box gives them; (ii) is a series in z^2
    f = gen_diagonal(_spec(3, {(0, 0, 0): 1}, _criterion_6_den(
        {(0, 0, 0): 1, (1, 0, 0): -5, (0, 1, 1): -7, (0, 0, 2): -13})), 120)
    assert _sha(f) == "ed7c948ff1e62e0ffb6de438454a0b8a0e535f7553e3b25e1a63c51ed9ef8d06"
    g = gen_diagonal(_spec(3, {(0, 0, 0): 1}, _criterion_6_den(
        {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 2): -1})), 190)
    assert _sha(g) == "ffe09c176e1bceda8322da7b156ca1f35d75e81c2c04d8b73b7fd724682e97eb"
    assert all(c == 0 for c in g.coeffs[1::2])


def test_diagonal_rational_spec_takes_the_integer_sweep(monkeypatch):
    # num = 1/2 halves every term of criterion 6 (i); at 120 terms this took
    # about 30 s while rational specs had a sweep of their own
    whole = gen_diagonal(_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I)), 120)
    half = gen_diagonal(_spec(3, {(0, 0, 0): QQ(1, 2)}, _criterion_6_den(C6I)), 120)
    doubled = TruncSeries([2 * c for c in half.coeffs])
    assert doubled == whole
    assert _sha(doubled) == "ed7c948ff1e62e0ffb6de438454a0b8a0e535f7553e3b25e1a63c51ed9ef8d06"
    # a rational den is split too: -5x/2 scales to -5x with x -> 2x
    seen = []

    def spy(den):
        seen.append(_content_factors(den))
        return seen[-1]

    monkeypatch.setattr(generators, "_content_factors", spy)
    spec = _spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I_HALF))
    assert list(gen_diagonal(spec, 6).coeffs) == diagonal_bruteforce(spec, 6)
    assert len(seen) == 1 and _as_set(seen[0]) == _as_set([
        {(0, 0, 0): 1, (1, 0, 0): -5, (0, 1, 1): -28, (0, 0, 2): -52},
        {(0, 0, 0): 1, (1, 0, 0): -2, (1, 1, 0): -4}])


@pytest.mark.parametrize("powers,digest", [
    ([1, 1], "1bcef8f6f162b916fc6d83098dffc6bb147cf265dc07d9495d5fdbc98966dea8"),
    ([2, 2], "0191cbe7975388dcafe8de1d0fb39ddfb2e5800bcaf6a0750474a87a01e66c09"),
    ([4, 1], "0a89978f2e39cb6df475d3d83a3e6333e8282f047b4487cdffaf3bba0da3974f"),
    ([1, 0, 1], "d8fb8576c356c3c45f8e10ef095b44c62a7db74fcc87fb4def6e547a09c36d9e"),
])
def test_binomial_sum_pinned(powers, digest):
    # the terms criterion 5 guesses from, as math.comb for every term gives them
    assert _sha(gen_binomial_sum(powers, 300)) == digest


def _comb_sum(powers, n_terms):
    return [sum(comb(n, k) ** powers[0]
                * math.prod(comb(n + j * k, k) ** e for j, e in enumerate(powers) if j)
                for k in range(n + 1)) for n in range(n_terms)]


def test_binomial_sum_matches_comb():
    for powers in ([1, 2, 0, 1], [3, 0, 0, 2], [1, 1, 1, 1]):
        f = gen_binomial_sum(powers, 15)
        assert [int(c) for c in f.coeffs] == _comb_sum(powers, 15)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 4), max_size=3), st.integers(1, 40))
# factors with equal exponents share one power; j = 3 divides by n + 2k
@example(2, [2, 0, 2], 40)
def test_binomial_sum_matches_comb_sum(first, rest, n_terms):
    powers = [first] + rest
    f = gen_binomial_sum(powers, n_terms)
    assert f.coeffs == tuple(QQ(c) for c in _comb_sum(powers, n_terms))


def test_diagonal_binomial_double_product():
    # 1 / (1 - z (1+y) (y + (1+y)^2)): diagonal n-th term is
    # sum_k C(n,k) C(n+2k,k), computed independently
    f = gen_diagonal(binomial_double_product_spec(2), 8)
    direct = [sum(comb(n, k) * comb(n + 2 * k, k) for k in range(n + 1)) for n in range(8)]
    assert [int(c) for c in f.coeffs] == direct


def test_diagonal_apery_identity():
    f = gen_diagonal(apery_diagonal_spec(2, 2), 7)
    g = gen_binomial_sum([2, 2], 7)
    assert f == g


def test_diagonal_identity_weight_two_family():
    # the two-variable realizations of the weight-2 algebraic cases
    assert gen_diagonal(binomial_double_product_spec(1), 12) == gen_binomial_sum([1, 1], 12)
    assert gen_diagonal(binomial_double_product_spec(2), 12) == gen_binomial_sum([1, 0, 1], 12)


def test_delannoy_recurrence():
    # n D_n = 3(2n-1) D_{n-1} - (n-1) D_{n-2}, verified against the sum
    f = gen_binomial_sum([1, 1], 30)
    c = f.coeffs
    for n in range(2, 30):
        assert n * c[n] == 3 * (2 * n - 1) * c[n - 1] - (n - 1) * c[n - 2]


def test_diagonal_rejects_nonunit():
    with pytest.raises(InputError):
        DiagonalSpec(MPoly(1, {(0,): 1}), MPoly(1, {(1,): 1}), ["x"])
    with pytest.raises(InputError):
        DiagonalSpec(MPoly(0, {(): 1}), MPoly(0, {(): 1}), [])


def test_diagonal_rational_coefficients():
    # the constant term 2 is scaled out: x -> 2x, y -> 2y and num times 2
    # give 1/(1 - x - y), so each term is C(2n, n) / (2 * 2^(2n))
    spec = DiagonalSpec(
        MPoly(2, {(0, 0): 1}),
        MPoly(2, {(0, 0): QQ(2), (1, 0): -1, (0, 1): -1}),
        ["x", "y"],
    )
    f = gen_diagonal(spec, 5)
    assert list(f.coeffs) == [QQ(comb(2 * n, n), 2 ** (2 * n + 1)) for n in range(5)]


def test_mpoly_rejects_non_integer_exponents():
    # int(0.5) is 0: this once became -y, a wrong diagonal with no error
    with pytest.raises(InputError):
        MPoly(2, {(0.5, 1): -1})
    with pytest.raises(InputError):
        MPoly(2, {(0, 1, 0): 1})
    with pytest.raises(InputError):
        MPoly(1, {(-1,): 1})


def test_mpoly_rejects_non_rational_coefficients():
    with pytest.raises(InputError):
        MPoly(1, {(0,): 1.0})
    with pytest.raises(InputError):
        MPoly(1, {(0,): "1"})
    assert MPoly(1, {(0,): Fraction(1, 2), (1,): 3}).terms == {(0,): QQ(1, 2), (1,): QQ(3)}


def test_diagonal_spec_rejects_arity_mismatch():
    with pytest.raises(InputError):
        DiagonalSpec(MPoly(2, {(0, 0): 1}), MPoly(1, {(0,): 1}), ["x", "y"])


def test_diagonal_rejects_no_terms():
    with pytest.raises(InputError):
        gen_diagonal(apery_diagonal_spec(1, 1), 0)


def _int_den(spec):
    return {e: int(c) for e, c in spec.den.terms.items()}


def _as_set(factors):
    return {frozenset(f.items()) for f in factors}


B = {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1}


@pytest.mark.parametrize("first", [
    {(0, 0, 0): 1, (1, 0, 0): -5, (0, 1, 1): -7, (0, 0, 2): -13},
    {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 2): -1},
])
def test_content_factors_criterion_6(first):
    den = {e: c for e, c in _criterion_6_den(first).items() if c}
    assert len(den) - 1 == (10 if first[(1, 0, 0)] == -5 else 8)
    assert _as_set(_content_factors(den)) == _as_set([first, B])


@pytest.mark.parametrize("p,q", [(2, 2), (1, 3)])
def test_content_factors_apery_does_not_split(p, q):
    # (1, 3): the gcd of Kronecker images proposes 1 + y1, which does not divide den
    den = _int_den(apery_diagonal_spec(p, q))
    assert _content_factors(den) == [den]


def test_content_factors_keep_the_lattice():
    # (1 - z^2)(1 - x) splits into its two contents, not into 1 - z and 1 + z
    den = _pmul({(0, 0): 1, (0, 2): -1}, {(0, 0): 1, (1, 0): -1})
    assert _as_set(_content_factors(den)) == _as_set([{(0, 0): 1, (0, 2): -1}, {(0, 0): 1, (1, 0): -1}])


def test_content_factors_need_unit_constants():
    # (2 - x)(2 - y) splits by contents, but a factor with constant 2 would
    # make the cells fractions, so den stays whole
    den = _pmul({(0, 0): 2, (1, 0): -1}, {(0, 0): 2, (0, 1): -1})
    assert _content_factors(den) == [den]
    # a content of constant term -1 is turned to +1
    den = _pmul({(0, 0): -1, (1, 0): 1}, {(0, 0): -1, (0, 1): 1})
    assert _as_set(_content_factors(den)) == _as_set([{(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): -1}])


def test_pgcd_gives_up():
    # x and x - b agree at every evaluation point xi the heuristic tries
    # (4, 10, 27, 73, 199, 543 all divide b), so the image gcd is xi each
    # time, rebuilt as x, which does not divide x - b
    b = lcm(4, 10, 27, 73, 199, 543)
    assert _pgcd([{(1,): 1}, {(1,): 1, (0,): -b}]) is None
    assert _pgcd([{(1,): 1}, {(1,): 1, (0,): -2 * 3 * 5}]) == {(0,): 1}
    assert _pgcd([{(1, 1): 6, (0, 0): 4}, {(1, 1): 9, (0, 0): 6}]) == {(1, 1): 3, (0, 0): 2}


def _on_lattice_monos(draw, k, scale, coef, max_size, free=None):
    expo = st.lists(st.integers(0, 2), min_size=k, max_size=k)
    out = {}
    for e in draw(st.lists(expo, max_size=max_size)):
        e = tuple(0 if i == free else a * g for i, (a, g) in enumerate(zip(e, scale)))
        if any(e):
            out[e] = draw(coef)
    return out


@st.composite
def factored_dens(draw, k=None):
    """An integer den with constant term 1 in 2 or 3 variables, as the
    product of a factor free of a drawn variable and another factor."""
    k = k or draw(st.integers(2, 3))
    free = draw(st.integers(0, k - 1))
    scale = draw(st.lists(st.sampled_from([1, 2]), min_size=k, max_size=k))
    coef = st.integers(-3, 3).filter(bool)
    one = (0,) * k
    a = _on_lattice_monos(draw, k, scale, coef, 3, free)
    b = _on_lattice_monos(draw, k, scale, coef, 3)
    sign = draw(st.sampled_from([1, -1]))
    a[one], b[one] = sign, sign
    return a, b, _pmul(a, b)


@settings(max_examples=100, deadline=None)
@given(factored_dens())
# 1 - z^2 times 1 - x: contents 1 - z^2 and 1 - x
@example(({(0, 0): 1, (0, 2): -1}, {(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 2): -1, (1, 0): -1, (1, 2): 1}))
def test_content_factors_split_fully(case):
    a, b, den = case
    k = len(next(iter(den)))
    factors = _content_factors(den)
    whole = {(0,) * k: 1}
    for f in factors:
        whole = _pmul(whole, f)
    assert whole == den
    assert all(f[(0,) * k] == 1 for f in factors)
    # a nonconstant factor free of a variable that the other one has is a content
    if len(a) > 1 and any(any(e[i] for e in b) and not any(e[i] for e in a) for i in range(k)):
        assert len(factors) >= 2
    assert not any(has_content(f, i) for f in factors for i in range(k))


@st.composite
def factored_specs(draw):
    """num/den with den the product of two factors, one free of a drawn
    variable; the constant terms are +-1 (so den splits into integer
    factors) or rational, and num may leave den's lattice."""
    k = draw(st.integers(2, 3))
    free = draw(st.integers(0, k - 1))
    scale = draw(st.lists(st.sampled_from([1, 2]), min_size=k, max_size=k))
    coef = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)).filter(bool)
    one = (0,) * k
    a = _on_lattice_monos(draw, k, scale, coef, 3, free)
    b = _on_lattice_monos(draw, k, scale, coef, 3)
    a[one] = draw(st.sampled_from([QQ(1), QQ(-1), QQ(3, 2)]))
    b[one] = draw(st.sampled_from([QQ(1), QQ(-1)]))
    num = _on_lattice_monos(draw, k, [1] * k if draw(st.booleans()) else scale, coef, 2)
    num[one] = QQ(1)
    return _spec(k, num, _pmul(a, b)), draw(st.integers(1, 9 - 2 * k))


@settings(max_examples=150, deadline=None)
@given(factored_specs())
# the off-lattice pair (1 - z)(1 + z) times 1 - x - y: g_z = 2 is kept
@example((_spec(3, {(0, 0, 0): 1}, _pmul(_pmul({(0, 0, 0): 1, (0, 0, 1): -1}, {(0, 0, 0): 1, (0, 0, 1): 1}),
                                         {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1})), 5))
# a rational constant term: (3/2 - x)(1 - xy) is swept as one factor
@example((_spec(2, {(0, 0): 1}, _pmul({(0, 0): QQ(3, 2), (1, 0): -1}, {(0, 0): 1, (1, 1): -1})), 5))
# num terms off den's lattice (odd powers of y against g_y = 2)
@example((_spec(2, {(0, 0): 1, (1, 1): 2, (0, 3): -1},
                _pmul({(0, 0): 1, (0, 2): -2}, {(0, 0): 1, (1, 0): -1, (1, 2): 3})), 5))
# the second stage's terms all come with a minus sign and |coefficient| 1:
# 1 + xz + xy after 1 - 2x - 3z
@example((_spec(3, {(0, 0, 0): 1}, _pmul({(0, 0, 0): 1, (1, 0, 0): -2, (0, 0, 1): -3},
                                         {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1})), 5))
# the criterion-6 (ii) shape: the last factor, 1 - x - xy, is free of z, and
# the first stage fills the whole box
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6II)), 5))
# the second stage, 1 - y - 2y^2, has two terms on the last axis alone
@example((_spec(2, {(0, 0): 1}, _pmul({(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): -3},
                                      {(0, 0): 1, (0, 1): -1, (0, 2): -2})), 5))
# the num term 3x^2y lies in stage 1's row x^2, left of its span [2, 4]
@example((_spec(2, {(0, 0): 1, (2, 1): 3}, _pmul({(0, 0): 1, (1, 0): -1, (1, 1): -1},
                                                 {(0, 0): 1, (1, 0): -2})), 5))
# one variable with period 2, two variables with period 6, and four variables
@example((_spec(1, {(0,): 1}, _pmul({(0,): 1, (2,): -2}, {(0,): 1, (2,): 1, (6,): -1})), 13))
@example((_spec(2, {(0, 0): 1}, _pmul({(0, 0): 1, (2, 0): -1, (0, 3): -1}, {(0, 0): 1, (2, 0): -2})), 13))
@example((_spec(4, {(0, 0, 0, 0): 1}, _pmul({(0, 0, 0, 0): 1, (1, 0, 0, 0): -1, (0, 1, 1, 0): -1},
                                            {(0, 0, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -1,
                                             (1, 0, 0, 1): 2})), 4))
def test_diagonal_of_product_matches_bruteforce(case):
    spec, n_terms = case
    assert list(gen_diagonal(spec, n_terms).coeffs) == diagonal_bruteforce(spec, n_terms)


def _spans_call(spec, n_terms):
    """The arguments and result of the one ``_spans`` call of gen_diagonal."""
    seen = []

    def spy(stages, ext, reads):
        seen.append((stages, ext, reads, _spans(stages, ext, reads)))
        return seen[-1][-1]

    with mock.patch.object(generators, "_spans", spy):
        gen_diagonal(spec, n_terms)
    (call,) = seen
    return call


@settings(max_examples=100, deadline=None)
@given(factored_specs())
# terms on the last axis alone in the first stage and in the second
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6II)), 7))
@example((_spec(2, {(0, 0): 1}, _pmul({(0, 0): 1, (1, 0): -1, (2, 0): -1, (3, 0): -3},
                                      {(0, 0): 1, (0, 1): -1, (0, 2): -2})), 7))
def test_spans_are_closed_and_nest(case):
    stages, ext, reads, spans = _spans_call(*case)
    assert len(spans) == len(stages)
    for e in reads:
        lo, hi = spans[-1][e[:-1]]
        assert lo <= e[-1] <= hi
    for terms, need in zip(stages, spans):
        for row, (lo, hi) in need.items():
            assert all(0 <= x <= m for x, m in zip(row, ext)) and 0 <= lo <= hi <= ext[-1]
            # the cells of the span with e - t in the box need only cells in the spans
            for t in terms:
                src = tuple(map(sub, row, t[:-1]))
                if min(src) < 0 or hi < t[-1]:
                    continue
                a, b = need[src]
                assert a <= max(lo, t[-1]) - t[-1] and hi - t[-1] <= b
    for outer, inner in zip(spans, spans[1:]):
        for row, (lo, hi) in inner.items():
            a, b = outer[row]
            assert a <= lo and hi <= b


def _stage_cells(spec, n_terms):
    """The cells each stage of gen_diagonal's sweep fills, stopped before
    the sweep runs."""
    class Stop(Exception):
        pass

    def spy(*args):
        raise Stop([sum(hi + 1 - lo for lo, hi in need.values()) for need in _spans(*args)])

    with mock.patch.object(generators, "_spans", spy), pytest.raises(Stop) as stop:
        gen_diagonal(spec, n_terms)
    return stop.value.args[0]


def test_spans_cell_counts_pinned():
    # a sweep of the whole box fills 120^3 = 1 728 000 cells a stage for
    # criterion 6 (i) and 189 * 95 * 189 = 3 393 495 for (ii)
    assert _stage_cells(_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I)), 120) == [1432820, 295240]
    assert _stage_cells(_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6II)), 190) == [3393495, 576080]


@contextmanager
def _split(cells):
    """gen_diagonal with the given ``_SPLIT_CELLS``, on two usable CPUs,
    counting the workers it starts."""
    with mock.patch.object(generators, "_SPLIT_CELLS", cells), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
            mock.patch.object(subprocess, "Popen", wraps=subprocess.Popen) as popen:
        yield popen


# the factors have no term off axis 1 (z, after y is made the last axis):
# the worker's rows read none of the caller's
EMPTY_BAND = (_spec(3, {(0, 0, 0): 1, (1, 1, 1): 3, (0, 0, 1): 2}, {(0, 0, 0): 1, (1, 1, 0): -1, (2, 0, 0): -2}), 6)


@settings(max_examples=100, deadline=None)
@given(st.one_of(diagonal_specs(), factored_specs()).filter(lambda case: case[0].den.nvars >= 3))
@example(EMPTY_BAND)
# a one-row box: the upper range would be empty, so nothing is split
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I)), 1))
# the band is two rows of the first stage (7yz and 13z^2 reach back two rows)
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I)), 7))
@example((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6II)), 7))
# the second stage, 1 - y - 2z, reads the band too
@example((_spec(3, {(0, 0, 0): 1}, _pmul({(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1, (1, 1, 1): 2},
                                         {(0, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): -2})), 6))
def test_diagonal_split_matches_in_process(case):
    spec, n_terms = case
    with _split(math.inf) as popen:
        whole = gen_diagonal(spec, n_terms)
    assert not popen.called
    with _split(0):
        assert gen_diagonal(spec, n_terms) == whole
    assert list(whole.coeffs) == diagonal_bruteforce(spec, n_terms)


def test_diagonal_split_starts_one_worker_where_rows_split():
    for (spec, n_terms), workers in [(EMPTY_BAND, 1), ((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I)), 1), 0),
                                     ((_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6II)), 7), 1),
                                     ((_spec(2, {(0, 0): 1}, {(0, 0): 1, (1, 0): -1, (0, 1): -1}), 9), 0)]:
        with _split(0) as popen:
            gen_diagonal(spec, n_terms)
        assert popen.call_count == workers
        if workers:
            assert popen.call_args.args[0] == [sys.executable, "-S", "-I", _sweep.__file__]


def test_diagonal_split_pinned():
    # criterion 6 (i) at 30 terms fills 27 015 cells: split, it gives the
    # terms a cell-by-cell expansion gives
    spec = _spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I))
    with _split(0) as popen:
        f = gen_diagonal(spec, 30)
    assert popen.call_count == 1
    with _split(math.inf):
        assert f == gen_diagonal(spec, 30)
    assert list(f.coeffs[:8]) == diagonal_bruteforce(spec, 8)


def test_diagonal_worker_that_exits_raises(monkeypatch):
    # /bin/false exits at once: the caller's bands or its read of the
    # result hit a closed pipe, and no series comes back
    monkeypatch.setattr(sys, "executable", "/bin/false")
    for n_terms in (7, 30):
        with _split(0) as popen, pytest.raises(RuntimeError):
            gen_diagonal(_spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I)), n_terms)
        assert popen.call_count == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_diagonal_one_cpu_starts_no_worker(monkeypatch):
    spec, n_terms = _spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6II)), 7
    spy = mock.Mock(wraps=subprocess.Popen)
    monkeypatch.setattr(subprocess, "Popen", spy)
    monkeypatch.setattr(generators, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert list(gen_diagonal(spec, n_terms).coeffs) == diagonal_bruteforce(spec, n_terms)
    # where the affinity is unknown, the CPU count stands in
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    gen_diagonal(spec, n_terms)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    gen_diagonal(spec, n_terms)
    assert not spy.called


def test_stepset_rejects_non_integer_steps():
    # int() once truncated these: (0.5, 1) became (0, 1) and '1' became 1
    for steps in ([(0.5, 1), (1.9, 0)], [("1", 1)], [(1, None)], [(0, 1), (Fraction(1), 0)]):
        with pytest.raises(InputError):
            StepSet(steps)
    assert StepSet([(1, -1), (1, -1), (0, 2)]).steps == {(1, -1), (0, 2)}


def test_generators_reject_non_integer_counts():
    # a float once failed inside the sweep, range or Fraction with a TypeError
    spec = _spec(3, {(0, 0, 0): 1}, _criterion_6_den(C6I))
    for bad in (lambda: gen_diagonal(spec, 5.0), lambda: gen_diagonal(spec, "5"),
                lambda: gen_walk(TRIDENT_STEPS, 5.0), lambda: gen_walk(TRIDENT_STEPS, Fraction(5)),
                lambda: gen_binomial_sum([2, 2], 5.0), lambda: gen_binomial_sum([2.0, 2], 5),
                lambda: gen_binomial_sum([1, Fraction(1)], 5), lambda: gen_binomial_sum([2, None], 5)):
        with pytest.raises(InputError):
            bad()


def test_generator_input_errors_and_reprs():
    for bad in (lambda: gen_binomial_sum([1, -1], 3), lambda: StepSet([]),
                lambda: gen_walk(TRIDENT_STEPS, 0), lambda: binomial_double_product_spec(-1)):
        with pytest.raises(InputError):
            bad()
    assert repr(MPoly(2, {(0, 0): 1, (1, 0): 2})) == "MPoly(2 vars, 2 terms)"
    assert repr(StepSet([(0, 1)])) == "StepSet([(0, 1)])"
