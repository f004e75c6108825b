"""Modular linear algebra: rank profiles, kernel vectors by
back-substitution, memoized reduction, rational reconstruction past
float range, the guesser's one-elimination proof on the Apery operator,
and the fraction-free Q(z) dependence."""

from bisect import bisect_left
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinite.fileio import load_problem
from dfinite.linalg import (
    _PRIMES_31,
    _first_dependence,
    _kernel_mod,
    _rational_reconstruct,
    _reduce_matrix_mod,
    kernel_rank_mod_p,
)
from dfinite.minimize import INPUT_RETURNED, minimal_annihilator
from dfinite.polys import Poly, RatFunc
from dfinite.rationals import Q0, QQ
from oracles import _kernel_vector_mod, _rref_mod, ratfunc_dependence

APERY = Path(__file__).resolve().parents[1] / "bench" / "data" / "apery.json"


@st.composite
def shared_matrices(draw):
    """Small rational matrices whose cells reuse a few entry objects, with
    some columns forced to zero."""
    pool = draw(st.lists(
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4])),
        min_size=1, max_size=4,
    ))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    picks = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    return [[Q0 if j in zero_cols else pool[k] for j, k in enumerate(line)] for line in picks]


@settings(max_examples=200, deadline=None)
@given(shared_matrices(), st.sampled_from([5, 7, _PRIMES_31[0]]))
def test_pivot_prefix_counts_are_prefix_ranks(rows, p):
    rank, piv = kernel_rank_mod_p(rows, p)
    assert rank == len(piv) and piv == sorted(set(piv))
    a = _reduce_matrix_mod(rows, p)
    for k in range(len(rows[0]) + 1):
        _, ref_piv, _ = _rref_mod(a[:, :k], p)
        assert bisect_left(piv, k) == len(ref_piv), k


@settings(max_examples=200, deadline=None)
@given(shared_matrices(), st.sampled_from([5, 7, _PRIMES_31[0]]))
# the first free column comes before later pivots
@example([[QQ(1), QQ(2), Q0], [QQ(2), QQ(4), QQ(1)]], 7)
@example([[Q0, QQ(1), QQ(3)], [Q0, QQ(2), QQ(1, 2)]], 5)
def test_back_substituted_kernel_matches_rref(rows, p):
    a = _reduce_matrix_mod(rows, p)
    piv, vec = _kernel_mod(a, p)
    want = _kernel_vector_mod(a, p)
    assert (vec is None) == (want is None) == (len(piv) == len(rows[0]))
    if want is not None:
        assert (piv, vec) == (want[0], want[2])


def test_memoized_reduction_matches_per_entry():
    p = 11
    shared = QQ(-3, 4)
    rows = [[shared, QQ(5, 2), Q0], [QQ(-3, 4), shared, QQ(7)], [shared] * 3]
    expected = [[int(c.numerator) * pow(int(c.denominator), -1, p) % p for c in row]
                for row in rows]
    assert _reduce_matrix_mod(rows, p).tolist() == expected


def test_memoized_reduction_rejects_bad_prime():
    bad = QQ(1, 7)
    with pytest.raises(ValueError):
        _reduce_matrix_mod([[QQ(2), bad], [bad, QQ(2)]], 7)


def test_rational_reconstruct_beyond_float_range():
    m = prod(_PRIMES_31[:34])
    assert m.bit_length() > 1024
    for value in (QQ(3, 7), QQ(-123456789, 987654321)):
        a = int(value.numerator) * pow(int(value.denominator), -1, m) % m
        assert _rational_reconstruct(a, m) == value


def test_apery_minimization_proves_no_smaller_operator():
    op, init, _ = load_problem(str(APERY))
    res = minimal_annihilator(op, init)
    assert res.status == INPUT_RETURNED
    assert res.search_log == [(1, 144, "empty kernel"), (2, 144, "empty kernel")]


def _zlist(p):
    return [int(c) for c in p.coeffs]


_zpolys = st.lists(st.integers(-3, 3), max_size=3).map(lambda c: _zlist(Poly(c)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.data())
def test_first_dependence_matches_ratfunc_oracle(dim, data):
    # sparse integer vectors over row scales, often with a planted
    # dependence, so pivots meet zero entries in their own column
    n = data.draw(st.integers(1, dim + 1))
    vecs = [[data.draw(_zpolys) for _ in range(dim)] for _ in range(n)]
    if data.draw(st.booleans()):
        mix = [Poly(data.draw(_zpolys)) for _ in range(n)]
        vecs.append([_zlist(sum((m * Poly(v[i]) for m, v in zip(mix, vecs)), Poly()))
                     for i in range(dim)])
    scales = [data.draw(_zpolys.filter(bool)) for _ in vecs]
    got = _first_dependence(zip(vecs, scales))
    want = ratfunc_dependence(
        [[RatFunc(Poly(x), Poly(s)) for x in w] for w, s in zip(vecs, scales)])
    if want is None:
        assert got is None
        return
    assert got is not None and len(got) == len(want)
    last = RatFunc(Poly(got[-1]))
    for c, d in zip(got, want):
        assert RatFunc(Poly(c)) == d * last
