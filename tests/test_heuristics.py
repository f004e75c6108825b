from math import comb

import pytest

from dfinite import (
    AsymptoticForm,
    DiffOp,
    Poly,
    TruncSeries,
    apery_asymptotic_decision,
    eisenstein_scan,
    estimate_growth,
    flajolet_check,
    gen_binomial_sum,
    p_curvature,
)
from dfinite.errors import PrecisionTooLow
from dfinite.rationals import QQ
from oracles import p_curvature_oracle

PRIMES = (3, 5, 7, 11, 13)


def test_eisenstein_harmonic():
    f = TruncSeries([QQ(0)] + [QQ(1, n) for n in range(1, 51)])
    rep = eisenstein_scan(f)
    assert rep.primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert rep.largest_prime == 47
    assert rep.candidate_c is None  # no C below the bound
    assert rep.transcendence_evidence


def test_eisenstein_integer_series():
    f = TruncSeries([comb(2 * n, n) for n in range(30)])
    rep = eisenstein_scan(f)
    assert rep.primes == []
    assert rep.candidate_c == 1
    assert not rep.transcendence_evidence


def test_eisenstein_sixteen():
    # 2F1(1/2, 1/2; 1) coefficients: C(2n,n)^2 / 16^n
    f = TruncSeries([QQ(comb(2 * n, n) ** 2, 16 ** n) for n in range(40)])
    rep = eisenstein_scan(f)
    assert rep.candidate_c == 16
    assert not rep.transcendence_evidence


def test_eisenstein_needs_terms():
    with pytest.raises(PrecisionTooLow):
        eisenstein_scan(TruncSeries([1, 2]))


def test_p_curvature_exponential_nonzero():
    op = DiffOp([Poly([-1]), Poly([1])])
    for p in PRIMES:
        rep = p_curvature(op, p)
        if not rep.bad_prime:
            assert not rep.is_zero


def test_p_curvature_sqrt_zero():
    op = DiffOp([Poly([-1]), Poly([-2, 2])])  # 2(z-1) D - 1, solution (1-z)^(1/2)
    for p in (3, 5, 7):
        rep = p_curvature(op, p)
        if not rep.bad_prime:
            assert rep.is_zero
            assert rep.matrix_rank == 0


def test_p_curvature_algebraic_fixtures(sqrt_op, delannoy_op, cbrt_op):
    for op in (sqrt_op, delannoy_op, cbrt_op):
        for p in PRIMES:
            rep = p_curvature(op, p)
            if not rep.bad_prime:
                assert rep.is_zero, (op, p)


def test_p_curvature_transcendental_fixtures(apery_op, log_op):
    for op, primes in ((apery_op, (5, 7, 11, 13)), (log_op, PRIMES)):
        for p in primes:
            rep = p_curvature(op, p)
            if not rep.bad_prime:
                assert not rep.is_zero, (op, p)
                assert rep.matrix_rank >= 1


def test_p_curvature_bad_primes(apery_op, cbrt_op):
    assert p_curvature(apery_op, 3).bad_prime  # prime <= order
    assert p_curvature(cbrt_op, 3).bad_prime   # divides the leading content


def test_p_curvature_matches_oracle(apery_op, sqrt_op, delannoy_op):
    # zero-ness and rank over F_p(z) against the brute-force fraction iteration
    for op in (sqrt_op, delannoy_op, apery_op):
        for p in (5, 7, 11, 13):
            rep = p_curvature(op, p)
            assert not rep.bad_prime
            assert (rep.is_zero, rep.matrix_rank) == p_curvature_oracle(op, p), (op, p)


def test_flajolet_branches():
    apery = AsymptoticForm(r=QQ(-3, 2), beta_algebraic=True, gamma_gamma_algebraic=False)
    assert flajolet_check(apery) == "transcendental"
    trident = AsymptoticForm(r=QQ(-1, 2), beta_algebraic=True, gamma_gamma_algebraic=True)
    assert flajolet_check(trident) == "inconclusive"
    assert flajolet_check(AsymptoticForm(r=QQ(-2))) == "transcendental"
    assert flajolet_check(AsymptoticForm(r=None)) == "transcendental"


def test_estimate_growth_central_binomial():
    f = TruncSeries([comb(2 * n, n) for n in range(80)])
    beta, r = estimate_growth(f)
    assert abs(beta - 4.0) < 0.01
    assert abs(r - (-0.5)) < 0.05


def test_estimate_growth_geometric():
    f = TruncSeries([QQ(2) ** n for n in range(60)])
    beta, r = estimate_growth(f)
    assert abs(beta - 2.0) < 1e-6
    assert abs(r) < 1e-6


def test_estimate_growth_apery():
    f = gen_binomial_sum([2, 2], 100)
    beta, r = estimate_growth(f)
    assert abs(beta - 33.97056) < 0.1  # (1 + sqrt 2)^4
    assert abs(r - (-1.5)) < 0.1


def test_apery_asymptotic_decision():
    assert apery_asymptotic_decision([2, 2]) == "transcendental"
    assert apery_asymptotic_decision([1, 0, 1]) == "algebraic"
    assert apery_asymptotic_decision([1]) == "rational"
    assert apery_asymptotic_decision([2]) == "algebraic"
    assert apery_asymptotic_decision([1, 1, 1]) == "transcendental"
