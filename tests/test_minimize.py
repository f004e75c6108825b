import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfinite import (
    DiffOp,
    Poly,
    TruncSeries,
    apply_op,
    certify_annihilates,
    gen_binomial_sum,
    guess_annihilator,
    lclm,
    minimal_annihilator,
    op_mul,
    transcendence_test,
    unroll,
)
import dfinite.minimize as minimize
from dfinite.errors import InputError
from dfinite.linalg import kernel_vector_exact
from dfinite.minimize import (
    CERTIFIED_ANNIHILATOR,
    INPUT_RETURNED,
    MinimizeOptions,
    _cofactor,
    _guess_system,
    _vector_to_op,
)
from dfinite.rationals import QQ
from dfinite.transcend import TranscendOptions
from oracles import cofactor_oracle


def test_guess_geometric():
    f = TruncSeries([QQ(2) ** n for n in range(40)])
    op = guess_annihilator(f, 1, 1)
    assert op == DiffOp([Poly([-2]), Poly([1, -2])])


def test_guess_apery(apery_op):
    f = gen_binomial_sum([2, 2], 120)
    assert guess_annihilator(f, 3, 4) == apery_op


# the order-6 operators of the binomial sums (1,4) and (3,2), minimized
# on 700 terms: one full-rank probe per order below 6, each at the
# precision budget's degree cap
_HEAVY_LOG = [(1, 343, "empty kernel"), (2, 228, "empty kernel"), (3, 170, "empty kernel"),
              (4, 136, "empty kernel"), (5, 113, "empty kernel")]


@pytest.mark.parametrize("powers", [[1, 4], [3, 2]])
def test_heavy_minimization_logs_pinned(powers):
    f = gen_binomial_sum(powers, 300)
    op = guess_annihilator(f, max_order=8)
    assert (op.order, op.degree()) == (6, 19)
    res = minimal_annihilator(op, f.prefix(12))
    assert res.status == INPUT_RETURNED and res.operator == op
    assert res.search_log == _HEAVY_LOG


def test_guess_random_series_has_no_operator():
    rng = random.Random(31)
    for _ in range(3):
        f = TruncSeries([QQ(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(60)])
        assert guess_annihilator(f, 2, 2) is None


def test_guess_skips_orders_without_precision():
    # 8 terms leave every order a negative degree cap, so no order is searched
    with mock.patch.object(minimize, "_search_order", side_effect=AssertionError):
        assert guess_annihilator(TruncSeries([1] * 8), 4) is None


def test_certify_true_for_self(apery_op, apery_init):
    f = unroll(apery_op, apery_init, 40)
    assert certify_annihilates(apery_op, apery_op, f) is True


def test_certify_sqrt_nonannihilator(sqrt_op):
    # z D - 1 annihilates only multiples of z, not the solution
    f = unroll(sqrt_op, TruncSeries([1, -1]), 40)
    cand = DiffOp([Poly([-1]), Poly([0, 1])])
    assert certify_annihilates(sqrt_op, cand, f) is False


def test_certify_constructed_true():
    lexp = DiffOp([Poly([-1]), Poly([1])])
    lgeo = DiffOp([Poly([-2]), Poly([1, -2])])
    big = lclm(lexp, lgeo)
    f = unroll(big, TruncSeries([1, 2, 4]), 40)
    assert certify_annihilates(big, lgeo, f) is True
    assert certify_annihilates(big, lexp, f) is False


def test_certify_unrolls_initial_terms_itself(apery_op, apery_init):
    # given only the initial terms, the certificate unrolls as far as its
    # zero test needs and agrees with a long unrolled prefix
    d = DiffOp([Poly(), Poly([1])])
    apery_d = lclm(apery_op, d)
    lexp = DiffOp([Poly([-1]), Poly([1])])
    lgeo = DiffOp([Poly([-2]), Poly([1, -2])])
    exp_geo = lclm(lexp, lgeo)
    # D - 1 - z^5 sends exp(z) to -z^5 exp(z): the first five terms vanish
    near_exp = DiffOp([Poly([-1, 0, 0, 0, 0, -1]), Poly([1])])
    cases = [
        (apery_d, unroll(apery_op, apery_init, apery_d.order), apery_op, True),
        (apery_d, unroll(apery_op, apery_init, apery_d.order), d, False),
        (exp_geo, TruncSeries([1, 2]), lgeo, True),
        (exp_geo, TruncSeries([1, 2]), lexp, False),
        (exp_geo, TruncSeries([1, 1]), lexp, True),
        (exp_geo, TruncSeries([1, 1]), near_exp, False),
    ]
    for big, init, cand, expected in cases:
        assert certify_annihilates(big, cand, init) is expected
        assert certify_annihilates(big, cand, unroll(big, init, 160)) is expected


def test_minimal_annihilator_redundant_input(apery_op, apery_init):
    big = lclm(apery_op, DiffOp([Poly(), Poly([1])]))
    init = unroll(apery_op, apery_init, big.order + 4)
    res = minimal_annihilator(big, init, MinimizeOptions(max_degree=10))
    assert res.status == CERTIFIED_ANNIHILATOR
    assert res.operator == apery_op
    assert res.search_log == [
        (1, 10, "empty kernel"), (2, 10, "empty kernel"), (3, 4, "certified")]


def test_minimal_annihilator_input_returned(apery_op, apery_init):
    res = minimal_annihilator(apery_op, apery_init)
    assert res.status == INPUT_RETURNED
    assert res.operator == apery_op
    assert all(outcome == "empty kernel" for _, _, outcome in res.search_log)


def test_guess_annihilator_from_series():
    f = gen_binomial_sum([1, 1], 60)
    op = guess_annihilator(f, 4)
    assert op is not None
    assert op.order == 1
    assert op == DiffOp([Poly([-3, 1]), Poly([1, -6, 1])])


def test_monotone_in_max_degree(apery_op, apery_init):
    # enlarging the degree budget never increases the returned order
    big = lclm(apery_op, DiffOp([Poly([-1]), Poly([1])]))
    init = unroll(apery_op, apery_init, big.order + 4)
    orders = []
    for md in (6, 12, 24):
        res = minimal_annihilator(big, init, MinimizeOptions(max_degree=md))
        orders.append(res.operator.order)
    assert orders == sorted(orders, reverse=True) or len(set(orders)) == 1


def test_minimize_soundness_longer_unroll(apery_op, apery_init):
    big = lclm(apery_op, DiffOp([Poly(), Poly([1])]))
    init = unroll(apery_op, apery_init, big.order + 4)
    res = minimal_annihilator(big, init, MinimizeOptions(max_degree=10))
    f = unroll(big, init, 160)
    assert certify_annihilates(big, res.operator, f) is True
    out = apply_op(res.operator, f)
    assert all(c == 0 for c in out.coeffs)


def test_cofactor_matches_oracle(apery_op, sqrt_op):
    # the (input, candidate) pairs certified above, plus a candidate built
    # from rational coefficients
    d = DiffOp([Poly(), Poly([1])])
    lexp = DiffOp([Poly([-1]), Poly([1])])
    lgeo = DiffOp([Poly([-2]), Poly([1, -2])])
    exp_geo = lclm(lexp, lgeo)
    raw = DiffOp([Poly([QQ(-1, 2)]), Poly([QQ(1, 3), QQ(-2, 3)])])
    # same order as the input: reduced once before the remainders start
    same_order = DiffOp([Poly([1, 2]), Poly([QQ(1, 2)]), Poly([0, 3, -1])])
    cases = [
        (apery_op, apery_op),
        (sqrt_op, DiffOp([Poly([-1]), Poly([0, 1])])),
        (sqrt_op, sqrt_op),
        (lclm(apery_op, d), apery_op),
        (lclm(apery_op, d), d),
        (exp_geo, lgeo),
        (exp_geo, lexp),
        (exp_geo, DiffOp([Poly([-1, 0, 0, 0, 0, -1]), Poly([1])])),
        (exp_geo, raw),
        (exp_geo, same_order),
        (exp_geo, op_mul(DiffOp([Poly([1]), Poly([0, 1])]), lgeo)),
        (lclm(apery_op, d), lclm(apery_op, lexp)),
    ]
    for big, cand in cases:
        assert _cofactor(big, cand) == cofactor_oracle(big, cand), (big, cand)


def test_minimal_annihilator_rejects_bad_init():
    # (1-2z) f' = 2f forces a_1 = 2
    op = DiffOp([Poly([-2]), Poly([1, -2])])
    with pytest.raises(InputError, match="^invalid initial terms: .*row"):
        minimal_annihilator(op, TruncSeries([1, 3]))
    with pytest.raises(InputError, match="^invalid initial terms: fewer"):
        minimal_annihilator(DiffOp([Poly(), Poly(), Poly([1])]), TruncSeries([1]))


def test_negative_max_degree_is_an_input_error(apery_op, apery_init):
    # a negative degree cap searches nothing; it used to be logged as an
    # exhausted precision budget, and written into a T certificate
    opts = MinimizeOptions(max_degree=-1)
    with pytest.raises(InputError, match="max_degree"):
        guess_annihilator(unroll(apery_op, apery_init, 40), 2, max_degree=-1)
    with pytest.raises(InputError, match="max_degree"):
        minimal_annihilator(apery_op, apery_init, opts)
    with pytest.raises(InputError, match="max_degree"):
        transcendence_test(apery_op, apery_init, TranscendOptions(minimize=opts))
    assert guess_annihilator(unroll(apery_op, apery_init, 40), 1, max_degree=0) is None
    # so do a negative order cap and a negative precision budget
    with pytest.raises(InputError, match="max_order"):
        guess_annihilator(unroll(apery_op, apery_init, 40), -2)
    with pytest.raises(InputError, match="max_precision"):
        minimal_annihilator(apery_op, apery_init, MinimizeOptions(max_precision=-5))


def test_wrong_reconstruction_costs_a_prime_not_the_answer(monkeypatch, apery_op, apery_init):
    # the first reconstruction of every CRT loop is wrong: each is caught
    # by the one exact check (M(f) = 0), which brings in another prime
    import dfinite.linalg as linalg

    real = linalg._try_reconstruct
    seen = []

    def wrong_first(combined, modulus):
        got = real(combined, modulus)
        first = not seen or modulus < seen[-1]  # a new loop restarts the modulus
        seen.append(modulus)
        return [x + 1 for x in got] if first and got is not None else got

    monkeypatch.setattr(linalg, "_try_reconstruct", wrong_first)
    assert guess_annihilator(gen_binomial_sum([2, 2], 120), 3, 4) == apery_op
    assert len(seen) >= 2
    big = lclm(apery_op, DiffOp([Poly(), Poly([1])]))
    init = unroll(apery_op, apery_init, big.order + 4)
    res = minimal_annihilator(big, init, MinimizeOptions(max_degree=10))
    assert res.operator == apery_op
    assert res.search_log == [
        (1, 10, "empty kernel"), (2, 10, "empty kernel"), (3, 4, "certified")]


def _search_residual(f, order, degree):
    """The residual that ``_search_order`` hands ``kernel_vector_exact``
    for the degree-``degree`` cell, caught from one search."""
    caught = []
    with mock.patch.object(minimize, "_probe_degree", lambda *a: [degree]), \
            mock.patch.object(minimize, "kernel_vector_exact",
                              lambda cell, residual: caught.append(residual)):
        assert minimize._search_order(f, order, degree) is None
    return caught[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6])),
                min_size=4, max_size=14),
       st.integers(1, 3), st.integers(0, 3), st.data())
def test_integer_residual_has_the_zero_pattern_of_apply_op(coeffs, order, degree, data):
    # the guesser's check over Z, M(F) with F = D f, against apply_op on
    # M's normal form M' = M / g, g = z^v u with u(0) != 0: M(f) = g M'(f)
    # has its first nonzero row v rows later and v more rows
    f = TruncSeries(coeffs)
    ncols = (order + 1) * (degree + 1)
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    got = _search_residual(f, order, degree)(vec)
    want = apply_op(_vector_to_op(vec, order), f).coeffs
    v = min((c // (order + 1) for c, x in enumerate(vec) if x), default=0)
    assert len(got) == len(want) + v
    first = next((n for n, x in enumerate(want) if x), None)
    assert next((n for n, x in enumerate(got) if x), None) == (None if first is None else v + first)


def test_candidate_zero_on_the_system_but_not_further_is_refused(monkeypatch):
    # f = z^(N-1) at order 1, degree 1: the system's rows 0..N-2 see the
    # columns f, z f and z f' as zero, and the canonical kernel vector is
    # M = 1, but M(f) = f has a nonzero on the row N-1 further on
    import dfinite.linalg as linalg

    n = 12
    f = TruncSeries([0] * (n - 1) + [1])
    system = _guess_system(f, 1, 1)
    assert len(system) == n - 1
    vec = [1, 0, 0, 0]
    assert kernel_vector_exact(system, system.times) == vec
    residual = _search_residual(f, 1, 1)
    assert [i for i, x in enumerate(residual(vec)) if x] == [n - 1]
    assert [i for i, x in enumerate(apply_op(_vector_to_op(vec, 1), f).coeffs) if x] == [n - 1]
    # refused after one candidate, with no prime added; the same holds
    # for the candidate z d, whose normal form d shifts apply_op's rows
    calls = []
    real = linalg._try_reconstruct
    monkeypatch.setattr(linalg, "_try_reconstruct", lambda *a: calls.append(1) or real(*a))
    assert kernel_vector_exact(system, residual) is None
    g = TruncSeries([1] + [0] * (n - 2) + [1])
    g_system, g_residual = _guess_system(g, 1, 1), _search_residual(g, 1, 1)
    assert kernel_vector_exact(g_system, g_system.times) == [0, 0, 0, 1]
    assert kernel_vector_exact(g_system, g_residual) is None
    assert len(calls) == 3
