import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfinite import (
    BivarPoly,
    DiffOp,
    Poly,
    TruncSeries,
    annihilator_of_roots,
    certify_root,
    gen_binomial_sum,
    guess_algebraic,
    guess_annihilator,
    indicial_bound,
    lclm,
    prove_algebraic,
    unroll,
)
from dfinite.algebraic import squarefree_in_y
from dfinite.errors import InputError, NotSquarefree, PrecisionTooLow, RootNotSeparable
from dfinite.minimize import GUARD_TERMS
from dfinite.rationals import QQ
from oracles import (
    annihilator_of_roots_oracle,
    bivar_evaluate_series,
    certify_root_lclm_oracle,
    newton_root_oracle,
    squarefree_in_y_oracle,
)


def test_guess_algebraic_sqrt(sqrt_op):
    f = unroll(sqrt_op, TruncSeries([1, -1]), 40)
    p = guess_algebraic(f, 2, 2)
    # (y - z)^2 - (1 - 4z) up to scalar
    expected = BivarPoly([Poly([-1, 4, 1]), Poly([0, -2]), Poly([1])])
    assert p == expected


def test_guess_algebraic_rational():
    f = TruncSeries([QQ(2) ** n for n in range(30)])
    p = guess_algebraic(f, 1, 1)
    assert p == BivarPoly([Poly([-1]), Poly([1, -2])])


def test_guess_algebraic_apery_empty(apery_op, apery_init):
    f = unroll(apery_op, apery_init, 70)
    assert guess_algebraic(f, 6, 6) is None


def test_guess_algebraic_precision():
    with pytest.raises(PrecisionTooLow):
        guess_algebraic(TruncSeries([1, 2, 3]), 3, 3)


def test_guess_algebraic_squarefree_part_rechecked():
    # f agrees with 1/(1-z) on 10 terms: B = (1-z) y - 1 has B(z, f) =
    # O(z^10), so B^2 fills the 19-row kernel, but its squarefree part B
    # does not vanish on all 19 terms
    f = TruncSeries([1] * 10 + [2] + [n * n for n in range(11, 19)])
    assert guess_algebraic(f, 2, 2) is None


@pytest.mark.parametrize("dy, dz", [(-1, 2), (2, -1)])
def test_guess_algebraic_negative_degree_is_input_error(sqrt_op, dy, dz):
    f = unroll(sqrt_op, TruncSeries([1, -1]), 40)
    with pytest.raises(InputError):
        guess_algebraic(f, dy, dz)
    with pytest.raises(InputError):
        prove_algebraic(sqrt_op, TruncSeries([1, -1]), max_dy=dy, max_dz=dz)


def test_annihilator_of_roots_sqrt():
    p = BivarPoly([Poly([-1, 4]), Poly(), Poly([1])])  # y^2 - (1 - 4z)
    op = annihilator_of_roots(p)
    assert op == DiffOp([Poly([-2]), Poly([-1, 4])])


def test_annihilator_of_roots_rational():
    p = BivarPoly([Poly([-1]), Poly([1, -1])])  # (1-z) y - 1
    op = annihilator_of_roots(p)
    assert op == DiffOp([Poly([-1]), Poly([1, -1])])


def test_annihilator_of_roots_shifted_sqrt(sqrt_op):
    p = BivarPoly([Poly([-1, 4, 1]), Poly([0, -2]), Poly([1])])  # (y-z)^2 - (1-4z)
    assert annihilator_of_roots(p) == sqrt_op


def test_annihilator_rejects_nonsquarefree():
    p = BivarPoly([Poly(), Poly(), Poly([1])])  # y^2
    with pytest.raises(NotSquarefree):
        annihilator_of_roots(p)


def test_certify_root_sqrt(sqrt_op):
    p = BivarPoly([Poly([-1, 4, 1]), Poly([0, -2]), Poly([1])])
    assert certify_root(sqrt_op, TruncSeries([1, -1]), p) is True


def test_certify_root_corrupted(sqrt_op):
    bad = BivarPoly([Poly([-1, 5, 1]), Poly([0, -2]), Poly([1])])
    assert certify_root(sqrt_op, TruncSeries([1, -1]), bad) is False


def test_certify_root_double_root_not_separable(sqrt_op):
    # P(0, y) = (y - 1)^2 * (...): the seed value 1 is a double root
    p = BivarPoly([Poly([1]), Poly([-2, 1]), Poly([1])])  # y^2 + (z-2) y + 1
    with pytest.raises(RootNotSeparable):
        certify_root(sqrt_op, TruncSeries([1, -1]), p)


def test_prove_algebraic_sqrt(sqrt_op):
    got = prove_algebraic(sqrt_op, TruncSeries([1, -1]), max_dy=4, max_dz=4)
    assert got is not None
    p, ann = got
    assert p.deg_y == 2
    assert ann == sqrt_op


def test_prove_algebraic_f11():
    f = gen_binomial_sum([1, 1], 80)
    op = guess_annihilator(f, 3)
    got = prove_algebraic(op, f.prefix(3), max_dy=4, max_dz=4)
    assert got is not None
    p, _ = got
    # 1/sqrt(1-6z+z^2): minimal polynomial (1-6z+z^2) y^2 - 1
    assert p == BivarPoly([Poly([-1]), Poly(), Poly([1, -6, 1])])


def test_prove_algebraic_builds_root_annihilator_once(monkeypatch):
    # the annihilator certify_root builds for the lclm is the one returned
    import dfinite.algebraic as algebraic_mod
    from dfinite.hypergeom import HypParams, hypergeometric_operator

    op = hypergeometric_operator(HypParams([QQ(1, 6), QQ(5, 6)], [QQ(1, 2)]))
    terms = [QQ(1)]
    for n in range(40):
        terms.append(terms[-1] * (QQ(n) + QQ(1, 6)) * (QQ(n) + QQ(5, 6))
                     / ((QQ(n) + QQ(1, 2)) * (n + 1)))
    calls = []

    def counting(p):
        calls.append(p)
        return annihilator_of_roots(p)

    monkeypatch.setattr(algebraic_mod, "annihilator_of_roots", counting)
    got = prove_algebraic(op, TruncSeries(terms).prefix(op.order), max_dy=6, max_dz=6)
    assert got is not None
    p, ann = got
    assert calls == [p]
    assert ann == annihilator_of_roots(p)


def test_prove_algebraic_apery_exhausts(apery_op, apery_init):
    assert prove_algebraic(apery_op, apery_init, max_dy=4, max_dz=4) is None


def test_round_trip_random_algebraic():
    # random y with known minimal polynomial Q of small degree: the prover
    # recovers a polynomial with the same squarefree part
    rng = random.Random(41)
    for _ in range(4):
        # build an algebraic series: y = c0 + c1 w + c2 w^2, w = sqrt(1 + a z)
        a = rng.randint(1, 4)
        c = [QQ(rng.randint(-3, 3)) for _ in range(3)]
        if c[1] == 0 and c[2] == 0:
            continue
        n = 50
        w = _sqrt_series(QQ(a), n)
        w2 = _mul(w, w, n)
        y = [(c[0] if i == 0 else QQ(0)) + c[1] * w[i] + c[2] * w2[i] for i in range(n)]
        f = TruncSeries(y)
        op = guess_annihilator(f, 3)
        assert op is not None
        got = prove_algebraic(op, f.prefix(max(op.order, 1)), max_dy=4, max_dz=6)
        assert got is not None
        p, _ = got
        check = bivar_evaluate_series(p.y_coeffs, f)
        assert all(x == 0 for x in check.coeffs)


def _sqrt_series(a, n):
    # sqrt(1 + a z) by Newton iteration on y^2 - (1 + a z)
    out = [QQ(1)] + [QQ(0)] * (n - 1)
    prec = 1
    target = [QQ(1), a] + [QQ(0)] * (n - 2)
    while prec < n:
        prec = min(2 * prec, n)
        cur = (out + [QQ(0)] * prec)[:prec]
        sq = _mul(cur, cur, prec)
        err = [target[i] - sq[i] for i in range(prec)]
        half = _div_series(err, cur, prec)
        out = [cur[i] + half[i] / 2 for i in range(prec)]
    return out


def _mul(a, b, n):
    out = [QQ(0)] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b[: n - i]):
            if y != 0:
                out[i + j] += x * y
    return out


def _div_series(a, b, n):
    inv = [1 / b[0]] + [QQ(0)] * (n - 1)
    for m in range(1, n):
        acc = QQ(0)
        for k in range(1, m + 1):
            if k < len(b):
                acc += b[k] * inv[m - k]
        inv[m] = -acc / b[0]
    return _mul(a, inv, n)


def test_annihilator_of_roots_matches_oracle():
    cases = [
        BivarPoly([Poly([-1, 4]), Poly(), Poly([1])]),
        BivarPoly([Poly([-1]), Poly([1, -1])]),
        BivarPoly([Poly([-1, 4, 1]), Poly([0, -2]), Poly([1])]),
        BivarPoly([Poly([-1]), Poly(), Poly([1, -6, 1])]),
        BivarPoly([Poly([QQ(1, 2), 1]), Poly([0, QQ(-1, 3)]), Poly([2]), Poly([1, 1])]),
    ]
    for p in cases:
        assert annihilator_of_roots(p) == annihilator_of_roots_oracle(p), p


def test_bivar_poly_stores_primitive_rows():
    p = BivarPoly([Poly([QQ(1, 2), 1]), Poly([0, QQ(-1, 3)]), Poly([2]), Poly([1, 1])])
    assert p.rows == ([3, 6], [0, -2], [12], [6, 6])
    # (1 + z) z (y^2 - 3) / (-3): the Z[z] content and the sign go
    q = BivarPoly([Poly([0, 1, 1]), Poly(), Poly([0, QQ(-1, 3), QQ(-1, 3)])])
    assert q.rows == ([-3], [], [1])
    assert q == BivarPoly([Poly([-3]), Poly(), Poly([1])])


def test_bivar_poly_y_coeffs_read_the_rows():
    ys = (Poly([-1, 4, 1]), Poly([0, -2]), Poly([1]))
    p = BivarPoly(list(ys))
    assert p.y_coeffs == ys
    assert p.y_coeffs == tuple(Poly(r) for r in p.rows)
    assert BivarPoly([Poly([QQ(1, 2)]), Poly([0, 1])]).y_coeffs == (Poly([1]), Poly([0, 2]))


_coef = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _bivars(max_dy, max_dz, min_dy=1):
    """Random P(z, y) of y-degree in [min_dy, max_dy], z-degree <= max_dz."""
    ys = st.lists(st.lists(_coef, max_size=max_dz + 1).map(Poly),
                  min_size=min_dy + 1, max_size=max_dy + 1)
    return ys.map(BivarPoly).filter(lambda p: p.deg_y >= min_dy)


def _bivar_mul(a, b):
    out = [Poly() for _ in range(a.deg_y + b.deg_y + 1)]
    for i, x in enumerate(a.y_coeffs):
        for j, y in enumerate(b.y_coeffs):
            out[i + j] = out[i + j] + x * y
    return BivarPoly(out)


_Y2 = BivarPoly([Poly(), Poly(), Poly([1])])

_nonzero_poly = st.lists(_coef, min_size=1, max_size=3).map(Poly).filter(lambda c: not c.is_zero())


@settings(max_examples=100, deadline=None)
@given(p=_bivars(3, 2, min_dy=0), a=_nonzero_poly, b=_nonzero_poly)
def test_bivar_poly_equal_up_to_a_rational_function(p, a, b):
    # P a and P b differ by the factor a / b of Q(z)*: the same rows
    pa = BivarPoly([c * a for c in p.y_coeffs])
    pb = BivarPoly([c * b for c in p.y_coeffs])
    assert pa == pb == p and hash(pa) == hash(pb) == hash(p)
    assert pa.rows == p.rows


@settings(max_examples=80, deadline=None)
@given(p=_bivars(3, 2, min_dy=0), q=_bivars(2, 1))
@example(p=_Y2, q=BivarPoly([Poly([0, 1]), Poly([1])]))  # y^2 (y + z)^2
@example(p=BivarPoly([Poly([1, 1])]), q=BivarPoly([Poly([-1, 4]), Poly(), Poly([1])]))  # y-free P
def test_squarefree_in_y_matches_ratfunc_euclid(p, q):
    # the primitive PRS over Z[z] against Euclid over RatFunc, on P and on
    # P Q^2, whose squarefree part drops Q's repeated factor
    for x in (p, _bivar_mul(p, _bivar_mul(q, q))):
        assert squarefree_in_y(x).y_coeffs == squarefree_in_y_oracle(x).y_coeffs, x


@settings(max_examples=100, deadline=None)
@given(p=_bivars(3, 1), q=_bivars(1, 1))
@example(p=_Y2, q=BivarPoly([Poly([0, 1]), Poly([1])]))
@example(p=BivarPoly([Poly([1]), Poly([0, 2])]), q=BivarPoly([Poly([1]), Poly([0, 1])]))
def test_annihilator_of_roots_matches_ratfunc_oracle(p, q):
    # a squarefree P gives the oracle's operator; a repeated root in y, in
    # P itself or from the factor Q^2, raises NotSquarefree
    if squarefree_in_y_oracle(p).deg_y == p.deg_y:
        assert annihilator_of_roots(p) == annihilator_of_roots_oracle(p), p
    else:
        with pytest.raises(NotSquarefree):
            annihilator_of_roots(p)
    with pytest.raises(NotSquarefree):
        annihilator_of_roots(_bivar_mul(p, _bivar_mul(q, q)))


def _z_minus(k):
    """z d/dz - k, which annihilates z^k."""
    return DiffOp([Poly([-k]), Poly([0, 1])])


def _pinning_prefix(op, f):
    """The prefix of f, a solution of op, that pins it for ``unroll``."""
    return TruncSeries(f[: max(op.order, indicial_bound(op) + 1)])


@st.composite
def _certify_cases(draw):
    """(op, init, P, expected): P has y0 as a root of P(0, y), simple or
    double, and init pins a solution f of op with f(0) = y0 or not.
    expected is certify_root's answer where the construction fixes it."""
    kind = draw(st.sampled_from(["root", "near", "off", "double", "late"]))
    if kind == "late":
        # f = (1 - a z)^(-b/a) against P = y - q(z), q a polynomial that
        # agrees with f on k terms: the miss shows past init, at z^k
        a, b = draw(st.integers(1, 3)), draw(st.sampled_from([-2, -1, 1, 2]))
        op = DiffOp([Poly([-b]), Poly([1, -a])])
        k = draw(st.integers(1, 6))
        f = unroll(op, TruncSeries([1]), k + 1)
        q = list(f.coeffs[:k]) + [f[k] + draw(_coef.filter(bool))]
        return op, TruncSeries([1]), BivarPoly([Poly([-c for c in q]), Poly([1])]), False
    dy = draw(st.integers(2 if kind == "double" else 1, 3))
    small = st.integers(-2, 2).map(QQ)
    rows = [draw(st.lists(small, min_size=1, max_size=5 - dy)) for _ in range(dy + 1)]
    rows[-1][0] = draw(small.filter(bool))
    y0 = draw(_coef)
    if kind == "double":  # P_y(0, y0) = 0
        rows[1][0] = -sum(j * r[0] * y0 ** (j - 1) for j, r in enumerate(rows) if j >= 2)
    rows[0][0] = -sum(r[0] * y0 ** j for j, r in enumerate(rows) if j >= 1)  # P(0, y0) = 0
    p = BivarPoly([Poly(r) for r in rows])
    assume(p.deg_y == dy and squarefree_in_y(p).deg_y == dy)
    ann = annihilator_of_roots(p)
    c = draw(_coef.filter(bool))
    k = draw(st.integers(1, 4))
    if kind == "double":
        op = lclm(_z_minus(0), _z_minus(k))
        f = [y0] + [QQ(0)] * (k - 1) + [c]
        return op, _pinning_prefix(op, f), p, None
    assume(sum(j * r[0] * y0 ** (j - 1) for j, r in enumerate(rows) if j >= 1) != 0)
    if kind == "off":
        k = 0
    op = ann if kind == "root" else lclm(ann, _z_minus(k))
    n = max(op.order, indicial_bound(op) + 1, k + 1)
    f = list(newton_root_oracle(p, TruncSeries([y0]), n).coeffs)
    if kind != "root":
        f[k] += c
    return op, _pinning_prefix(op, f), p, {"root": True, "near": False}.get(kind)


def _newton_certifies(op, init, p):
    """certify_root's answer by the Newton root over Q: it matches f on
    the number of terms certify_root reads."""
    m_op = lclm(op, annihilator_of_roots(p))
    need = max(indicial_bound(m_op) + 2, init.trunc_order, op.order + 2) + GUARD_TERMS
    f = unroll(op, init, need)
    g = newton_root_oracle(p, f.prefix(max(op.order, 1)), need)
    return g is not None and g.coeffs == f.coeffs


@settings(max_examples=100, deadline=None)
@given(case=_certify_cases())
@example(case=(_z_minus(0), TruncSeries([2]), BivarPoly([Poly([-1]), Poly(), Poly([1])]), None))
@example(case=(DiffOp([Poly([-1]), Poly([1, -1])]), TruncSeries([1]),  # 1/(1-z) against a
               BivarPoly([Poly([-1, -1, -1, -2]), Poly([1])]), False))  # root off at z^3
def test_certify_root_matches_newton_oracle(case):
    # the integer check of P(z, f) against the Newton root of P: the same
    # answer, or RootNotSeparable on both sides
    op, init, p, expected = case
    try:
        want = _newton_certifies(op, init, p)
    except RootNotSeparable:
        with pytest.raises(RootNotSeparable):
            certify_root(op, init, p)
        return
    assert certify_root(op, init, p) is want
    if expected is not None:
        assert want is expected


@st.composite
def _reducible_cases(draw):
    """(op, init, P) with P = P1 P2 squarefree in y: init pins f, P1's
    root with f(0) = y0 or that root plus c z^k, and op is P1's root
    annihilator or its lclm with z d - k, of lower order than P's."""
    y0, dy = draw(_coef), draw(st.integers(1, 2))
    rows = [draw(st.lists(_coef, min_size=1, max_size=3)) for _ in range(dy + 1)]
    rows[-1][0] = draw(_coef.filter(bool))
    rows[0][0] = -sum(r[0] * y0 ** j for j, r in enumerate(rows) if j >= 1)  # P1(0, y0) = 0
    assume(sum(j * r[0] * y0 ** (j - 1) for j, r in enumerate(rows) if j >= 1) != 0)
    p1 = BivarPoly([Poly(r) for r in rows])
    p = _bivar_mul(p1, draw(_bivars(3 - dy, 1)))
    assume(p1.deg_y == dy and squarefree_in_y(p).deg_y == p.deg_y)
    ann1 = annihilator_of_roots(p1)
    assume(ann1.order >= 1)
    k, perturb = draw(st.integers(1, 3)), draw(st.booleans())
    op = lclm(ann1, _z_minus(k)) if perturb or draw(st.booleans()) else ann1
    assume(annihilator_of_roots(p).order > op.order)
    f = list(newton_root_oracle(p1, TruncSeries([y0]), max(op.order, indicial_bound(op) + 1, k + 1)).coeffs)
    if perturb:
        f[k] += draw(_coef.filter(bool))
    return op, _pinning_prefix(op, f), p


@st.composite
def _approximant_cases(draw):
    """(op, init, P): f = (1 - a z)^(-b/a) against P = y - q(z), q the
    sum of f's first k terms.  Past the terms certify_root reads, only
    its certificate tells f from q, unless f is that polynomial."""
    a, b = draw(st.integers(1, 3)), draw(st.sampled_from([-2, -1, 1, 2]))
    op = DiffOp([Poly([-b]), Poly([1, -a])])
    q = unroll(op, TruncSeries([1]), draw(st.integers(10, 25))).coeffs
    return op, TruncSeries([1]), BivarPoly([Poly([-c for c in q]), Poly([1])])


_EXP_TAYLOR_20 = BivarPoly([Poly([-QQ(1, math.factorial(i)) for i in range(21)]), Poly([1])])
_SQRT_OP = DiffOp([Poly([2]), Poly([1, -4])])  # kills sqrt(1 - 4z)
_SQRT_TIMES_LINE = _bivar_mul(BivarPoly([Poly([-1, 4]), Poly(), Poly([1])]),  # (y^2 - 1 + 4z)
                              BivarPoly([Poly([-3, 1]), Poly([1])]))  # (y + z - 3)
_SQRT_TIMES_LINES = _bivar_mul(_SQRT_TIMES_LINE, BivarPoly([Poly([-2]), Poly([1])]))  # (y - 2)


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(_certify_cases().map(lambda c: c[:3]), _reducible_cases(), _approximant_cases()))
@example(case=(_SQRT_OP, TruncSeries([1]), _SQRT_TIMES_LINE))
@example(case=(lclm(_SQRT_OP, _z_minus(2)), TruncSeries([1, -2, -2]), _SQRT_TIMES_LINES))  # sqrt(1 - 4z)
@example(case=(lclm(_SQRT_OP, _z_minus(2)), TruncSeries([1, -2, 5]), _SQRT_TIMES_LINES))  # plus 7 z^2
@example(case=(DiffOp([Poly([-1]), Poly([1])]), TruncSeries([1]), _EXP_TAYLOR_20))  # exp(z) = O(z^21) off
def test_certify_root_matches_lclm_route(case):
    # right division by op against the zero test of lclm(op, ann): the
    # same answer, or RootNotSeparable on both sides, for drawn P of
    # y-degree 1 to 3, reducible P whose root annihilator outgrows op included,
    # and f that agrees with P's root beyond the terms certify_root reads
    op, init, p = case
    try:
        want = certify_root_lclm_oracle(op, init, p)
    except RootNotSeparable:
        with pytest.raises(RootNotSeparable):
            certify_root(op, init, p)
        return
    assert certify_root(op, init, p) is want
