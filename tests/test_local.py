import hashlib
import json
import math
import random
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfinite import (
    DiffOp,
    ModRing,
    Poly,
    SingularPoint,
    formal_solutions,
    gen_binomial_sum,
    guess_annihilator,
    indicial,
    indicial_branches,
    lclm,
    op_mul,
    singularities,
)
from dfinite.errors import InputError, IrregularPoint, ZeroDivisorSplit
from dfinite.fileio import op_from_json
from dfinite.hypergeom import HypParams, hypergeometric_operator
import dfinite.local as local_mod
from dfinite.local import _algebraic_branch, _local_coeffs, rational_roots_nf
from dfinite.ore import theta_form
from dfinite.polys import _zclear, _zresultant, format_poly
from dfinite.quotient import ModElt
from dfinite.rationals import QQ
from dfinite.transcend import _branch_step
from oracles import (
    FractionModElt,
    FractionModRing,
    _lam_mul,
    _lam_trim,
    apply_local,
    fraction_gcd,
    frobenius_flag_oracle,
    local_coeffs_horner_oracle,
    poly_divmod,
    poly_exact_div,
    rational_roots_nf_oracle,
    rational_roots_oracle,
    resultant_candidates_oracle,
    theta_form_oracle,
    transform_infinity_oracle,
)

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def _pt(v):
    return SingularPoint.rational(QQ(v))


def test_singularities_apery(apery_op):
    pts = singularities(apery_op)
    assert pts[0] == _pt(0)
    assert pts[1] == SingularPoint.algebraic(Poly([1, -34, 1]).monic())
    assert pts[2] == SingularPoint.infinity()


def _singularities_oracle(op):
    """``singularities`` over Q: the squarefree part of the leading
    coefficient by Euclid over Fraction, its rational roots from sympy's
    factorization, each stripped by division over Q."""
    lead = op.leading
    points = [SingularPoint.infinity()]
    if lead.degree > 0:
        sf = poly_exact_div(lead, fraction_gcd(lead, lead.derivative()))
        for root, _ in rational_roots_oracle(sf):
            points.append(SingularPoint.rational(root))
            sf = poly_exact_div(sf, Poly([-root, 1]))
        if sf.degree > 0:
            points.append(SingularPoint.algebraic(sf))
    return sorted(points, key=SingularPoint.sort_key)


@st.composite
def _planted_leads(draw):
    """A leading coefficient with planted rational roots of multiplicity up
    to 4, irreducible z^2 - c and z^4 + q, either of them maybe squared,
    an integer content and a sign; no factor at all gives degree 0."""
    lead = Poly([draw(st.integers(1, 10 ** 6)) * draw(st.sampled_from([-1, 1]))])
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(-60, 60)), draw(st.integers(1, 25))
        for _ in range(draw(st.integers(1, 4))):
            lead = lead * Poly([-a, b])
    nonsquare = st.integers(-40, 40).filter(lambda c: c < 0 or math.isqrt(c) ** 2 != c)
    quadratics = [Poly([-c, 0, 1]) for c in draw(st.lists(nonsquare, max_size=2))]
    quartics = [Poly([q, 0, 0, 0, 1]) for q in draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]),
                                                             max_size=1))]
    for f in quadratics + quartics:
        lead = lead * f * (f if draw(st.booleans()) else 1)
    return lead


@settings(max_examples=120, deadline=None)
@given(_planted_leads(), st.lists(st.integers(-9, 9), max_size=3))
@example(Poly([-12]), [])
@example(Poly([0, 0, 0, -6]) * Poly([-2, 0, 1]) * Poly([-2, 0, 1]) * Poly([1, -2]), [])
def test_singularities_match_q_oracle(lead, low):
    # a unit row 0 keeps the planted lead from being divided by a row gcd
    op = DiffOp([Poly([1]), Poly(low), lead])
    got = singularities(op)
    want = _singularities_oracle(op)
    assert [(p.kind, p.value, p.modulus) for p in got] == [
        (p.kind, p.value, p.modulus) for p in want]
    assert all(p.modulus is None or p.modulus.lc == 1 for p in got)


def test_singularities_trivial():
    assert singularities(DiffOp([Poly(), Poly(), Poly([1])])) == [SingularPoint.infinity()]
    pts = singularities(DiffOp([Poly(), Poly([-1]), Poly([1, -1])]))
    assert pts == [_pt(1), SingularPoint.infinity()]


def test_indicial_apery_origin(apery_op):
    data = indicial(apery_op, _pt(0))
    assert data.monic_q_poly() == Poly([0, 0, 0, 1])
    assert data.degree == 3
    assert data.rational_roots == [(QQ(0), 3)]
    assert not data.splits_distinct_rational


def test_indicial_log_double_root(log_op):
    data = indicial(log_op, _pt(1))
    assert data.monic_q_poly() == Poly([0, 0, 1])
    assert data.rational_roots == [(QQ(0), 2)]


def test_indicial_ordinary_point(apery_op):
    # at a finite ordinary point the indicial is lam(lam-1)...(lam-r+1)
    data = indicial(apery_op, _pt(2))
    expected = Poly([0, 1]) * Poly([-1, 1]) * Poly([-2, 1])
    assert data.monic_q_poly() == expected.monic()


def test_indicial_hypergeometric_exponents():
    # parameters (a, b; a+1) with (a, b) = (1/3, 1/2): local exponents
    # {0, -a} at 0, {0, 1-b} at 1, {a, b} at infinity
    a, b = QQ(1, 3), QQ(1, 2)
    op = hypergeometric_operator(HypParams([a, b], [a + 1]))
    d0 = indicial(op, _pt(0))
    assert sorted(r for r, _ in d0.rational_roots) == sorted([QQ(0), -a])
    d1 = indicial(op, _pt(1))
    assert sorted(r for r, _ in d1.rational_roots) == sorted([QQ(0), 1 - b])
    dinf = indicial(op, SingularPoint.infinity())
    assert sorted(r for r, _ in dinf.rational_roots) == sorted([a, b])


def test_indicial_algebraic_cluster(apery_op):
    pt = SingularPoint.algebraic(Poly([1, -34, 1]))
    branches = indicial_branches(apery_op, pt)
    assert len(branches) == 1
    data = branches[0]
    assert data.degree == 3
    # exponents 0, 1, 1/2 at the quadratic singularities
    assert sorted(r for r, _ in data.rational_roots) == [QQ(0), QQ(1, 2), QQ(1)]
    assert data.splits_distinct_rational


def test_rational_roots_nf_examples():
    # over Q, at rational points and infinity, Poly.rational_roots does the work
    # lam^3
    assert Poly([QQ(0), QQ(0), QQ(0), QQ(1)]).rational_roots() == [(QQ(0), 3)]
    # lam (lam-1) (2lam-1)
    p = Poly([0, 1]) * Poly([-1, 1]) * Poly([-1, 2])
    assert p.rational_roots() == [
        (QQ(0), 1), (QQ(1, 2), 1), (QQ(1), 1)]
    # lam^2 - a over Q[a]/(a^2-2): no rational roots (roots are +-2^(1/4))
    ring = ModRing(Poly([-2, 0, 1]))
    lam_poly = [ring.gen() * (-1), ring.el([0]), ring.one()]
    assert rational_roots_nf(lam_poly, ring) == []


def test_rational_roots_nf_partial_vanishing_splits():
    # root lam = a^2 - 2 ... vanishes only on the a^2-2 branch
    m = Poly([-2, 0, 1]) * Poly([-3, 0, 1])
    ring = ModRing(m)
    # P(lam) = lam - (a^2 - 2): rational root 0 exactly when a^2 = 2
    lam_poly = [ring.el([2, 0, -1]), ring.one()]
    from dfinite.errors import ZeroDivisorSplit

    with pytest.raises(ZeroDivisorSplit):
        rational_roots_nf(lam_poly, ring)


_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def nf_cases(draw):
    """(lambda-polynomial, ring) over Q[a]/(m), deg m in 1..4, m a product
    of distinct random factors.  Planted: rational roots, a root that holds
    only where the first factor f0 vanishes, and content f0."""
    factors = []
    room = 4
    while room and (not factors or draw(st.booleans())):
        f = draw(st.lists(_rats, min_size=2, max_size=room + 1).map(Poly))
        assume(f.degree >= 1)
        factors.append(f)
        room -= f.degree
    m = reduce(lambda a, b: a * b, factors)
    assume(fraction_gcd(m, m.derivative()).degree == 0)
    ring = ModRing(m)
    f0 = ring.el(factors[0].coeffs)
    ind = draw(st.lists(st.lists(_rats, min_size=1, max_size=4).map(ring.el), min_size=1, max_size=3))
    for r in draw(st.lists(_rats, max_size=2)):
        ind = _lam_mul(ind, [ring.from_rat(-r), ring.one()])
    if draw(st.booleans()):
        ind = _lam_mul(ind, [ring.from_rat(-draw(_rats)) - f0, ring.one()])
    if len(factors) > 1 and draw(st.booleans()):
        ind = [c * f0 for c in ind]
    return _lam_trim(ind), ring


def _nf_outcome(fn, ind, ring):
    try:
        return fn(ind, ring)
    except ZeroDivisorSplit as e:
        return ("split", e.factor, e.cofactor)
    except InputError as e:
        return ("error", str(e))


_QUARTIC = ModRing(Poly([-2, 0, 1]) * Poly([-3, 0, 1]))
_CUBIC = ModRing(Poly([-2, 0, 0, 1]))


@settings(max_examples=120, deadline=None)
@given(nf_cases())
@example(([_CUBIC.el([QQ(3, 2), 1])], _CUBIC))  # no lambda
@example(([_CUBIC.gen() * (-1), _CUBIC.el([0]), _CUBIC.el([0]), _CUBIC.one()], _CUBIC))
@example(([_QUARTIC.el([2, 0, -1]), _QUARTIC.one()], _QUARTIC))  # root on a^2 = 2 only
@example(([_QUARTIC.el([-2, 0, 1]), _QUARTIC.el([0, 0, -2, 0])], _QUARTIC))  # content a^2 - 2
def test_rational_roots_nf_matches_q_lambda_oracle(case):
    ind, ring = case
    got = _nf_outcome(rational_roots_nf, ind, ring)
    assert got == _nf_outcome(rational_roots_nf_oracle, ind, ring)
    if isinstance(got, list):
        # the integer candidates are the Q[lambda] ones up to a constant
        cand = Poly(_zresultant(_zclear([Poly(e.coeffs) for e in ind]), _zclear([ring.modulus])[0]))
        assert cand.monic() == resultant_candidates_oracle(ind, ring).monic()


# sha256 prefixes of the monic candidates Res_a(P(a, lam), m(a)) of every
# cluster the local-scan operators meet (whole cluster, then the two
# branches), from the Q[lambda] oracle
_LOCAL_SCAN_CANDIDATES = {
    "family_1_3": ["e0d06cbb608866fe", "3d9b56fa984a5ab2", "8179eba4c312447e"],
    "family_3_1": ["e0d06cbb608866fe", "3d9b56fa984a5ab2", "8179eba4c312447e"],
    "family_2_3": ["ec4606bdda35adbf", "020c8519fe5465cc", "e07b120a7e0f01ca"],
    "diagonal_6i": ["9a4d61175e0754ed", "df7c0e8aa0b44742", "36d30ae7fb42b3cf"],
}

# the degree-15 clusters of the family (1,4) and (3,2) minimal operators,
# which the benchmark leaves out: the sha256 prefixes of their monic
# candidates (whole cluster, then the two branches), taken with sympy's
# subresultant over Z[x, lam]
_HEAVY_CLUSTER_CANDIDATES = ["1bb29fc6328464b3", "2a6fae004ec0d54d", "42d8e54122b62394"]


def _local_scan_cluster(name):
    op = op_from_json(json.loads((BENCH_DATA / (name + ".json")).read_text())["operator"])
    (cluster,) = [pt for pt in singularities(op) if pt.kind == SingularPoint.ALGEBRAIC]
    return op, cluster


@lru_cache(maxsize=None)
def _heavy_cluster(powers):
    op = guess_annihilator(gen_binomial_sum(list(powers), 300), max_order=8)
    (cluster,) = [pt for pt in singularities(op) if pt.modulus is not None and pt.modulus.degree == 15]
    return op, cluster


def _candidate_hashes(monkeypatch, op, cluster):
    """(hashes of the candidates ``indicial_branches`` computes on the
    cluster, hashes of those of each branch it returns built afresh, as
    ``formal_solutions(branch=...)`` does, branches)."""
    seen = []

    def recording(p, m):
        r = _zresultant(p, m)
        monic = Poly(r).monic()
        seen.append(hashlib.sha256(",".join(map(str, monic.coeffs)).encode()).hexdigest()[:16])
        return r

    monkeypatch.setattr(local_mod, "_zresultant", recording)
    branches = indicial_branches(op, cluster)
    whole = list(seen)
    seen.clear()
    for b in branches:
        _algebraic_branch(op, b.branch)
    return whole, seen, branches


def test_local_scan_candidates_pinned(monkeypatch):
    for name, pins in _LOCAL_SCAN_CANDIDATES.items():
        whole, fresh, _ = _candidate_hashes(monkeypatch, *_local_scan_cluster(name))
        assert whole[0] == pins[0], name
        # split_cases builds the cofactor first; indicial_branches sorts
        assert sorted(fresh) == sorted(pins[1:]), name


@pytest.mark.parametrize("powers", [(1, 4), (3, 2)])
def test_heavy_cluster_branches_pinned(monkeypatch, powers):
    whole, fresh, branches = _candidate_hashes(monkeypatch, *_heavy_cluster(powers))
    assert [(b.point.modulus.degree, b.degree, len(b.rational_roots)) for b in branches] == [
        (5, 6, 5), (10, 6, 6)]
    assert whole[0] == _HEAVY_CLUSTER_CANDIDATES[0]
    assert sorted(fresh) == sorted(_HEAVY_CLUSTER_CANDIDATES[1:])


@pytest.mark.parametrize("cluster", sorted(_LOCAL_SCAN_CANDIDATES) + [(1, 4), (3, 2)],
                         ids=lambda c: c if isinstance(c, str) else "heavy_%d_%d" % c)
def test_split_branches_inherit_the_cluster_resultant(monkeypatch, cluster):
    # each of these clusters splits in two at the exact root check; the
    # branches reuse the cluster's candidates, so one resultant is taken
    op, pt = _local_scan_cluster(cluster) if isinstance(cluster, str) else _heavy_cluster(cluster)
    whole, _, branches = _candidate_hashes(monkeypatch, op, pt)
    assert len(branches) == 2
    assert len(whole) == 1


def test_cluster_resultant_evaluates_without_the_content(monkeypatch):
    # diagonal 6(i)'s degree-13 cluster has an indicial polynomial of
    # lambda-degree 3 with a content of degree 2 in lambda: its norm is
    # taken at 13 * (3 - 2) + 2 points, not 13 * 3 + 2
    import sympy

    calls = []
    true_resultant = sympy.resultant

    def counting(f, g):
        calls.append(f)
        return true_resultant(f, g)

    op, cluster = _local_scan_cluster("diagonal_6i")
    assert cluster.modulus.degree == 13
    monkeypatch.setattr(sympy, "resultant", counting)
    assert len(indicial_branches(op, cluster)) == 2
    assert len(calls) == 15


def _exponent_op(m1, m2, c1, c2):
    """m d - (c1 m1' m2 + c2 m1 m2'), m = m1 m2: it kills m1^c1 m2^c2, whose
    exponent is c1 at the roots of m1 and c2 at those of m2."""
    return DiffOp([(m1.derivative() * m2).scale(-c1) - (m1 * m2.derivative()).scale(c2), m1 * m2])


@st.composite
def _eisenstein(draw):
    """(a z + b)^d - p, irreducible of degree d >= 2 by Eisenstein."""
    lin = Poly([draw(st.integers(-3, 3)), draw(st.sampled_from([-2, -1, 1, 2]))])
    return reduce(lambda x, y: x * y, [lin] * draw(st.integers(2, 3))) - draw(st.sampled_from([2, 3, 5]))


_exponents = st.builds(QQ, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def _two_exponent_ops(draw):
    """(op, splits): an operator of :func:`_exponent_op`, or an lclm of two,
    and whether its cluster must split at the root check."""
    def one():
        m1, m2 = draw(_eisenstein()), draw(_eisenstein())
        assume(fraction_gcd(m1, m2).degree == 0)
        c1 = draw(_exponents)
        return _exponent_op(m1, m2, c1, draw(_exponents.filter(lambda c: c != c1)))

    if draw(st.booleans()):
        return one(), True
    return lclm(one(), one()), False


@settings(max_examples=25, deadline=None)
@given(_two_exponent_ops())
@example((_exponent_op(Poly([-2, 0, 1]), Poly([-3, 0, 1]), QQ(1, 2), QQ(-1)), True))
def test_inherited_candidates_give_the_fresh_branch(case):
    op, splits = case
    for pt in singularities(op):
        if pt.kind != SingularPoint.ALGEBRAIC:
            continue
        with mock.patch.object(local_mod, "_zresultant", wraps=_zresultant) as spy:
            branches = indicial_branches(op, pt)
        if splits:
            assert len(branches) == 2 and spy.call_count == 1
        for b in branches:
            fresh = _algebraic_branch(op, b.branch)
            assert (b.degree, b.rational_roots, b.theta) == (fresh.degree, fresh.rational_roots, fresh.theta)
            for frobenius in (False, True):
                assert _branch_step(op, b, frobenius) == _branch_step(op, fresh, frobenius)


@st.composite
def moduli(draw):
    """Squarefree modulus of degree 1..5: irreducible (a z + b)^d - p by
    Eisenstein, or a product of at least two random factors."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 5))
        a = draw(_rats.filter(lambda x: x != 0))
        m = reduce(lambda x, y: x * y, [Poly([draw(_rats), a])] * d)
        return m - draw(st.sampled_from([2, 3, 5]))
    factors = []
    room = 5
    while room and (len(factors) < 2 or draw(st.booleans())):
        deg = draw(st.integers(1, min(room, 3)))
        f = Poly(draw(st.lists(_rats, min_size=deg, max_size=deg)) + [draw(_rats.filter(lambda x: x != 0))])
        factors.append(f)
        room -= deg
    m = reduce(lambda x, y: x * y, factors)
    # ModRing rejects a repeated factor
    assume(fraction_gcd(m, m.derivative()).degree == 0)
    return m


# zero, constant and high-degree coefficients
_coeff_polys = st.one_of(
    st.just(Poly()),
    _rats.map(lambda c: Poly([c])),
    st.lists(_rats, min_size=2, max_size=13).map(Poly),
)


def _ops(max_order):
    return st.lists(_coeff_polys, min_size=1, max_size=max_order + 1).map(DiffOp)


def _typed(x):
    """Value together with the types of its rationals, for exact comparison."""
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    if isinstance(x, (ModElt, FractionModElt)):
        return ("ModElt", x.ring.modulus, [(type(c), c) for c in x.coeffs])
    return (type(x), x)


_Q5 = Poly([-2, 0, 0, 0, 0, 1])


@settings(max_examples=80, deadline=None)
@given(moduli(), _ops(4))
@example(_Q5, DiffOp([Poly(), Poly(list(range(1, 14))), Poly([3])]))
@example(Poly([1, 1]) * Poly([-2, 0, 1]) * Poly([3, 0, 1]), DiffOp([Poly([QQ(1, 2)]), Poly(), Poly([1, 0, 0, 0, 0, 0, 7])]))
def test_local_coeffs_algebraic_matches_horner_oracle(m, op):
    pt = SingularPoint.algebraic(m)
    got = _local_coeffs(op, pt, ModRing(m))
    assert _typed(got) == _typed(local_coeffs_horner_oracle(op, FractionModRing(m)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_rats, st.just("infinity"), moduli()), _ops(4))
@example(_Q5, DiffOp([Poly([0, 0, 1]), Poly(list(range(1, 14))), Poly([1, -3, 0, 0, 0, 2])]))
@example("infinity", DiffOp([Poly([1]), Poly([0, 1]), Poly([0, 0, 1]), Poly([0, 0, 0, 1])]))
@example(QQ(0), DiffOp([Poly(), Poly(), Poly(), Poly([0, 0, 0, 1])]))
def test_theta_form_matches_falling_factorial_oracle(where, op):
    assume(not op.is_zero())
    if where == "infinity":
        # the rows at infinity are reflected from the rows at 0, not built
        # from coefficients at infinity
        assert _typed(indicial_branches(op, SingularPoint.infinity())[0].theta) == _typed(
            _theta_at_infinity_oracle(op))
        return
    if isinstance(where, Poly):
        pt, ring = SingularPoint.algebraic(where), ModRing(where)
    else:
        pt, ring = SingularPoint.rational(where), None
    coeffs = _local_coeffs(op, pt, ring)
    assert _typed(theta_form(coeffs)) == _typed(theta_form_oracle(coeffs))


def _theta_at_infinity_oracle(op):
    """The theta rows of the operator in w for z = 1/w, multiplied out by
    operator products and put in normal form, as ``Fraction``s."""
    rows = transform_infinity_oracle(op).rows
    return theta_form_oracle([[QQ(c) for c in row] for row in rows])[1]


@settings(max_examples=150, deadline=None)
@given(_ops(4))
# odd order, top row with a negative lowest coefficient
@example(DiffOp([Poly([0, 0, 1]), Poly(), Poly([0, QQ(1, 3)]), Poly([QQ(-5, 2), 0, 0, 1])]))
# even order, top row with a zero constant term and a negative lowest coefficient
@example(DiffOp([Poly([1]), Poly([0, 1]), Poly([0, 0, -2, 1])]))
# even order, top row with a positive lowest coefficient
@example(DiffOp([Poly([0, 3]), Poly([1, 1]), Poly([0, 4, 0, -1])]))
# order 0
@example(DiffOp([Poly([0, 0, 3, -1])]))
def test_theta_rows_at_infinity_match_the_substitution_oracle(op):
    # sign included: the reflected rows at 0 against the operator in w
    assume(not op.is_zero())
    data = indicial_branches(op, SingularPoint.infinity())[0]
    assert _typed(data.theta) == _typed(_theta_at_infinity_oracle(op))
    assert data.degree == len(data.theta[0]) - 1


def test_formal_solutions_log_relaxed(log_op):
    basis = formal_solutions(log_op, _pt(1), 4, mode="full")
    assert basis.has_logarithms
    assert len(basis.solutions) == 2
    exps = sorted(s.leading() for s in basis.solutions)
    assert exps[0] == (QQ(0), 0)  # the constant
    assert exps[1] == (QQ(0), 1)  # log(z - 1) itself


def test_formal_solutions_d2():
    op = DiffOp([Poly(), Poly(), Poly([1])])
    basis = formal_solutions(op, _pt(0), 3, mode="full")
    assert not basis.has_logarithms
    assert sorted(s.leading() for s in basis.solutions) == [(QQ(0), 0), (QQ(1), 0)]


def test_formal_solutions_z_z2():
    op = DiffOp([Poly([2]), Poly([0, -2]), Poly([0, 0, 1])])
    basis = formal_solutions(op, _pt(0), 2, mode="full")
    assert not basis.has_logarithms
    assert sorted(s.leading() for s in basis.solutions) == [(QQ(1), 0), (QQ(2), 0)]


def test_formal_solutions_forced_log(log_at_zero_op):
    basis = formal_solutions(log_at_zero_op, _pt(0), 3, mode="full")
    assert basis.has_logarithms
    flag = formal_solutions(log_at_zero_op, _pt(0), 3, mode="flag")
    assert flag.has_logarithms
    assert flag.obstructions == [(QQ(1), 1)]


def test_formal_solutions_annihilate(log_at_zero_op):
    basis = formal_solutions(log_at_zero_op, _pt(0), 5, mode="full")
    loc = _local_coeffs(log_at_zero_op, _pt(0), None)
    for sol in basis.solutions:
        assert apply_local(loc, sol).is_zero()


def test_formal_solutions_cluster_log(cluster_log_op):
    pt = SingularPoint.algebraic(Poly([-2, 0, 1]))
    basis = formal_solutions(cluster_log_op, pt, 2, mode="flag")
    assert basis.has_logarithms
    full = formal_solutions(cluster_log_op, pt, 4, mode="full")
    assert full.has_logarithms
    ring = ModRing(Poly([-2, 0, 1]).monic())
    loc = _local_coeffs(cluster_log_op, SingularPoint.algebraic(Poly([-2, 0, 1])), ring)
    for sol in full.solutions:
        assert apply_local(loc, sol).is_zero()


def test_formal_solutions_builds_theta_form_once(monkeypatch, cluster_log_op):
    # the Frobenius step reuses the theta rows of the indicial step
    calls = []
    real = local_mod.theta_form
    monkeypatch.setattr(local_mod, "theta_form", lambda *a: calls.append(1) or real(*a))
    m = Poly([-2, 0, 1]).monic()
    for point, branch in ((SingularPoint.algebraic(m), None), (SingularPoint.algebraic(m), m),
                          (_pt(0), None)):
        calls.clear()
        formal_solutions(cluster_log_op, point, 4, mode="full", branch=branch,
                         allow_irregular=True)
        assert len(calls) == 1


def test_formal_solutions_per_branch_is_frobenius_on_branch_data(cluster_log_op):
    # the cluster z^4 - 5z^2 + 6 splits into z^2 - 3 and z^2 - 2 (the log)
    cluster = SingularPoint.algebraic(Poly([6, 0, -5, 0, 1]))
    branches = indicial_branches(cluster_log_op, cluster)
    assert [b.branch for b in branches] == [Poly([-3, 0, 1]), Poly([-2, 0, 1])]
    for data in branches:
        for mode in ("flag", "full"):
            basis = formal_solutions(cluster_log_op, cluster, 3, mode, branch=data.branch)
            sols, has_logs, obstructions = local_mod._frobenius(data, 3, mode)
            assert [(s.exponent, s.layers) for s in basis.solutions] == [
                (s.exponent, s.layers) for s in sols]
            assert (basis.has_logarithms, basis.obstructions) == (has_logs, obstructions)
            assert has_logs == (data.branch == Poly([-2, 0, 1]))


def _local_coeffs_at(op, data):
    """Local coefficients of op at the branch's point; at infinity, those
    of the operator in w = 1/z at 0."""
    if data.point.kind == SingularPoint.INFINITY:
        return _local_coeffs(transform_infinity_oracle(op), _pt(0), None)
    return _local_coeffs(op, data.point, data.ring)


# m^2 d^2 + m m' d + m at the roots of m = z^2 - 2: exponent 0, double
_DOUBLE_AT_CLUSTER = DiffOp([Poly([-2, 0, 1]), Poly([0, -4, 0, 2]), Poly([4, 0, -4, 0, 1])])
# 4z^2 d^2 + (z^2 - 4z) d + z + 3: exponents 1/2 and 3/2, q_1 = lam + 1
_HALVES_AT_ZERO = DiffOp([Poly([3, 1]), Poly([0, -4, 1]), Poly([0, 0, 4])])
# 2m d^2 + m' d + z - 1 at the roots of m = z^2 - 3: exponents 0 and 1/2
_HALF_AT_CLUSTER = DiffOp([Poly([-1, 1]), Poly([0, 2]), Poly([-6, 0, 2])])


@settings(max_examples=120, deadline=None)
@given(st.one_of(_rats, st.just("infinity"), moduli()), _ops(4))
@example(Poly([-2, 0, 1]), _DOUBLE_AT_CLUSTER)
@example(QQ(0), _HALVES_AT_ZERO)
@example(Poly([-3, 0, 1]), _HALF_AT_CLUSTER)
@example(QQ(0), DiffOp([Poly([0, 1]), Poly([0, 1]), Poly([0, 0, 1])]))
def test_flag_mode_matches_per_step_division(where, op):
    # flag mode divides each step by q_0 = lc prod (lam - r)^(m_r) through
    # one inverse of lc; the oracle evaluates q_0 by Horner and divides
    assume(not op.is_zero())
    if where == "infinity":
        point = SingularPoint.infinity()
    elif isinstance(where, Poly):
        point = SingularPoint.algebraic(where)
    else:
        point = _pt(where)
    for data in indicial_branches(op, point):
        if sum(m for _, m in data.rational_roots) < data.degree:
            continue  # Frobenius does not run
        sols, has_logs, obstructions = local_mod._frobenius(data, 3, "flag")
        if data.ring is None:
            rows, one = data.theta, QQ(1)
        else:
            ring = FractionModRing(data.branch)
            rows, one = [[ring.el(e.coeffs) for e in q] for q in data.theta], ring.one()
        loc = _local_coeffs_at(op, data)
        for sol in sols:
            (coeffs,) = sol.layers
            assert len(coeffs) >= 5
            assert _typed(coeffs) == _typed(frobenius_flag_oracle(rows, one, sol.exponent, len(coeffs)))
            assert apply_local(loc, sol).is_zero()
        for mu, m in obstructions:
            if m:
                assert frobenius_flag_oracle(rows, one, mu, m + 1) is None
        assert has_logs == bool(obstructions)


def test_flag_mode_examples():
    # the double root divides by m^2 at step m; the halves step at points
    # with denominator 2 and meet a resonance between 1/2 and 3/2
    (double,) = indicial_branches(_DOUBLE_AT_CLUSTER, SingularPoint.algebraic(Poly([-2, 0, 1])))
    assert double.rational_roots == [(QQ(0), 2)]
    sols, has_logs, obstructions = local_mod._frobenius(double, 3, "flag")
    assert has_logs and obstructions == [(QQ(0), 0)] and [s.exponent for s in sols] == [QQ(0)]
    halves = indicial(_HALVES_AT_ZERO, _pt(0))
    assert halves.rational_roots == [(QQ(1, 2), 1), (QQ(3, 2), 1)]
    sols, has_logs, obstructions = local_mod._frobenius(halves, 3, "flag")
    assert has_logs and obstructions == [(QQ(1, 2), 1)] and [s.exponent for s in sols] == [QQ(3, 2)]
    # c_1 = -q_1(3/2) / q_0(5/2) = -(5/2) / (4 (5/2 - 1/2)(5/2 - 3/2))
    assert sols[0].layers[0][:2] == [1, QQ(-5, 16)]
    (half,) = indicial_branches(_HALF_AT_CLUSTER, SingularPoint.algebraic(Poly([-3, 0, 1])))
    assert half.rational_roots == [(QQ(0), 1), (QQ(1, 2), 1)]
    sols, has_logs, _ = local_mod._frobenius(half, 3, "flag")
    assert not has_logs and [s.exponent for s in sols] == [QQ(0), QQ(1, 2)]


def test_formal_solutions_branch_must_divide_the_modulus():
    op = op_from_json(json.loads((BENCH_DATA / "family_1_3.json").read_text())["operator"])
    cluster = next(pt for pt in singularities(op) if pt.kind == SingularPoint.ALGEBRAIC)
    assert cluster.modulus.degree == 8
    not_a_factor = Poly([-7, 0, 1])
    factor = Poly([100, QQ(-223, 8), QQ(-1439, 8), QQ(-1255, 16), 1])
    # of the factor's degree, but its remainder from the modulus is nonzero
    same_degree = factor + 1
    assert not poly_divmod(cluster.modulus, same_degree)[1].is_zero()
    for point, branch in ((cluster, not_a_factor), (cluster, Poly([3])), (cluster, Poly()),
                          (cluster, same_degree), (_pt(0), not_a_factor),
                          (SingularPoint.infinity(), not_a_factor)):
        with pytest.raises(InputError):
            formal_solutions(op, point, 2, mode="flag", branch=branch)
    # a factor, given up to a constant, is its monic self
    basis = formal_solutions(op, cluster, 2, mode="flag", branch=factor.scale(QQ(-3)))
    assert basis.branch == factor
    assert basis.point == SingularPoint.algebraic(factor)


def test_formal_solutions_branch_that_splits_is_an_input_error():
    # the whole degree-13 modulus of diagonal 6(i)'s cluster is a factor of
    # itself, but its analysis splits: the caller must pass each branch
    op, cluster = _local_scan_cluster("diagonal_6i")
    assert cluster.modulus.degree == 13
    with pytest.raises(InputError) as err:
        formal_solutions(op, cluster, 2, mode="flag", branch=cluster.modulus)
    assert format_poly(cluster.modulus) in str(err.value)
    # nor is there one basis for the cluster without a branch
    with pytest.raises(InputError):
        formal_solutions(op, cluster, 2, mode="flag")
    for b in indicial_branches(op, cluster):
        assert formal_solutions(op, cluster, 2, mode="flag", branch=b.branch).branch == b.branch


def test_formal_solutions_unknown_mode_is_an_input_error(cluster_log_op):
    # a typo must not select the costly full construction
    for mode in ("Flag", "", "logs"):
        with pytest.raises(InputError):
            formal_solutions(cluster_log_op, _pt(0), 2, mode=mode)


@pytest.mark.parametrize("mode", ["flag", "full"])
def test_formal_solutions_coefficient_types(cluster_log_op, mode):
    # Fractions at a rational point and at infinity; elements of the
    # branch's ring on a whole cluster and on a branch split off by the
    # exact root check (one resultant for the cluster), zeros included
    m = Poly([-2, 0, 1])
    op, cluster = _local_scan_cluster("family_2_3")
    with mock.patch.object(local_mod, "_zresultant", wraps=_zresultant) as spy:
        (split_off,) = [b.branch for b in indicial_branches(op, cluster) if b.branch.degree == 4]
    assert spy.call_count == 1
    cases = [(cluster_log_op, _pt(0), None, None),
             (cluster_log_op, SingularPoint.infinity(), None, None),
             (cluster_log_op, SingularPoint.algebraic(m), None, m),
             (op, cluster, split_off, split_off)]
    for op_, point, branch, modulus in cases:
        basis = formal_solutions(op_, point, 4, mode, branch=branch)
        entries = [c for s in basis.solutions for layer in s.layers for c in layer]
        if modulus is None:
            assert {t[0] for t in _typed(entries)} == {Fraction}
        else:
            assert all(type(c) is ModElt for c in entries)
            assert {t[:2] for t in _typed(entries)} == {("ModElt", modulus)}
            assert {t for e in _typed(entries) for t, _ in e[2]} == {Fraction}
        assert any(not c for c in entries), (point, mode)


def test_formal_solutions_irregular_rejected():
    # D^2 + z has an irregular point at infinity
    op = DiffOp([Poly([0, 1]), Poly(), Poly([1])])
    data = indicial(op, SingularPoint.infinity())
    assert data.degree < op.order
    with pytest.raises(IrregularPoint):
        formal_solutions(op, SingularPoint.infinity(), 3)


def test_transform_infinity_exponents():
    # solutions {1, z}: exponents {0, -1} at infinity
    op = DiffOp([Poly(), Poly(), Poly([1])])
    data = indicial(op, SingularPoint.infinity())
    assert sorted(r for r, _ in data.rational_roots) == [QQ(-1), QQ(0)]


def test_product_exponent_appears():
    # for L = A o (zD - k), the exponent k shows up at the origin
    rng = random.Random(23)
    for _ in range(10):
        k = rng.randint(0, 4)
        a = DiffOp([
            Poly([rng.randint(-3, 3) for _ in range(2)]),
            Poly([rng.randint(-3, 3) for _ in range(2)] or [1]),
        ])
        if a.is_zero() or a.order < 1:
            continue
        prod = op_mul(a, DiffOp([Poly([-k]), Poly([0, 1])]))
        data = indicial(prod, _pt(0))
        assert any(r == k for r, _ in data.rational_roots)


def test_frobenius_count_matches_order():
    # distinct rational exponents: number of solutions equals the order
    l1 = DiffOp([Poly([-1]), Poly([0, 2])])  # z D - 1/2
    l2 = DiffOp([Poly([-2]), Poly([0, 1])])  # z D - 2
    op = lclm(l1, l2)
    basis = formal_solutions(op, _pt(0), 3, mode="full")
    assert len(basis.solutions) == op.order == 2
    assert not basis.has_logarithms


def _fuchs_sum(op):
    """sum_p w_p (e_p,1 + ... + e_p,r - r(r-1)/2) over the singular points
    and infinity, with w_p = deg(branch) on a cluster branch and 1
    elsewhere, exponents counted with multiplicity; None when a point is
    irregular or has an exponent that is not rational."""
    r = op.order
    total = QQ(0)
    for pt in singularities(op):
        for data in indicial_branches(op, pt):
            if data.degree != r or sum(m for _, m in data.rational_roots) != r:
                return None
            w = 1 if data.branch is None else data.branch.degree
            total += w * (sum(e * m for e, m in data.rational_roots) - QQ(r * (r - 1), 2))
    return total


@pytest.mark.parametrize("name", ["apery", "family_1_3", "family_3_1", "family_2_3", "diagonal_6i"])
def test_fuchs_relation_bench_operators(name):
    # Fuchsian with rational exponents everywhere, so the Fuchs relation
    # checks the exponents at every point, infinity and clusters included
    op = op_from_json(json.loads((BENCH_DATA / (name + ".json")).read_text())["operator"])
    r = op.order
    assert _fuchs_sum(op) == -r * (r - 1)


_hyp_param = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_hyp_lower = _hyp_param.filter(lambda b: b > 0 or b.denominator > 1)  # not in -N
_hyp_2f1 = st.tuples(_hyp_param, _hyp_param, _hyp_lower).map(
    lambda t: hypergeometric_operator(HypParams([t[0], t[1]], [t[2]])))


@settings(max_examples=25, deadline=None)
@given(a=_hyp_2f1, b=st.none() | _hyp_2f1)
def test_fuchs_relation_hypergeometric(a, b):
    # a 2F1 operator, or the lclm of two: where every point is regular
    # with rational exponents, the weighted exponent sums obey Fuchs
    op = a if b is None else lclm(a, b)
    total = _fuchs_sum(op)
    assume(total is not None)
    r = op.order
    assert total == -r * (r - 1)
