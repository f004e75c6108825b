"""Planted truths: series whose nature is known independently of the
code under test, so that a verdict that contradicts it is a soundness
bug, not a pinned answer that moved.

- An operator whose solutions are all algebraic (the annihilator of the
  roots of P, optionally lclm'd with (1 - c z) d - a c, which kills
  (1 - c z)^(-a)) is Fuchsian with rational exponents and no logarithm,
  and so is every right factor: ``transcendence_test`` must never
  answer T, whatever the minimizer finds.
- Beukers and Heckman's interlacing criterion: interlacing parameters
  give an algebraic hypergeometric series (never T); non-interlacing
  ones, disjoint modulo Z, a transcendental one (never a certificate
  from ``prove_algebraic``).

``verify_report`` must accept every report.  Completeness is not
checked: FAIL on a transcendental series is allowed.
"""

import functools
import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfinite import (
    BivarPoly,
    DiffOp,
    HypParams,
    Poly,
    TruncSeries,
    annihilator_of_roots,
    hypergeometric_operator,
    indicial_bound,
    interlacing_criterion,
    lclm,
    prove_algebraic,
    transcendence_test,
    verify_report,
)
from dfinite.algebraic import squarefree_in_y
from dfinite.hypergeom import ALGEBRAIC, TRANSCENDENTAL
from dfinite.minimize import MinimizeOptions
from dfinite.rationals import QQ
from dfinite.transcend import VERDICT_T, TranscendOptions
from oracles import newton_root_oracle

FAST = TranscendOptions(minimize=MinimizeOptions(max_degree=8, max_precision=160))


def _pinned(op, terms):
    """The prefix of op's solution ``terms`` that pins it for ``unroll``."""
    return TruncSeries(terms[:max(op.order, indicial_bound(op) + 1)])


def _never_t(op, init):
    rep = transcendence_test(op, init, FAST)
    assert rep.verdict != VERDICT_T, rep.to_json()
    ok, reason = verify_report(op, init, rep.to_json())
    assert ok, reason


@st.composite
def _algebraic_plants(draw):
    """(op, init): init pins f, a simple power-series root of a random
    squarefree P of y-degree 1 to 3, and op kills every root of P."""
    small, nonzero = st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2])
    dy, y0 = draw(st.integers(1, 3)), draw(small)
    rows = [draw(st.lists(small, min_size=1, max_size=5 - dy)) for _ in range(dy + 1)]
    rows[-1][0] = draw(nonzero)
    rows[0][0] = -sum(r[0] * y0 ** j for j, r in enumerate(rows) if j >= 1)  # P(0, y0) = 0
    assume(sum(j * r[0] * y0 ** (j - 1) for j, r in enumerate(rows) if j >= 1) != 0)
    p = BivarPoly([Poly(r) for r in rows])
    assume(p.deg_y == dy and squarefree_in_y(p).deg_y == dy)
    assume(dy > 1 or p.rows[0])  # P = a(z) y: its root 0 has an order-0 annihilator
    op = annihilator_of_roots(p)
    if draw(st.booleans()):
        a = draw(st.sampled_from([QQ(-1, 2), QQ(1, 2), QQ(1, 3), QQ(2, 3), QQ(1), QQ(-2)]))
        c = draw(nonzero)
        op = lclm(op, DiffOp([Poly([-a * c]), Poly([1, -c])]))
    f = newton_root_oracle(p, TruncSeries([QQ(y0)]), max(op.order, indicial_bound(op) + 1))
    return op, _pinned(op, list(f.coeffs))


@settings(max_examples=60, deadline=None)
@given(plant=_algebraic_plants())
def test_algebraic_plants_never_get_t(plant):
    _never_t(*plant)


def _hypergeometric_problem(params):
    op = hypergeometric_operator(params)
    terms = [QQ(1)]
    for n in range(op.order + max(indicial_bound(op), 0)):
        num = QQ(1)
        for a in params.a:
            num *= n + a
        for b in params.full_b():
            num /= n + b
        terms.append(terms[-1] * num)
    return op, _pinned(op, terms)


@functools.lru_cache(maxsize=None)
def _interlacing(k, max_den):
    """Every interlacing parameter set of pFq, p = k, with fractional
    parts of denominator at most max_den: the k upper and k - 1 lower
    values in (0, 1) strictly alternate below the implicit lower 1 at
    every unit multiple, so at the first multiple they are 2k - 1
    distinct values taken in turn, the upper ones first."""
    fracs = sorted({QQ(i, d) for d in range(2, max_den + 1) for i in range(1, d)})
    out = []
    for vals in itertools.combinations(fracs, 2 * k - 1):
        params = HypParams(vals[0::2], vals[1::2])
        if interlacing_criterion(params)[0] == ALGEBRAIC:
            out.append(params)
    return out


@st.composite
def _interlacing_params(draw):
    """An interlacing 2F1 (denominators up to 8) or 3F2 (up to 6), each
    parameter shifted by an integer that keeps the class modulo Z."""
    params = draw(st.sampled_from(_interlacing(2, 8)) | st.sampled_from(_interlacing(3, 6)))
    shift = st.integers(0, 1)
    return HypParams([a - draw(shift) for a in params.a], [b + draw(shift) for b in params.b])


@settings(max_examples=40, deadline=None)
@given(params=_interlacing_params())
def test_interlacing_hypergeometric_never_gets_t(params):
    assert interlacing_criterion(params)[0] == ALGEBRAIC
    _never_t(*_hypergeometric_problem(params))


def _parameters(shifts, apart):
    """Non-integer parameters n/d + s, 0 < n < d <= 8, s in shifts, each
    n/d apart from every parameter in ``apart`` modulo Z."""
    def numerators(d):
        return [n for n in range(1, d) if all((QQ(n, d) - x).denominator > 1 for x in apart)]

    return st.sampled_from([d for d in range(2, 9) if numerators(d)]).flatmap(
        lambda d: st.builds(lambda n, s: QQ(n, d) + s, st.sampled_from(numerators(d)), shifts))


@st.composite
def _applicable_params(draw):
    """k = 2 or 3 upper parameters and k - 1 lower ones, the lower ones
    apart from the upper ones modulo Z, so the criterion applies."""
    k = draw(st.integers(2, 3))
    a = draw(st.lists(_parameters(st.integers(-1, 1), []), min_size=k, max_size=k))
    b = draw(st.lists(_parameters(st.integers(0, 1), a), min_size=k - 1, max_size=k - 1))
    return HypParams(a, b)


@settings(max_examples=40, deadline=None)
@given(params=_applicable_params())
def test_non_interlacing_hypergeometric_gets_no_certificate(params):
    # the criterion applies, so the assume rejects only interlacing sets
    assume(interlacing_criterion(params)[0] == TRANSCENDENTAL)
    assert prove_algebraic(*_hypergeometric_problem(params), 4, 4) is None
