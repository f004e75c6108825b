import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfinite import ModRing, Poly, split_cases
from dfinite.errors import InputError, ZeroDivisorSplit
from dfinite.rationals import QQ
from oracles import FractionModRing, fraction_gcd


def test_inverse_roundtrip():
    ring = ModRing(Poly([-2, 0, 1]))  # Q[a]/(a^2 - 2)
    x = ring.el([1, 1])  # 1 + a
    inv = ring.inv(x)
    assert x * inv == ring.one()


def test_inverse_random_units():
    rng = random.Random(5)
    ring = ModRing(Poly([-2, 0, 0, 1]))  # a^3 = 2, irreducible
    for _ in range(25):
        x = ring.el([QQ(rng.randint(-5, 5)) for _ in range(3)])
        if not x:
            continue
        assert x * ring.inv(x) == ring.one()


def test_zero_divisor_splits():
    m = Poly([-2, 0, 1]) * Poly([-3, 0, 1])  # (a^2-2)(a^2-3)
    ring = ModRing(m)
    x = ring.el([-2, 0, 1])  # a^2 - 2: a zero divisor
    with pytest.raises(ZeroDivisorSplit) as exc:
        ring.inv(x)
    f, c = exc.value.factor, exc.value.cofactor
    assert f.degree >= 1 and c.degree >= 1
    assert (f * c).monic() == m.monic()


def test_split_cases_driver():
    m = Poly([-2, 0, 1]) * Poly([-3, 0, 1])

    def fn(modulus):
        ring = ModRing(modulus)
        # force a split whenever a^2 - 2 is a zero divisor
        val = ring.el([-2, 0, 1])
        if not val:
            return "vanishes"
        ring.inv(val)
        return "unit"

    results = split_cases(m, fn)
    assert len(results) == 2
    outcomes = {tuple(int(c) for c in mod.coeffs): res for mod, res in results}
    assert outcomes[(-2, 0, 1)] == "vanishes"
    assert outcomes[(-3, 0, 1)] == "unit"


def test_modulus_must_be_squarefree():
    # Q[a]/((a - 1)^2) holds the nilpotent a - 1
    with pytest.raises(InputError, match="squarefree"):
        ModRing(Poly([1, -2, 1]))
    with pytest.raises(InputError, match="squarefree"):
        ModRing(Poly([0, 0, 1]))


def test_mixed_scalar_arithmetic():
    ring = ModRing(Poly([-2, 0, 1]))
    a = ring.gen()
    assert (QQ(1, 2) * a + a) * a == ring.from_rat(QQ(3))
    assert a * a == 2
    assert not (a - a) and a


_rats = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_nonzero_rats = _rats.filter(lambda c: c != 0)
# a branch of the family (1,3) cluster: cleared, its leading coefficient is 16
_FAMILY_BRANCH = Poly([100, QQ(-223, 8), QQ(-1439, 8), QQ(-1255, 16), 1])


def _squarefree(m: Poly) -> bool:
    return fraction_gcd(m, m.derivative()).degree == 0


@st.composite
def _moduli(draw):
    """(modulus, a proper factor or None): (c z + s)^d - p, irreducible by
    Eisenstein, a product of two coprime squarefree factors, or a monic
    modulus with non-integral coefficients."""
    kind = draw(st.sampled_from(["irreducible", "reducible", "non-integral"]))
    if kind == "irreducible":
        d = draw(st.integers(1, 6))
        shift = Poly([draw(_rats), draw(st.one_of(st.just(QQ(1)), _nonzero_rats))])
        return reduce(lambda x, y: x * y, [shift] * d) - draw(st.sampled_from([2, 3, 5])), None
    if kind == "reducible":
        f, g = (Poly(draw(st.lists(_rats, min_size=deg, max_size=deg)) + [draw(_nonzero_rats)])
                for deg in (draw(st.integers(1, 3)), draw(st.integers(1, 3))))
        m = f * g
        assume(_squarefree(m))
        return m, f
    m = Poly(draw(st.lists(_rats, min_size=1, max_size=6)) + [1])
    assume(_squarefree(m) and any(c.denominator > 1 for c in m.coeffs))
    return m, None


_elements = st.lists(_rats, min_size=1, max_size=12)


def _pair(m: Poly, coeffs):
    return ModRing(m).el(coeffs), FractionModRing(m).el(coeffs)


def _inv_outcome(ring, x):
    try:
        inv = ring.inv(x)
        assert (inv * x).coeffs == ring.one().coeffs
        return inv.coeffs
    except ZeroDivisorSplit as e:
        return ("split", e.factor, e.cofactor)
    except ZeroDivisionError:
        return ("zero",)


@settings(max_examples=200, deadline=None)
@given(_moduli(), _elements, _elements, st.integers(-40, 40), _rats, st.booleans())
@example((_FAMILY_BRANCH, None), [QQ(1, 3), 2, QQ(-5, 7), 1], [QQ(-1, 2), 0, 0, 0, 0, 7],
         12, QQ(-16, 3), False)
@example((Poly([-2, 0, 1]) * Poly([-3, 0, 1]), Poly([-2, 0, 1])), [1, 1], [0, 2], 0, QQ(0), True)
@example((Poly([QQ(1, 2), 1]), None), [], [QQ(3, 5)], -1, QQ(1, 6), False)
def test_ring_matches_fraction_oracle(modulus, xs, ys, k, q, plant):
    m, factor = modulus
    if plant and factor is not None:
        # a multiple of a proper factor: a zero divisor unless it is zero
        xs = list((Poly(xs) * factor).coeffs)
    x, ox = _pair(m, xs)
    y, oy = _pair(m, ys)
    assert x.coeffs == ox.coeffs and y.coeffs == oy.coeffs
    for got, want in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox),
                      (x * k, ox * k), (k * x, k * ox), (x * q, ox * q), (x + q, ox + q),
                      (k - x, k - ox), (x - q, ox - q)):
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)
        # lowest terms, the zero element as 0/1
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
    for z, oz in ((x, ox), (y, oy)):
        assert _inv_outcome(z.ring, z) == _inv_outcome(oz.ring, oz)
        assert bool(z) == bool(oz)
        if not z:
            continue
        # the split point: nothing for a unit, (gcd, cofactor) for a zero divisor
        g = fraction_gcd(Poly(oz.coeffs), m)
        if g.degree == 0:
            z.ring.split_on(z.nums)
            # a scalar over a unit, as Jet.divide takes 1 / x
            inv = oz.ring.inv(oz)
            assert (k / z).coeffs == (inv * k).coeffs and (q / z).coeffs == (inv * q).coeffs
            continue
        with pytest.raises(ZeroDivisorSplit) as exc:
            z.ring.split_on(z.nums)
        assert exc.value.factor == g
        assert exc.value.factor * exc.value.cofactor == m.monic()
    # equality and hashing see the residue class, not the representative
    assert (x == y) == (ox == oy)
    same = ModRing(m).el(list((Poly(xs) + m * Poly(ys)).coeffs))
    assert same == x and hash(same) == hash(x)
    assert (x == q) == (ox == q) and (x == k) == (ox == k)
    assert ModRing(m).el([q]) == q and ModRing(m).el([k]) == k
