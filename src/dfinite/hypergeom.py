"""Algebraicity of generalized hypergeometric series by interlacing.

The decision uses the fractional-part convention <x> = x - floor(x) for
non-integers and <x> = 1 for integers, and tests, for every unit ell
modulo the common denominator D, whether the scaled parameter multisets
strictly alternate.  Parameters that are not disjoint modulo Z are out
of the criterion's reach and reported as inapplicable, never coerced.
The units are walked in order and the first failure decides; a walk
that would pass ``MAX_UNITS`` units without a failure is refused as an
:class:`~dfinite.errors.InputError` instead of running on with D.  A
single upper parameter a needs no walk: the series is (1 - z)^(-a),
algebraic for every non-integer rational a.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence, Tuple

from .errors import InputError
from .ore import DiffOp, RecOp, rec_to_ode
from .polys import Poly
from .rationals import QQ, Q1, is_integer

ALGEBRAIC = "algebraic"
TRANSCENDENTAL = "transcendental"
INAPPLICABLE = "inapplicable"

# the most units modulo D one call checks (phi(D) of them for an
# algebraic verdict): about 27 s with two upper parameters on one core
# (Python 3.11)
MAX_UNITS = 10 ** 6


@dataclass
class HypParams:
    """Upper parameters a (k of them) and lower parameters b (k-1; the
    trailing 1 is implicit and appended internally)."""

    a: Tuple
    b: Tuple

    def __init__(self, a: Sequence, b: Sequence):
        a = tuple(QQ(x) if isinstance(x, int) else x for x in a)
        b = tuple(QQ(x) if isinstance(x, int) else x for x in b)
        if not a:
            raise InputError("need at least one upper parameter")
        if len(b) != len(a) - 1:
            raise InputError("expected %d lower parameters" % (len(a) - 1))
        for x in b:
            if is_integer(x) and x <= 0:
                raise InputError("lower parameter in -N: series undefined")
        self.a = a
        self.b = b

    def full_b(self) -> Tuple:
        return self.b + (Q1,)


def frac_conv(x) -> object:
    """<x>: fractional part for non-integers, 1 for integers."""
    x = QQ(x) if isinstance(x, int) else x
    if is_integer(x):
        return Q1
    return x - (x.numerator // x.denominator)


def interlaces(u: Sequence, v: Sequence) -> bool:
    """Strict alternation of the <.>-images on (0, 1], either side first."""
    if len(u) != len(v):
        raise InputError("multisets must be equinumerous")
    fu = sorted(frac_conv(x) for x in u)
    fv = sorted(frac_conv(x) for x in v)
    merged = sorted([(x, 0) for x in fu] + [(x, 1) for x in fv])
    for (x1, s1), (x2, s2) in zip(merged, merged[1:]):
        if x1 == x2 or s1 == s2:
            return False
    return True


def interlacing_criterion(params: HypParams) -> Tuple[str, str]:
    """(verdict, reason); verdict in {algebraic, transcendental, inapplicable}.

    Inapplicable when upper and lower parameters are not disjoint mod Z
    (the irreducibility hypothesis of the criterion fails).
    """
    a = params.a
    b = params.full_b()
    for x in a:
        for y in b:
            if is_integer(x - y):
                return INAPPLICABLE, (
                    "parameters %s and %s differ by an integer" % (x, y)
                )
    if len(a) == 1:
        # the series is (1 - z)^(-a), a = N/D not an integer: no walk needed
        x = a[0]
        return ALGEBRAIC, ("one upper parameter: (1 - z)^(%s) is algebraic, "
                           "a root of y^%d = (1 - z)^%d" % (-x, x.denominator, -x.numerator))
    den = lcm(*(x.denominator for x in a + b))
    count = 0
    for ell in range(1, den + 1):
        if gcd(ell, den) != 1:
            continue
        count += 1
        if count > MAX_UNITS:
            raise InputError("more than %d units mod %d to check" % (MAX_UNITS, den))
        if not interlaces([ell * x for x in a], [ell * x for x in b]):
            return TRANSCENDENTAL, "interlacing fails at unit %d mod %d" % (ell, den)
    return ALGEBRAIC, "all %d unit multiples interlace" % count


def hypergeometric_operator(params: HypParams) -> DiffOp:
    """Annihilator of the hypergeometric series with these parameters:
    its coefficients satisfy prod_j (n + b_j) a_(n+1) = prod_i (n + a_i) a_n
    with the implicit b = 1 among the b_j, and ``rec_to_ode`` turns that
    recurrence into prod_j (theta + b_j - 1) - z prod_i (theta + a_i),
    theta = z d/dz, in normal form."""
    upper = prod((Poly([x, 1]) for x in params.a), start=Poly([1]))
    lower = prod((Poly([x, 1]) for x in params.full_b()), start=Poly([1]))
    return rec_to_ode(RecOp([-upper, lower]))
