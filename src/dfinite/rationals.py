"""Exact rational scalars.

Coefficients enter and leave the package as stdlib ``Fraction``s.  The
hot paths do not compute with them: the Z[z] kernels in ``polys`` (the
gcd, the Taylor shift, right division, unrolling) and the quotient ring
of ``quotient`` (integer numerators over one denominator) take their
integers from ``cleared``, which brings a rational sequence to its least
common denominator, and build a ``Fraction`` only for the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .errors import InputError


def QQ(num=0, den=1):
    return Fraction(num, den)


Q0 = QQ(0)
Q1 = QQ(1)


def rat_from_str(s: str):
    """Parse "p/q" or "p" into an exact rational; anything else, a zero
    denominator included, is an :class:`~dfinite.errors.InputError`."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        try:
            return QQ(int(num), int(den) if slash else 1)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError("malformed rational %r" % (s,))


def rat_to_str(x) -> str:
    """Inverse of :func:`rat_from_str`; integers print without "/1"."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def is_integer(x) -> bool:
    return x.denominator == 1


def cleared(xs: Sequence) -> Tuple[List[int], int]:
    """(D * x for each x, D): D is the least common denominator of the
    rationals (or integers) xs, so the first part is integral."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den
