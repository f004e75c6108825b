"""Exact rational scalars.

All coefficient arithmetic in the package runs over Q with the stdlib
``Fraction``; the fraction-free kernels in ``polys`` read its integer
``numerator`` and ``denominator`` directly.
"""

from __future__ import annotations

from fractions import Fraction

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
