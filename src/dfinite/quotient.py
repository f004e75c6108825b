"""Arithmetic in Q[a]/(m(a)) for squarefree moduli, with lazy splitting.

The modulus must be squarefree, so the ring has no nilpotents;
``ModRing`` rejects any other modulus with ``InputError``.  Elements are
fraction-free: a tuple of integer numerators over one positive integer
denominator with no factor common to all of them, so equal elements have
equal representations.  The ring keeps the modulus cleared to a
primitive integer polynomial M with leading coefficient L > 0.  A
product is an integer convolution followed by a pseudo-remainder by M
(``polys._zprem``), which multiplies the denominator by the part of L
each reduction step cannot divide out; a sum brings both elements to a
common denominator; a rational scalar multiplies the numerators and the
denominator.  Elements mix with ints and ``Fraction``s under ``+ - * /``
and are true when nonzero, as a ``Fraction`` is, so :mod:`dfinite.local`
runs one analysis on ``Fraction``s at rational points and on ``ModElt``s
on a cluster branch.

Full factorization of the modulus is never computed.  Inversion runs an
extended Euclid over Z[a] on the same ``_zprem`` steps and either
succeeds or discovers a zero divisor.  Every zero divisor, whether from
an inverse or from a caller's test in :mod:`dfinite.local`, goes through
``ModRing.split_on``, which raises a
:class:`~dfinite.errors.ZeroDivisorSplit` carrying a proper
factorization of the modulus; callers rerun the computation on each
factor (dynamic evaluation, ``split_cases``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, List, Sequence, Tuple

from .errors import InputError, ZeroDivisorSplit
from .polys import (Poly, _zclear, _zderiv, _zexquo, _zgcd, _zmul, _zprem, _zprimitive, _zsub,
                    _ztrim, format_poly)
from .rationals import QQ, cleared


class ModRing:
    """Quotient ring Q[a]/(m) with monic squarefree modulus m."""

    def __init__(self, modulus: Poly):
        modulus = modulus.monic()
        if modulus.degree < 1:
            raise InputError("modulus must be nonconstant")
        self.modulus = modulus
        self.deg = modulus.degree
        # the cleared modulus of a monic m is primitive: for each prime of
        # the common denominator, some coefficient keeps its full power
        m = _zclear([modulus])[0]
        if len(_zgcd(m, _zderiv(m))) > 1:
            # Q[a]/(m) would hold nilpotents, and a split would repeat a factor
            raise InputError("modulus must be squarefree")
        self.int_modulus = tuple(m)
        self._zeros = (0,) * (self.deg - 1)

    def from_ints(self, nums: Sequence[int], den: int) -> "ModElt":
        """The element (sum nums[i] a^i) / den, for integer nums of any
        length and a nonzero integer den."""
        if len(nums) != self.deg:
            # s nums = q M + r, so nums / den = r / (s den) mod M
            nums, s = _zprem(nums, self.int_modulus)
            den *= s
        if den < 0:
            den, nums = -den, [-x for x in nums]
        g = gcd(den, *nums)
        if g != 1:
            return ModElt(self, tuple(x // g for x in nums), den // g)
        return ModElt(self, tuple(nums), den)

    def el(self, coeffs: Sequence) -> "ModElt":
        return self.from_ints(*cleared(coeffs))

    def one(self) -> "ModElt":
        return ModElt(self, (1,) + self._zeros, 1)

    def gen(self) -> "ModElt":
        return self.el([0, 1])

    def from_rat(self, q) -> "ModElt":
        return ModElt(self, (q.numerator,) + self._zeros, q.denominator)

    def inv(self, x: "ModElt") -> "ModElt":
        """Inverse mod m; raises ZeroDivisorSplit on a proper gcd.

        Extended Euclid over Z[a] on primitive pseudo-remainders r_i of
        (M, A), A the numerators of x, carrying integer cofactors s_i and
        scalars k_i with k_i r_i = s_i A mod M.  (s_i, k_i) is kept free of
        common factors, so it grows no faster than the rational cofactor.
        """
        a = _ztrim(list(x.nums))
        if not a:
            raise ZeroDivisionError("inverting zero in quotient ring")
        r0, s0, k0 = self.int_modulus, [], 1
        r1 = _zprimitive(a)
        s1, k1 = [1], a[-1] // r1[-1]
        while len(r1) > 1:
            # alpha r0 = q r1 + rem
            rem, alpha = _zprem(r0, r1)
            if not _ztrim(rem):
                break
            q = _zexquo(_zsub([alpha * y for y in r0], rem), r1)
            # k0 k1 rem = (alpha k1 s0 - q k0 s1) A
            s2 = _zsub([alpha * k1 * y for y in s0], [k0 * y for y in _zmul(q, s1)])
            pp = _zprimitive(rem)
            k2 = k0 * k1 * (rem[-1] // pp[-1])
            g = gcd(k2, *s2)
            r0, s0, k0 = r1, s1, k1
            r1, s1, k1 = pp, [y // g for y in s2], k2 // g
        if len(r1) > 1:
            # r1 is the primitive gcd of A and M, a proper factor of M
            self.split_on(r1)
        # r1 = [1]: x^-1 = den / A = den s1 / k1
        return self.from_ints([x.den * y for y in s1], k1)

    def split_on(self, nums: Sequence[int]) -> None:
        """Raise ZeroDivisorSplit(g, m / g), both monic, when the integer
        polynomial nums (nonzero, of degree below m's) shares a
        nonconstant factor g with the modulus; return if they are coprime.

        The one place a zero divisor splits the modulus.
        """
        m = list(self.int_modulus)
        g = _zgcd(_ztrim(list(nums)), m)
        if len(g) > 1:
            raise ZeroDivisorSplit(Poly(g).monic(), Poly(_zexquo(m, g)).monic())

    def __repr__(self):
        return "ModRing(%r)" % (self.modulus,)

    def __eq__(self, other):
        return isinstance(other, ModRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("ModRing", self.modulus))


class ModElt:
    """Element of a ModRing: integer numerators over one positive
    denominator, in lowest terms; supports mixed arithmetic with rationals."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: ModRing, nums: Tuple[int, ...], den: int):
        self.ring = ring
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coordinates in 1, a, ..., a^(deg - 1) as rationals."""
        return tuple(QQ(x, self.den) for x in self.nums)

    def _lift(self, other) -> "ModElt":
        if isinstance(other, ModElt):
            return other
        return self.ring.from_rat(other)

    def __add__(self, other):
        o = self._lift(other)
        da, db = self.den, o.den
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return self.ring.from_ints([x * sa + y * sb for x, y in zip(self.nums, o.nums)], da * sa)

    __radd__ = __add__

    def __neg__(self):
        return ModElt(self.ring, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + self._lift(other)

    def __mul__(self, other):
        if isinstance(other, ModElt):
            return self.ring.from_ints(_zmul(self.nums, other.nums), self.den * other.den)
        if isinstance(other, int):
            # the result is in lowest terms without a gcd over the numerators
            g = gcd(other, self.den)
            k = other // g
            return ModElt(self.ring, tuple(x * k for x in self.nums), self.den // g)
        return self.ring.from_ints([x * other.numerator for x in self.nums],
                                   self.den * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self * self.ring.inv(o)

    def __rtruediv__(self, other):
        return self.ring.inv(self) * other

    def __eq__(self, other):
        if isinstance(other, ModElt):
            return self.ring == other.ring and self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == self._lift(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.nums, self.den))

    def __bool__(self) -> bool:
        return any(self.nums)

    def __repr__(self):
        return "ModElt(%s)" % format_poly(Poly(self.coeffs), "a")


def split_cases(modulus: Poly, fn: Callable[[Poly], object]) -> List[Tuple[Poly, object]]:
    """Run fn on the modulus, splitting on zero divisors until it completes.

    Returns [(branch modulus, result)] sorted by (degree, coefficients) so
    the output is deterministic regardless of split order.
    """
    stack = [modulus.monic()]
    out: List[Tuple[Poly, object]] = []
    while stack:
        m = stack.pop()
        try:
            out.append((m, fn(m)))
        except ZeroDivisorSplit as s:
            stack.append(s.factor.monic())
            stack.append(s.cofactor.monic())
    out.sort(key=lambda t: (t[0].degree, tuple(t[0].coeffs)))
    return out
