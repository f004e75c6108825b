"""Arithmetic in Q[a]/(m(a)) for squarefree moduli, with lazy splitting.

Full factorization of the modulus is never computed.  Inversion either
succeeds or discovers a zero divisor, in which case a
:class:`~dfinite.errors.ZeroDivisorSplit` carrying a proper factorization
of the modulus is raised; drivers rerun the computation on each factor
(dynamic evaluation).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .errors import InputError, ZeroDivisorSplit
from .polys import Poly
from .rationals import QQ, Q0, Q1


class DomainQQ:
    """The rational field with the small domain protocol used by local analysis."""

    is_quotient = False

    def zero(self):
        return Q0

    def one(self):
        return Q1

    def from_rat(self, q):
        return q

    def is_zero(self, x) -> bool:
        return x == 0

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverting zero")
        return 1 / x

    def __repr__(self):
        return "QQ"


QQ_DOMAIN = DomainQQ()


class ModRing:
    """Quotient ring Q[a]/(m) with monic squarefree modulus m."""

    is_quotient = True

    def __init__(self, modulus: Poly):
        modulus = modulus.monic()
        if modulus.degree < 1:
            raise InputError("modulus must be nonconstant")
        self.modulus = modulus
        self.deg = modulus.degree

    def el(self, coeffs: Sequence) -> "ModElt":
        cs = [QQ(c) if isinstance(c, int) else c for c in coeffs]
        if len(cs) > self.deg:
            cs = list(Poly(cs).__mod__(self.modulus).coeffs)
        cs = cs + [Q0] * (self.deg - len(cs))
        return ModElt(self, tuple(cs[: self.deg]))

    def zero(self) -> "ModElt":
        return self.el([])

    def one(self) -> "ModElt":
        return self.el([Q1])

    def gen(self) -> "ModElt":
        return self.el([Q0, Q1])

    def from_rat(self, q) -> "ModElt":
        return self.el([q])

    def is_zero(self, x: "ModElt") -> bool:
        return all(c == 0 for c in x.coeffs)

    def inv(self, x: "ModElt") -> "ModElt":
        """Inverse mod m; raises ZeroDivisorSplit on a proper gcd."""
        p = Poly(x.coeffs)
        if p.is_zero():
            raise ZeroDivisionError("inverting zero in quotient ring")
        g, u = _half_xgcd(p, self.modulus)
        if g.degree == 0:
            return self.el((u.scale(1 / g.coeffs[0])).coeffs)
        if g.degree >= self.deg:
            raise ZeroDivisionError("inverting zero in quotient ring")
        g = g.monic()
        raise ZeroDivisorSplit(g, self.modulus.exact_div(g))

    def __repr__(self):
        return "ModRing(%r)" % (self.modulus,)

    def __eq__(self, other):
        return isinstance(other, ModRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("ModRing", self.modulus))


class ModElt:
    """Element of a ModRing; supports mixed arithmetic with rationals."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ModRing, coeffs: Tuple):
        self.ring = ring
        self.coeffs = coeffs

    def _lift(self, other) -> "ModElt":
        if isinstance(other, ModElt):
            return other
        return self.ring.from_rat(QQ(other) if isinstance(other, int) else other)

    def __add__(self, other):
        o = self._lift(other)
        return ModElt(self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ModElt(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + self._lift(other)

    def __mul__(self, other):
        if not isinstance(other, ModElt):
            c = QQ(other) if isinstance(other, int) else other
            return ModElt(self.ring, tuple(a * c for a in self.coeffs))
        prod = Poly(self.coeffs) * Poly(other.coeffs)
        rem = prod % self.ring.modulus
        cs = list(rem.coeffs) + [Q0] * (self.ring.deg - len(rem.coeffs))
        return ModElt(self.ring, tuple(cs[: self.ring.deg]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self * self.ring.inv(o)

    def __eq__(self, other):
        if isinstance(other, ModElt):
            return self.ring == other.ring and self.coeffs == other.coeffs
        if isinstance(other, int) or other.__class__.__name__ in ("Fraction", "mpq"):
            return self == self._lift(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        from .polys import format_poly

        return "ModElt(%s)" % format_poly(Poly(self.coeffs), "a")


def _half_xgcd(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """(g, u) with u*a = g mod b, g = gcd(a, b) up to a scalar."""
    r0, r1 = a, b
    u0, u1 = Poly([Q1]), Poly()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    return r0, u0


def gcd_with_modulus(x: ModElt, m: Poly) -> Poly:
    """Monic gcd of a lifted element with the modulus (1 if x is a unit)."""
    p = Poly(x.coeffs)
    if p.is_zero():
        return m.monic()
    return p.gcd(m)


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
