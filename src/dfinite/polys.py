"""Dense univariate polynomials over Q and their Z[z] kernels.

Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple.  ``Poly`` is the Q[z] value type: ring
operations, evaluation, derivative, scaling and rational roots, but no
division.  Every polynomial division runs over Z on integer lists:
rational functions have no type of their own, and code over Q(z) keeps
integer numerators over a Z[z] denominator and computes with the
``_z*`` kernels below.  ``_zexquo`` is the exact division, and
``_zprem`` the only gcd-scaled pseudo-division: it returns the remainder
and the scale, which ``_zgcd`` and the quotient ring's products and
inverses (``quotient``) read; an inverse gets each Euclid quotient by
one exact division.  Rational roots come from
``_zrational_roots`` by p-adic lifting (Loos 1983): roots of the
squarefree part modulo a small prime, lifted past the rational-root
bound, rebuilt by rational reconstruction and checked exactly.  The one
resultant, ``_zresultant``, takes integer inputs and computes
Res_x(P(x, lam), m(x)) over Z: the content h(lam) of P's x-coefficients
is divided out and comes back as h^deg(m), and the rest is evaluated
and interpolated, sympy's univariate resultant at integer points lam,
then exact Newton interpolation.  That univariate resultant is the one
use of sympy; it is imported there, never at module import.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rationals import QQ, Q0, Q1, cleared, rat_to_str

_SYMPY_X = None


def _sympy_x():
    """The sympy symbol x, made on first use."""
    global _SYMPY_X
    if _SYMPY_X is None:
        import sympy

        _SYMPY_X = sympy.Symbol("x")
    return _SYMPY_X


class Poly:
    """Univariate polynomial over Q, dense, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if not isinstance(c, int) else QQ(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly([QQ(c) if isinstance(c, int) else c])

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return Poly([Q0] * power + [Q1])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Q0

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Q0

    def __iter__(self):
        # without it, iteration would fall back on __getitem__ and never stop
        return iter(self.coeffs)

    def valuation(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unnormalized polynomial")

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly()
            out = [Q0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai == 0:
                    continue
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def scale(self, c) -> "Poly":
        return Poly([a * c for a in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly(_zderiv(self.coeffs))

    def __call__(self, point):
        """Horner evaluation; accepts any ring element (Poly included)."""
        if not self.coeffs:
            return Q0 if not isinstance(point, Poly) else Poly()
        acc = self.coeffs[-1]
        if isinstance(point, Poly):
            acc = Poly.const(acc)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    # -- normal forms ----------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lc)

    # -- roots ---------------------------------------------------------

    def rational_roots(self) -> List[Tuple[object, int]]:
        """All rational roots with multiplicities, sorted.

        Complete: ``_zrational_roots`` lifts every root modulo p past the
        rational-root bound and keeps each candidate only after an exact
        check, so no rational root is missed and none is invented.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        roots = [(QQ(a, b), k) for a, b, k in _zrational_roots(_zclear([self])[0])]
        roots.sort(key=lambda t: t[0])
        return roots

    # -- display ---------------------------------------------------------

    def __repr__(self) -> str:
        return "Poly(%s)" % (format_poly(self, "z"),)


def format_poly(p: Poly, var: str = "z") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = rat_to_str(c)
        else:
            xi = var if i == 1 else "%s^%d" % (var, i)
            if c == 1:
                term = xi
            elif c == -1:
                term = "-" + xi
            else:
                term = "%s*%s" % (rat_to_str(c), xi)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


# ---------------------------------------------------------------------------
# Z[z] kernels: integer coefficient lists, lowest degree first, [] for zero.
# Fraction-free code runs on these without a gcd per operation; they are
# private so that per-call tracing of the public API leaves them alone.
# ``_ztrim`` and ``_zadd`` take any ring's values (rationals,
# quotient-ring elements), which ``ore.theta_form`` uses.
# ---------------------------------------------------------------------------


def _zclear(polys: Sequence) -> List[List[int]]:
    """Integer coefficient lists of c * p for each p (a ``Poly`` or a
    sequence of rationals), with one common c > 0."""
    lists = [list(p) for p in polys]
    flat = iter(cleared([c for p in lists for c in p])[0])
    return [list(itertools.islice(flat, len(p))) for p in lists]


def _ztrim(a: List[int]) -> List[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _zadd(a: List[int], b: List[int]) -> List[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _ztrim(out)


def _zeval(a: Sequence, x):
    """a(x) by Horner, for a = [] the integer 0."""
    it = reversed(a)
    acc = next(it, 0)
    for c in it:
        acc = acc * x + c
    return acc


def _zsub(a: List[int], b: List[int]) -> List[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _ztrim(out)


def _zmul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _zderiv(a: List[int]) -> List[int]:
    return [i * a[i] for i in range(1, len(a))]


def _zexquo(a: List[int], b: List[int]) -> List[int]:
    """The quotient a / b in Z[z]; ArithmeticError unless b divides a."""
    db, lb = len(b) - 1, b[-1]
    if len(a) <= db:
        if a:
            raise ArithmeticError("inexact division in Z[z]")
        return []
    r = list(a)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c, rem = divmod(r[i], lb)
        if rem:
            raise ArithmeticError("inexact division in Z[z]")
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] -= c * b[j]
    if any(r[:db]):
        raise ArithmeticError("inexact division in Z[z]")
    return q


def _zprimitive(a: List[int]) -> List[int]:
    """a divided by its integer content, leading coefficient positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _zcontent(rows: Sequence[List[int]]) -> List[int]:
    """Primitive gcd of the nonzero integer lists among rows (at least
    one), with positive leading coefficient."""
    g = None
    for p in rows:
        if p:
            g = _zprimitive(p) if g is None else _zgcd(g, p)
            if len(g) == 1:
                break
    return g


def _primitive_rows(rows: List[List[int]]) -> List[List[int]]:
    """Integer coefficient lists divided by their polynomial gcd and their
    integer content, the leading coefficient of the last one positive:
    the one normal form of the Q(z)-line through them."""
    g = _zcontent(rows)
    if len(g) > 1:
        rows = [_zexquo(p, g) for p in rows]
    return _content_free(rows)


def _content_free(rows: List[List[int]]) -> List[List[int]]:
    """Integer coefficient lists divided by their integer content, the
    leading coefficient of the last one positive."""
    num = math.gcd(*(c for p in rows for c in p))
    if rows[-1][-1] < 0:
        num = -num
    return [[c // num for c in p] for p in rows]


def _zshift(q: List[int], a) -> Tuple[List[int], int]:
    """(r, b^d) with q(x + a) = sum r_j x^j / b^d, for an integer list q
    of degree d and a rational a = n/b.

    Q(X) = b^d q(X / b) is integral and q(x + a) = Q(b x + n) / b^d, so
    the integer Horner shift of Q by n gives r_j / b^j.
    """
    n, b = a.numerator, a.denominator
    d = len(q) - 1
    r = [c * b ** (d - k) for k, c in enumerate(q)]
    if n:
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                r[j] += n * r[j + 1]
    return [c * b ** j for j, c in enumerate(r)], b ** max(d, 0)


def _zresultant(p: Sequence[Sequence[int]], m: Sequence[int]) -> List[int]:
    """Res_x(P, m) in Z[lam] up to sign, with a positive leading
    coefficient, lowest degree first ([] for zero), where
    P = sum_j p[j](x) lam^j and p[j], m are integer lists in x.

    The content first: with P = sum_i x^i c_i(lam), h the primitive gcd
    of the nonzero c_i and P' = P / h of the same x-degree, R =
    h^deg(m) * Res_x(P', m), since the resultant is multiplicative and
    Res_x(h, m) = h^deg(m) for h free of x.  Then Res_x(P', m) by
    evaluation and interpolation (Collins 1971): the Sylvester matrix
    has deg(m) rows of lam-degree at most deg_lam(P') and constant rows
    otherwise, so D + 1 values determine it for D = deg(m) * deg_lam(P').
    It is evaluated at D + 2 integer points lam = 0, 1, 2, ... that skip
    the roots of lc_x(P')(lam), so every univariate resultant has the
    same degree pair and sympy gives it the same sign; the spare point
    checks the interpolant.  ``sympy.resultant`` is looked up at call
    time, so a wrapper installed on the sympy module sees every call.
    """
    import sympy

    p = _ztrim([_ztrim(list(pj)) for pj in p])
    if not p:
        return []
    # the content h(lam) of the x-coefficients, divided out of P
    dx = max(len(pj) for pj in p) - 1
    cols = [_ztrim([pj[i] if i < len(pj) else 0 for pj in p]) for i in range(dx + 1)]
    h = _zcontent(cols)
    if len(h) > 1:
        cols = [_zexquo(c, h) for c in cols]
    x = _sympy_x()
    gm = sympy.Poly.from_list(list(reversed(m)), x, domain=sympy.ZZ)
    need = (len(m) - 1) * (max(map(len, cols)) - 1) + 2
    nodes, values = [], []
    lam = 0
    while len(nodes) < need:
        f = [_zeval(c, lam) for c in cols]  # P'(x, lam)
        if f[dx]:
            r = sympy.resultant(sympy.Poly.from_list(f[::-1], x, domain=sympy.ZZ), gm)
            nodes.append(lam)
            values.append(int(r))
        lam += 1
    # Newton divided differences: integers for an integer polynomial at
    # integer nodes, so each division is exact
    for k in range(1, need):
        for i in range(need - 1, k - 1, -1):
            q, rem = divmod(values[i] - values[i - 1], nodes[i] - nodes[i - k])
            if rem:
                raise ArithmeticError("resultant values are not a polynomial in Z[lam]")
            values[i] = q
    if values[-1]:
        raise ArithmeticError("resultant exceeds its degree bound")
    out = [values[-2]]
    for k in range(need - 3, -1, -1):
        # out <- out * (lam - nodes[k]) + values[k]
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= nodes[k] * out[i + 1]
        out[0] += values[k]
    _ztrim(out)
    if out and out[-1] < 0:
        out = [-c for c in out]
    for _ in range(len(m) - 1):
        out = _zmul(out, h)
    return out


def _zprem(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], int]:
    """(r, s) with s a = q b + r over Z for some q in Z[z] and
    len(r) = len(b) - 1, for b with a positive leading coefficient l (a
    shorter than that is padded with zeros and s = 1).

    The one gcd-scaled pseudo-division: each step scales r by
    l / gcd(c, l), c its top coefficient, then cancels that coefficient
    against l.  So s divides l^(len(a) - len(b) + 1) and takes only what
    the steps need.  The quotient is not built; a caller that needs it
    divides s a - r by b exactly.
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a) + [0] * (db - len(a))
    s = 1
    for k in range(len(r) - db - 1, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = math.gcd(c, lb)
        if g != lb:
            t = lb // g
            s *= t
            r = [t * x for x in r]
        c //= g
        for j in range(db):
            r[k + j] -= c * b[j]
    return r, s


def _zgcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive gcd of nonzero a, b with positive leading coefficient:
    Euclid on primitive parts of pseudo-remainders."""
    a, b = _zprimitive(a), _zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _ztrim(_zprem(a, b)[0])
        if not r:
            return b
        a, b = b, _zprimitive(r)
    return [1]


def _zeval_mod(a: Sequence[int], t: int, m: int) -> int:
    """a(t) mod m by Horner."""
    acc = 0
    for c in reversed(a):
        acc = (acc * t + c) % m
    return acc


def _zratrecon(x: int, m: int, amax: int, bmax: int) -> Optional[Tuple[int, int]]:
    """(a, b) with a = b x mod m, |a| <= amax and 0 < b <= bmax, or None:
    Wang's reconstruction, which stops Euclid on (m, x mod m) at the first
    remainder at most amax.  When 2 amax bmax < m there is at most one
    such a/b in lowest terms, and this returns it."""
    r0, r1 = m, x % m
    s0, s1 = 0, 1
    while r1 > amax:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bmax:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _zrational_roots(f: List[int]) -> List[Tuple[int, int, int]]:
    """(a, b, k) for each rational root a/b of a nonzero integer list f,
    in lowest terms with b > 0, and its multiplicity k.

    p-adic lifting (Loos 1983).  After the root 0 of multiplicity v is
    split off as z^v, every rational root a/b of the squarefree part g has
    a | g(0) and b | lc(g).  For the first prime p >= 1009 that does not
    divide lc(g) and at which every root of g mod p is simple, a/b reduces
    to a root of g mod p, and Newton's method lifts that root to the one
    p-adic root above it, which is a/b.  Once the modulus p^(2^k) exceeds
    2 |g(0)| lc(g), reconstruction with |a| <= |g(0)| and b <= lc(g)
    returns a/b from the lift.  A candidate, at that precision or an
    earlier one, is kept only if g(a/b) = 0 exactly.  A prime is passed
    over only if it divides lc(g) disc(g), so the search ends.  The roots
    mod p come from g at every residue at once with numpy; each product
    there is below p^2 < 2^63.  Multiplicities are counted in f by exact
    division.
    """
    v = next(i for i, c in enumerate(f) if c)
    f = _zprimitive(f[v:])
    out = [(0, 1, v)] if v else []
    if len(f) == 1:
        return out
    g = _zprimitive(_zexquo(f, _zgcd(f, _zderiv(f))))
    dg = _zderiv(g)
    p = 1009
    while True:
        if g[-1] % p and all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            roots = np.flatnonzero(_zresidue_values(g, p) == 0)
            if _zresidue_values(dg, p)[roots].all():
                break
        p += 2
    for r in roots.tolist():
        ab = _zlift_root(g, dg, r, p)
        if ab is None:
            continue
        k = 0
        try:
            while True:
                f = _zexquo(f, [-ab[0], ab[1]])
                k += 1
        except ArithmeticError:
            out.append(ab + (k,))
    return out


def _zresidue_values(a: Sequence[int], p: int) -> np.ndarray:
    """a(t) mod p at t = 0, 1, ..., p - 1, for p^2 < 2^63."""
    t = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(a):
        acc *= t
        acc += c % p
        acc %= p
    return acc


def _zlift_root(g: List[int], dg: List[int], x: int, p: int) -> Optional[Tuple[int, int]]:
    """(a, b) for the rational root a/b of g above the simple root x of
    g mod p, or None if that p-adic root is irrational."""
    amax, bmax = abs(g[0]), g[-1]
    m = p
    while True:
        ab = _zratrecon(x, m, amax, bmax)
        if ab and math.gcd(*ab) == 1:
            # sum g_i a^i b^(d - i) = 0
            acc, pw = 0, 1
            for c in reversed(g):
                acc = acc * ab[0] + c * pw
                pw *= ab[1]
            if not acc:
                return ab
        if m > 2 * amax * bmax:
            return None
        m *= m
        x = (x - _zeval_mod(g, x, m) * pow(_zeval_mod(dg, x, m), -1, m)) % m
