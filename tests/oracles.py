"""Reference implementations the tests compare production code against.

These are the straightforward versions: Euclidean division over
``Fraction`` (``poly_divmod``; ``Poly`` itself has no division) and
Euclid on it for the polynomial gcd; ``RatFunc``, a rational function
over Q reduced by a gcd after every operation, which the package itself
no longer has, and over
it elimination over Q(z) for right division, lclm and cofactors, and the
generic root's derivatives in Q(z)[y]/(P) for the annihilator of P's
roots; the squarefree part in y from sympy's gcd over Z[y, z]; the
power-series root of P(z, y) by Newton iteration over ``Fraction``, with
P(z, f) evaluated by Horner over Q, the reference for ``certify_root``'s
integer check; ``certify_root`` through the zero test of lclm(op,
annihilator of P's roots), the reference for its right-division
certificate; the recurrence of an
operator from ``Fraction`` falling factorials, with its row check and
unrolling evaluated over ``Fraction``, the full reduced row echelon form
mod p for kernel vectors, dense Gauss-Jordan over ``Fraction`` for the
exact kernel vector, forward elimination mod p reduced after every
pivot, guessing systems written out and reduced mod p cell by cell, and
a brute-force fraction iteration over F_p(z) for the p-curvature and its
rank.  They are slow and deliberately independent of the fraction-free
Z[z] kernels and the forward-only mod-p elimination
in ``dfinite``.  Diagonals are checked against a cell-by-cell expansion
of 1/den over the full box, with no lattice compression, and the
content factors of a denominator against sympy's content over
Z[other variables].  Resultants are
taken by sympy over Q[lam] from symbolic expressions, with no clearing
to integers, by one bivariate sympy call over Z[x, lam], and as the
determinant of the Sylvester matrix, and rational roots from the linear
factors of sympy's factorization.  Local coefficients at an
algebraic point come from a Horner Taylor shift over Q[a]/(m), and the
theta form from falling factorials built as values of the coefficients'
type, both with products of quotient-ring elements.  Operator products
come from Leibniz's rule with binomial coefficients, the operator at
infinity from such products, and the differential operator of a
recurrence from Stirling numbers, all over ``Poly``, independent of the
one left action of d in ``ore``.  ``apply_op_oracle`` applies an
operator term by term over ``Fraction``, the reference for
``apply_op``'s one integer product, and ``apply_polys`` applies one
given as a ``Poly`` list that is not brought to a normal form.
``FractionModRing`` is Q[a]/(m) with elements
as tuples of ``Fraction`` reduced by polynomial division over Q and
inverses by Euclid over Q, the reference for the fraction-free
``quotient.ModRing``.  ``apply_local`` applies a local operator to a
logarithmic series term by term, to check Frobenius solutions.
"""

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from dfinite import DiffOp, Poly, RecOp, TruncSeries
from dfinite.algebraic import BivarPoly, _vanishes_on, annihilator_of_roots
from dfinite.errors import (
    InconsistentInitialConditions,
    InputError,
    InsufficientInitialConditions,
    PrecisionTooLow,
    RootNotSeparable,
    ZeroDivisorSplit,
)
from dfinite.linalg import ShiftSystem
from dfinite.local import LogSeries
from dfinite.minimize import GUARD_TERMS
from dfinite.ore import lclm
from dfinite.polys import _sympy_x, _zclear, format_poly
from dfinite.quotient import ModRing
from dfinite.rationals import QQ, Q0, Q1, is_integer
from dfinite.series import indicial_bound, rec_leading_roots, unroll, zero_test


# ---------------------------------------------------------------------------
# Euclidean division and gcd over Q
# ---------------------------------------------------------------------------


def poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """Exact Euclidean division over Q."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    d = b.coeffs
    dd = len(d) - 1
    inv_lc = 1 / d[-1]
    q = [Q0] * max(0, len(r) - dd)
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c = c * inv_lc
        q[i - dd] = c
        for j in range(dd + 1):
            r[i - dd + j] -= c * d[j]
    return Poly(q), Poly(r[:dd] if dd > 0 else [])


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


def _primitive(p: Poly) -> Poly:
    den = math.lcm(*(c.denominator for c in p.coeffs))
    p = p.scale(QQ(den))
    g = math.gcd(*(c.numerator for c in p.coeffs))
    if p.lc < 0:
        g = -g
    return p.scale(QQ(1, g))


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over Fraction with content control."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, (_primitive(r) if not r.is_zero() else r)
    return a.monic()


# ---------------------------------------------------------------------------
# Rational functions over Q, reduced by a gcd after every operation
# ---------------------------------------------------------------------------


class RatFunc:
    """Rational function num/den with monic reduced denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, reduce: bool = True):
        if den is None:
            den = Poly([Q1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero() and den.degree > 0:
            g = fraction_gcd(num, den)
            if g.degree > 0:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        if num.is_zero():
            den = Poly([Q1])
        c = den.lc
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly.const(c), Poly([Q1]), reduce=False)

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, Poly([Q1]), reduce=False)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int)):
            return self == RatFunc.from_poly(other if isinstance(other, Poly) else Poly.const(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self) -> str:
        if self.is_poly():
            return "RatFunc(%s)" % format_poly(self.num)
        return "RatFunc((%s)/(%s))" % (format_poly(self.num), format_poly(self.den))


def _clear_ratfuncs(cs: Sequence[RatFunc]) -> Tuple[List[Poly], Poly]:
    """(polys, den) with cs[i] = polys[i] / den, den the lcm of the denominators."""
    den = Poly([Q1])
    for c in cs:
        den = den * poly_exact_div(c.den, fraction_gcd(den, c.den))
    return [c.num * poly_exact_div(den, c.den) for c in cs], den


def _coerce(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc.from_poly(x)
    return RatFunc.const(x)


def divrem_ratfuncs(quo: List[List[int]], rem: List[List[int]], den: List[int]):
    """The quotient and remainder of ``op_right_divrem``'s integer
    numerators over den, as reduced ``RatFunc`` lists."""
    return ([RatFunc(Poly(x), Poly(den)) for x in quo],
            [RatFunc(Poly(x), Poly(den)) for x in rem])


# ---------------------------------------------------------------------------
# Power series over Q and the Newton root of P(z, y)
# ---------------------------------------------------------------------------


def _series_mul(a: List, b: List, n: int) -> List:
    out = [Q0] * n
    for i, x in enumerate(a):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            if y != 0:
                out[i + j] += x * y
    return out


def _series_inverse(a: List, n: int) -> List:
    if not a or a[0] == 0:
        raise ZeroDivisionError("series has no inverse")
    inv0 = 1 / a[0]
    out = [inv0] + [Q0] * (n - 1)
    for m in range(1, n):
        acc = Q0
        for k in range(1, min(m, len(a) - 1) + 1):
            acc += a[k] * out[m - k]
        out[m] = -acc * inv0
    return out


def bivar_evaluate_series(y_coeffs: Sequence[Poly], f: TruncSeries) -> TruncSeries:
    """P(z, f(z)) over Q by Horner in y, truncated at the precision of f,
    for P given by its y-coefficients (a ``Poly`` list, not normalized)."""
    n = f.trunc_order
    acc = [Q0] * n
    for c in reversed(y_coeffs):
        acc = _series_mul(acc, list(f.coeffs), n)
        for i, q in enumerate(c.coeffs):
            if i < n:
                acc[i] += q
    return TruncSeries(acc)


def bivar_y_derivative(p) -> List[Poly]:
    """The y-coefficients of dP/dy for a BivarPoly P, as a ``Poly`` list:
    a ``BivarPoly`` would drop their common scale."""
    ys = p.y_coeffs
    return [ys[j].scale(QQ(j)) for j in range(1, len(ys))]


def newton_root_oracle(p, init: TruncSeries, n_terms: int) -> Optional[TruncSeries]:
    """Power-series root of P agreeing with the given initial terms, by
    Newton iteration over ``Fraction``.

    Returns None when no root can match (the seed is not a root of
    P(0, y), or the unique continuation from a simple seed diverges from
    the supplied terms).  A multiple seed root raises RootNotSeparable.
    """
    if init.trunc_order < 1:
        raise InputError("need at least one initial term")
    y0 = init.coeffs[0]
    p0 = Poly([c[0] for c in p.y_coeffs])
    if p0(y0) != 0:
        return None
    if p0.derivative()(y0) == 0:
        raise RootNotSeparable("initial value is a multiple root of P(0, y)")
    py = bivar_y_derivative(p)
    cur = [y0]
    prec = 1
    while prec < n_terms:
        prec = min(2 * prec, n_terms)
        g = TruncSeries((cur + [Q0] * prec)[:prec])
        num = bivar_evaluate_series(p.y_coeffs, g)
        den = bivar_evaluate_series(py, g)
        inv_den = _series_inverse(list(den.coeffs), prec)
        corr = _series_mul(list(num.coeffs), inv_den, prec)
        cur = [g.coeffs[i] - corr[i] for i in range(prec)]
    out = TruncSeries(cur[:n_terms])
    for i in range(min(init.trunc_order, n_terms)):
        if out.coeffs[i] != init.coeffs[i]:
            return None  # the unique continuation disagrees, so P(z, f) != 0
    return out


def certify_root_lclm_oracle(op: DiffOp, init: TruncSeries, p) -> bool:
    """``certify_root`` by way of M = lclm(op, annihilator of P's roots).

    f - g solves M, g the root of P with g(0) = f(0), so once
    P(z, f) = O(z^N) for N past M's valuation bound, the zero test of M
    proves f = g.  The same checks in the same order as ``certify_root``,
    so a multiple root f(0) raises RootNotSeparable here too.
    """
    m_op = lclm(op, annihilator_of_roots(p))
    need = max(indicial_bound(m_op) + 2, init.trunc_order, op.order + 2) + GUARD_TERMS
    f = unroll(op, init, need)
    p0 = Poly([r[0] if r else 0 for r in p.rows])
    if p0(f.coeffs[0]) == 0 and p0.derivative()(f.coeffs[0]) == 0:
        raise RootNotSeparable("initial value is a multiple root of P(0, y)")
    return _vanishes_on(p, f) and zero_test(m_op, TruncSeries([Q0] * need))


# ---------------------------------------------------------------------------
# Polynomials over Q(z) in y
# ---------------------------------------------------------------------------


def squarefree_in_y_oracle(p):
    """Squarefree part of a BivarPoly with respect to y: P divided by
    sympy's gcd of P and dP/dy over Z[y, z].  That gcd differs from the
    one over Q(z)[y] by a factor in Z[z], which the normal form drops."""
    if p.deg_y <= 0:
        return p
    import sympy

    y, z = sympy.symbols("y z")
    big = sympy.Poly.from_dict({(j, i): c for j, row in enumerate(p.rows) for i, c in enumerate(row) if c},
                               y, z, domain=sympy.ZZ)
    q = big.exquo(big.gcd(big.diff(y)))
    rows = [[0] * (q.degree(z) + 1) for _ in range(q.degree(y) + 1)]
    for (j, i), c in q.as_dict().items():
        rows[j][i] = int(c)
    return BivarPoly(rows)


def _ratfunc_poly_divmod(a: List[RatFunc], b: List[RatFunc]):
    r = list(a)
    while r and r[-1].is_zero():
        r.pop()
    nb = len(b) - 1
    q = [RatFunc.const(0)] * max(0, len(r) - nb)
    while len(r) - 1 >= nb and r:
        c = r[-1] / b[-1]
        k = len(r) - 1 - nb
        q[k] = c
        for j in range(nb + 1):
            r[k + j] = r[k + j] - c * b[j]
        while r and r[-1].is_zero():
            r.pop()
    return q, r


def _mul_mod(a: List[RatFunc], b: List[RatFunc], mod: List[RatFunc]) -> List[RatFunc]:
    if not a or not b:
        return []
    out = [RatFunc.const(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    _, r = _ratfunc_poly_divmod(out, mod)
    return r


def _invert_mod(a: List[RatFunc], mod: List[RatFunc]) -> Optional[List[RatFunc]]:
    r0, r1 = list(mod), list(a)
    s0, s1 = [], [RatFunc.const(1)]
    while r1 and any(not x.is_zero() for x in r1):
        q, r = _ratfunc_poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul_ratfunc(q, s1)
        new_s = [
            (s0[i] if i < len(s0) else RatFunc.const(0))
            - (qs[i] if i < len(qs) else RatFunc.const(0))
            for i in range(max(len(s0), len(qs)))
        ]
        s0, s1 = s1, new_s
    while r0 and r0[-1].is_zero():
        r0.pop()
    if len(r0) != 1:
        return None
    inv_lead = RatFunc.const(1) / r0[0]
    return [x * inv_lead for x in s0]


def _poly_mul_ratfunc(a: List[RatFunc], b: List[RatFunc]) -> List[RatFunc]:
    if not a or not b:
        return []
    out = [RatFunc.const(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


# ---------------------------------------------------------------------------
# Elimination over Q(z)
# ---------------------------------------------------------------------------


def diffop_from_ratfuncs(coeffs: List[RatFunc]) -> DiffOp:
    """The operator with these rational-function coefficients, cleared of
    denominators and content-normalized."""
    return DiffOp(_clear_ratfuncs(coeffs)[0])


def _to_ratfuncs(a: DiffOp) -> List[RatFunc]:
    return [RatFunc.from_poly(c) for c in a.coeffs]


def _d_compose(t: List[RatFunc]) -> List[RatFunc]:
    """Coefficients of d o T for T given by rational-function coefficients."""
    out = [RatFunc.const(0)] * (len(t) + 1)
    for i, c in enumerate(t):
        out[i] = out[i] + c.derivative()
        out[i + 1] = out[i + 1] + c
    return out


def op_right_divrem_oracle(a: DiffOp, b: DiffOp) -> Tuple[List[RatFunc], List[RatFunc]]:
    """Right division a = q o b + r over Q(z), eliminating with RatFunc
    arithmetic: the remainder has order < order(b)."""
    if b.is_zero():
        raise InputError("right division by the zero operator")
    r = _to_ratfuncs(a)
    nb = b.order
    if a.is_zero() or a.order < nb:
        return [], r
    towers = [_to_ratfuncs(b)]
    for _ in range(a.order - nb):
        towers.append(_d_compose(towers[-1]))
    q = [RatFunc.const(0)] * (a.order - nb + 1)
    for k in range(a.order - nb, -1, -1):
        if len(r) < nb + k + 1:
            continue
        c = r[nb + k] / towers[k][nb + k]
        if c.is_zero():
            continue
        q[k] = c
        t = towers[k]
        for i in range(len(t)):
            r[i] = r[i] - c * t[i]
    while r and r[-1].is_zero():
        r.pop()
    return q, r



def ratfunc_dependence(vectors: List[List[RatFunc]]) -> Optional[List[RatFunc]]:
    """First linear dependence among successive vectors over Q(z):
    c with sum(c[i] * vectors[i]) = 0 and c[last] = 1, or None."""
    if not vectors:
        return None
    dim = len(vectors[0])
    basis: List[Tuple[int, List[RatFunc], List[RatFunc]]] = []
    for k, vec in enumerate(vectors):
        row = list(vec)
        expr = [RatFunc.const(0)] * len(vectors)
        expr[k] = RatFunc.const(1)
        for pivot, brow, bexpr in basis:
            c = row[pivot]
            if c.is_zero():
                continue
            for i in range(dim):
                row[i] = row[i] - c * brow[i]
            for i in range(len(vectors)):
                expr[i] = expr[i] - c * bexpr[i]
        pivot = next((i for i in range(dim) if not row[i].is_zero()), None)
        if pivot is None:
            return expr[: k + 1]
        inv = row[pivot]
        basis.append((pivot, [x / inv for x in row], [x / inv for x in expr]))
    return None


def rem_reduce(vec: List[RatFunc], b: List[RatFunc]) -> List[RatFunc]:
    """Reduce an operator given by coefficients modulo b on the right."""
    r = list(vec)
    while r and r[-1].is_zero():
        r.pop()
    nb = len(b) - 1
    while len(r) - 1 >= nb:
        k = len(r) - 1 - nb
        c = r[-1] / b[-1]
        t = b
        for _ in range(k):
            t = _d_compose(t)
        for i in range(len(t)):
            r[i] = r[i] - c * t[i]
        while r and r[-1].is_zero():
            r.pop()
    return r


def _padded(rem: List[RatFunc], n: int) -> List[RatFunc]:
    return [rem[i] if i < len(rem) else RatFunc.const(0) for i in range(n)]


def _dependence_op(vectors: List[List[RatFunc]]) -> Optional[DiffOp]:
    dep = ratfunc_dependence(vectors)
    return None if dep is None else diffop_from_ratfuncs(dep)


def lclm_oracle(a: DiffOp, b: DiffOp) -> DiffOp:
    """Least common left multiple from stacked remainders of d^k modulo
    a and modulo b, k = 0, 1, ..., eliminated over Q(z)."""
    ra, rb = _to_ratfuncs(a), _to_ratfuncs(b)
    rem_a = rem_b = [RatFunc.const(1)]
    vectors = []
    for k in range(a.order + b.order + 1):
        if k:
            rem_a = rem_reduce(_d_compose(rem_a), ra)
            rem_b = rem_reduce(_d_compose(rem_b), rb)
        vectors.append(_padded(rem_a, a.order) + _padded(rem_b, b.order))
        op = _dependence_op(vectors)
        if op is not None:
            return op
    raise AssertionError("lclm must exist at order <= order(a) + order(b)")


def cofactor_oracle(big: DiffOp, cand: DiffOp) -> DiffOp:
    """The cofactor A with A o cand = C o big of ``certify_annihilates``."""
    base = _to_ratfuncs(big)
    rem = rem_reduce(_to_ratfuncs(cand), base)
    vectors = []
    for j in range(big.order + 1):
        if j:
            rem = rem_reduce(_d_compose(rem), base)
        vectors.append(_padded(rem, big.order))
        op = _dependence_op(vectors)
        if op is not None:
            return op
    raise AssertionError("dependence must appear at order <= order(big)")


def annihilator_of_roots_oracle(p) -> DiffOp:
    """Operator for the roots of a squarefree BivarPoly P, from the
    derivatives of the generic root in Q(z)[y]/(P)."""
    n = p.deg_y
    mod = [RatFunc.from_poly(c) for c in p.y_coeffs]
    p_y = [RatFunc.from_poly(c) for c in bivar_y_derivative(p)]
    p_z = [RatFunc.from_poly(c.derivative()) for c in p.y_coeffs]
    y_prime = _mul_mod([RatFunc.const(-1) * c for c in p_z], _invert_mod(p_y, mod), mod)
    _, cur = _ratfunc_poly_divmod([RatFunc.const(0), RatFunc.const(1)], mod)
    vectors = []
    for k in range(n + 1):
        if k:
            dy = [RatFunc.const(QQ(j)) * cur[j] for j in range(1, len(cur))]
            dz = [c.derivative() for c in cur]
            chain = _mul_mod(dy, y_prime, mod)
            cur = [(dz[i] if i < len(dz) else RatFunc.const(0))
                   + (chain[i] if i < len(chain) else RatFunc.const(0))
                   for i in range(max(len(dz), len(chain)))]
        vectors.append(_padded(cur, n))
        op = _dependence_op(vectors)
        if op is not None:
            return op
    raise AssertionError("dependence must appear at order <= deg_y")


# ---------------------------------------------------------------------------
# Linear algebra mod p
# ---------------------------------------------------------------------------


def _build_rows(f: TruncSeries, order: int, degree: int) -> List[List]:
    """The guesser's system cell by cell: row n states that the z^n
    coefficient of sum c_ij z^j f^(i) vanishes, columns (i, j)
    degree-major."""
    n_av = f.trunc_order
    derivs = [list(f.coeffs)]
    for _ in range(order):
        prev = derivs[-1]
        derivs.append([prev[k] * k for k in range(1, len(prev))])
    cols = [(i, j) for j in range(degree + 1) for i in range(order + 1)]
    rows = []
    for n in range(n_av - order):
        row = []
        for i, j in cols:
            if n - j >= 0 and n - j < len(derivs[i]):
                row.append(derivs[i][n - j])
            else:
                row.append(Q0)
        rows.append(row)
    return rows


def _build_algebraic_rows(f: TruncSeries, max_dy: int, max_dz: int) -> List[List]:
    """The algebraic guesser's system cell by cell: row m is the z^m
    coefficient of sum c_ij z^i f^j, columns (i, j) with i outer."""
    n = f.trunc_order
    powers = [[QQ(1)] + [Q0] * (n - 1)]
    for _ in range(max_dy):
        powers.append(_series_mul(powers[-1], list(f.coeffs), n))
    cols = [(i, j) for i in range(max_dz + 1) for j in range(max_dy + 1)]
    return [[powers[j][m - i] if 0 <= m - i < n else Q0 for i, j in cols] for m in range(n)]


def _reduce_matrix_mod(rows: List[List], p: int) -> np.ndarray:
    """Reduce a matrix of rationals mod p cell by cell; raises ValueError
    when p divides a denominator.  Each distinct entry object (by
    identity; ``rows`` keeps it alive for the whole call) is reduced once.
    """
    memo: Dict[int, int] = {}
    out = []
    for row in rows:
        line = []
        for c in row:
            v = memo.get(id(c))
            if v is None:
                den = int(c.denominator) % p
                if den == 0:
                    raise ValueError("prime divides a denominator")
                v = memo[id(c)] = int(c.numerator) * pow(den, -1, p) % p
            line.append(v)
        out.append(line)
    return np.array(out, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)


def dense_system(rows: List[List[int]]) -> ShiftSystem:
    """Any integer matrix as a ``ShiftSystem``: a box of degree 0, whose
    column c is its own sequence, unshifted."""
    ncols = len(rows[0]) if rows else 0
    return ShiftSystem([[row[c] for row in rows] for c in range(ncols)], ncols, len(rows))


def kernel_vector_oracle(rows: List[List]) -> Optional[List]:
    """The canonical kernel vector of a rational matrix by dense
    Gauss-Jordan elimination over ``Fraction``: the first free column set
    to 1, every other free column to 0, then scaled to the primitive
    integral vector whose last nonzero entry is positive; None when the
    columns are independent."""
    ncols = len(rows[0])
    piv_of_col = {}
    for row in rows:
        row = [QQ(x) for x in row]
        for c, prow in piv_of_col.items():
            if row[c] != 0:
                f = row[c]
                row = [x - f * y for x, y in zip(row, prow)]
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        for c, prow in piv_of_col.items():
            if prow[lead] != 0:
                f = prow[lead]
                piv_of_col[c] = [x - f * y for x, y in zip(prow, row)]
        piv_of_col[lead] = row
    free = [c for c in range(ncols) if c not in piv_of_col]
    if not free:
        return None
    vec = [Q0] * ncols
    vec[free[0]] = Q1
    for c, prow in piv_of_col.items():
        vec[c] = -prow[free[0]]
    den = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = math.gcd(*ints)
    if next(x for x in reversed(ints) if x) < 0:
        g = -g
    return [QQ(x, g) for x in ints]


def _rref_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int], List[int]]:
    """Reduced row echelon form mod p. Returns (matrix, pivot columns, pivot rows)."""
    m, n = a.shape
    a = a % p
    piv_cols: List[int] = []
    piv_rows: List[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        piv_cols.append(c)
        piv_rows.append(r)
        r += 1
    return a, piv_cols, piv_rows


def rank_profile_mod_oracle(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Forward elimination mod p that reduces the updated block after
    every pivot: (row echelon form, pivot columns).  Needs (p-1)^2 + p
    below 2^63."""
    m, n = a.shape
    a = a % p
    piv_cols: List[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k], c:] = a[[k, r], c:]
        end = c + 1 + int(np.flatnonzero(a[r, c:])[-1])
        below = a[r + 1:, c:end]
        if below.size:
            factors = below[:, 0] * pow(int(a[r, c]), -1, p) % p
            below -= np.outer(factors, a[r, c:end])
            below %= p
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def _kernel_vector_mod(a: np.ndarray, p: int):
    """Kernel vector mod p read off the full RREF: the first free column
    set to 1, every other free column 0.  Returns (pivot_cols, free_col,
    dense vector) or None if injective."""
    red, piv_cols, _ = _rref_mod(a, p)
    n = a.shape[1]
    piv_set = set(piv_cols)
    free = [c for c in range(n) if c not in piv_set]
    if not free:
        return None
    f = free[0]
    vec = [0] * n
    vec[f] = 1
    for r, c in enumerate(piv_cols):
        if c < f:
            vec[c] = (-int(red[r, f])) % p
    return piv_cols, f, vec


# ---------------------------------------------------------------------------
# p-curvature
# ---------------------------------------------------------------------------


class _FpPoly:
    """Thin helpers for dense polynomials over F_p (int lists)."""

    @staticmethod
    def trim(a: List[int]) -> List[int]:
        while a and a[-1] == 0:
            a.pop()
        return a

    @staticmethod
    def add(a: List[int], b: List[int], p: int) -> List[int]:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return _FpPoly.trim(out)

    @staticmethod
    def mul(a: List[int], b: List[int], p: int) -> List[int]:
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = (out[i + j] + x * y) % p
        return _FpPoly.trim(out)

    @staticmethod
    def scale(a: List[int], c: int, p: int) -> List[int]:
        return _FpPoly.trim([x * c % p for x in a])

    @staticmethod
    def deriv(a: List[int], p: int) -> List[int]:
        return _FpPoly.trim([a[i] * i % p for i in range(1, len(a))])


def _op_mod_p(op: DiffOp, p: int) -> Optional[List[List[int]]]:
    """Coefficients of op reduced mod p, or None if p divides a denominator."""
    out = []
    for c in op.coeffs:
        row = []
        for q in c.coeffs:
            if int(q.denominator) % p == 0:
                return None
            row.append(int(q.numerator) * pow(int(q.denominator) % p, p - 2, p) % p)
        out.append(_FpPoly.trim(row))
    return out


def _fp_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    r = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(r) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        c = r[i] * inv % p
        if c:
            q[i - len(b) + 1] = c
            for j, y in enumerate(b):
                r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - c * y) % p
    return _FpPoly.trim(q), _FpPoly.trim(r[: len(b) - 1])


def _fp_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


# Elements of F_p(z) are (numerator, denominator) pairs of int lists,
# reduced by their gcd after every operation.


def _f_reduce(a, p):
    num, den = a
    if not num:
        return ([], [1])
    g = _fp_gcd(num, den, p)
    if len(g) > 1:
        num = _fp_divmod(num, g, p)[0]
        den = _fp_divmod(den, g, p)[0]
    return (num, den)


def _f_add(a, b, p):
    (na, da), (nb, db) = a, b
    return _f_reduce((
        _FpPoly.add(_FpPoly.mul(na, db, p), _FpPoly.mul(nb, da, p), p),
        _FpPoly.mul(da, db, p)), p)


def _f_mul(a, b, p):
    return _f_reduce((_FpPoly.mul(a[0], b[0], p), _FpPoly.mul(a[1], b[1], p)), p)


def _f_deriv(a, p):
    num, den = a
    dn = _FpPoly.add(
        _FpPoly.mul(_FpPoly.deriv(num, p), den, p),
        _FpPoly.scale(_FpPoly.mul(num, _FpPoly.deriv(den, p), p), p - 1, p),
        p,
    )
    return _f_reduce((dn, _FpPoly.mul(den, den, p)), p)


def p_curvature_matrix_oracle(op: DiffOp, p: int) -> Optional[List[List[Tuple[List[int], List[int]]]]]:
    """Independent brute-force iteration A_(k+1) = A_k' + A_k A of the
    companion matrix A of op over F_p(z), with explicit fraction entries;
    returns A_p, or None for a prime the production code calls bad."""
    if p <= op.order:
        return None
    coeffs = _op_mod_p(op, p)
    if coeffs is None or not coeffs[op.order]:
        return None
    r = op.order
    lead = coeffs[r]
    a_mat = [[([], [1]) for _ in range(r)] for _ in range(r)]
    for i in range(r - 1):
        a_mat[i][i + 1] = ([1], [1])
    for j in range(r):
        a_mat[r - 1][j] = _f_reduce((_FpPoly.scale(coeffs[j], p - 1, p), list(lead)), p)
    cur = [row[:] for row in a_mat]
    for _ in range(1, p):
        nxt = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                acc = _f_deriv(cur[i][j], p)
                for t in range(r):
                    acc = _f_add(acc, _f_mul(cur[i][t], a_mat[t][j], p), p)
                nxt[i][j] = acc
        cur = nxt
    return cur


def fp_ratfunc_rank(mat: List[List[Tuple[List[int], List[int]]]], p: int) -> int:
    """Rank over F_p(z) of a matrix of (numerator, denominator) entries,
    by Gaussian elimination in the same fraction arithmetic."""
    rows = [list(row) for row in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c][0]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        num, den = rows[rank][c]
        inv = _f_reduce((den, num), p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c][0]:
                f = _f_mul(rows[i][c], inv, p)
                neg = (_FpPoly.scale(f[0], p - 1, p), f[1])
                rows[i] = [_f_add(x, _f_mul(neg, y, p), p) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def p_curvature_oracle(op: DiffOp, p: int) -> Optional[Tuple[bool, int]]:
    """(is zero, rank over F_p(z)) of the p-curvature, or None for a bad prime."""
    mat = p_curvature_matrix_oracle(op, p)
    if mat is None:
        return None
    return all(not x[0] for row in mat for x in row), fp_ratfunc_rank(mat, p)


# ---------------------------------------------------------------------------
# diagonals of rational functions
# ---------------------------------------------------------------------------


def diagonal_bruteforce(spec, n_terms: int) -> List:
    """[x1^n ... xk^n] num/den for n < n_terms: 1/den expanded cell by cell
    over the box [0, n_terms)^k in graded order, then convolved with num
    at the diagonal cells."""
    num, den = spec.num.terms, spec.den.terms
    k = spec.den.nvars
    c0 = spec.den.constant_term()
    box = sorted(itertools.product(range(n_terms), repeat=k), key=lambda e: (sum(e), e))
    inv = {}
    for e in box:
        acc = QQ(1) if not any(e) else QQ(0)
        for t, c in den.items():
            src = tuple(a - b for a, b in zip(e, t))
            if any(t) and min(src) >= 0:
                acc -= c * inv[src]
        inv[e] = acc / c0
    out = []
    for n in range(n_terms):
        acc = QQ(0)
        for t, c in num.items():
            src = tuple(n - b for b in t)
            if min(src) >= 0:
                acc += c * inv[src]
        out.append(acc)
    return out


def has_content(poly: Dict[Tuple[int, ...], int], i: int) -> bool:
    """Whether the integer polynomial {exponents: coefficient}, as a
    polynomial of positive degree in variable i, has a nonconstant
    content, by sympy's gcd of its coefficients over Z[other variables]."""
    import sympy

    gens = sympy.symbols("x0:%d" % len(next(iter(poly))))
    expr = sum(c * sympy.Mul(*(g ** a for g, a in zip(gens, e))) for e, c in poly.items())
    p = sympy.Poly(expr, gens[i])
    return p.degree() > 0 and not p.content().is_number


# ---------------------------------------------------------------------------
# resultants over Q[lam]
# ---------------------------------------------------------------------------


def _int_list(p) -> List[int]:
    out = [int(c) for c in reversed(p.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


def bivariate_resultant_oracle(p: Sequence[Sequence[int]], m: Sequence[int]) -> List[int]:
    """Res_x(P, m) for P = sum_j p[j](x) lam^j by sympy's subresultant
    PRS over Z[x, lam] in one call, integer list in lam."""
    import sympy

    x, lam = sympy.symbols("x lam")
    pd = {(i, j): c for j, pj in enumerate(p) for i, c in enumerate(pj) if c}
    md = {(i, 0): c for i, c in enumerate(m) if c}
    r = sympy.resultant(sympy.Poly.from_dict(pd, x, lam, domain=sympy.ZZ),
                        sympy.Poly.from_dict(md, x, lam, domain=sympy.ZZ))
    return _int_list(r)


def sylvester_resultant_oracle(p: Sequence[Sequence[int]], m: Sequence[int]) -> List[int]:
    """The determinant of the Sylvester matrix of P (in x, entries in
    Z[lam]) and m, integer list in lam."""
    import sympy

    lam = sympy.Symbol("lam")
    k = max(len(pj) for pj in p) - 1
    n = len(m) - 1
    f = [sum(pj[i] * lam ** j for j, pj in enumerate(p) if i < len(pj)) for i in range(k + 1)]
    rows = [[0] * r + f[::-1] + [0] * (n - 1 - r) for r in range(n)]
    rows += [[0] * r + list(m[::-1]) + [0] * (k - 1 - r) for r in range(k)]
    det = sympy.Matrix(rows).det(method="berkowitz") if rows else sympy.Integer(1)
    return _int_list(sympy.Poly(sympy.expand(det), lam))


def resultant_candidates_oracle(ind: List, ring: ModRing) -> Poly:
    """Res_x(P(x, lam), m(x)) over Q[lam], built from symbolic sums."""
    import sympy

    x, lam = sympy.symbols("x lam")
    m_expr = sum(
        sympy.Rational(int(c.numerator), int(c.denominator)) * x ** i
        for i, c in enumerate(ring.modulus.coeffs)
    )
    p_expr = 0
    for j, e in enumerate(ind):
        for d, c in enumerate(e.coeffs):
            if c != 0:
                p_expr += sympy.Rational(int(c.numerator), int(c.denominator)) * x ** d * lam ** j
    res = sympy.resultant(sympy.Poly(p_expr, x), sympy.Poly(m_expr, x), x)
    res_poly = sympy.Poly(sympy.expand(res), lam)
    return Poly([QQ(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                 for c in reversed(res_poly.all_coeffs())])


def rational_roots_oracle(poly: Poly) -> List[Tuple[object, int]]:
    """``Poly.rational_roots`` from the linear factors of sympy's
    factorization of the integer-primitive form."""
    if poly.is_zero():
        raise ValueError("zero polynomial has every root")
    if poly.degree == 0:
        return []
    import sympy

    x = _sympy_x()
    expr = sympy.Poly(_zclear([poly])[0][::-1], x)
    roots = []
    for fac, mult in expr.factor_list()[1]:
        if fac.degree() == 1:
            c1, c0 = fac.all_coeffs()
            roots.append((QQ(-int(c0), int(c1)), mult))
    roots.sort(key=lambda t: t[0])
    return roots


def rational_roots_nf_oracle(ind: List, ring: ModRing) -> List[Tuple[object, int]]:
    """``local.rational_roots_nf`` with its candidates taken over Q[lam]."""
    all_zero = True
    content = None
    for e in ind:
        e_poly = Poly(e.coeffs)
        if not e_poly.is_zero():
            all_zero = False
            content = e_poly.monic() if content is None else fraction_gcd(content, e_poly)
    if all_zero:
        raise InputError("zero polynomial")
    g = fraction_gcd(content, ring.modulus)
    if g.degree > 0:
        # the whole polynomial vanishes on a sub-branch
        raise ZeroDivisorSplit(g, poly_exact_div(ring.modulus, g))
    cand = resultant_candidates_oracle(ind, ring)
    if cand.is_zero():
        raise AssertionError("resultant vanished despite trivial content")
    out = []
    for r, _ in rational_roots_oracle(cand):
        mult = 0
        rem = list(ind)
        while rem:
            value = _lam_eval(rem, ring.from_rat(r))
            if value:
                gg = fraction_gcd(Poly(value.coeffs), ring.modulus)
                if gg.degree == 0:
                    break
                raise ZeroDivisorSplit(gg, poly_exact_div(ring.modulus, gg))
            mult += 1
            # synthetic division by (lam - r)
            new = []
            carry = ring.from_rat(Q0)
            for c in reversed(rem):
                carry = c + carry * ring.from_rat(r)
                new.append(carry)
            new.reverse()
            rem = _lam_trim(new[1:])
        if mult:
            out.append((r, mult))
    out.sort(key=lambda t: t[0])
    return out


# ---------------------------------------------------------------------------
# Operators as Poly lists, not brought to a normal form
# ---------------------------------------------------------------------------


def apply_op_oracle(op: DiffOp, f: TruncSeries) -> TruncSeries:
    """``apply_op`` over ``Fraction``, term by term: the rows of
    sum c z^j f^(i) that f's terms determine."""
    if op.is_zero():
        return TruncSeries([Q0] * f.trunc_order)
    if f.trunc_order < op.order:
        raise PrecisionTooLow(
            "series shorter than operator order", needed=op.order
        )
    shift = max(op.max_shift(), 0)
    n_out = max(f.trunc_order - shift, 0)
    out = [Q0] * n_out
    deriv = list(f.coeffs)
    for i, row in enumerate(op.rows):
        if i > 0:
            deriv = [deriv[k] * k for k in range(1, len(deriv))]
        for j, c in enumerate(row):
            if c == 0:
                continue
            # c * z^j * f^(i): contributes c * deriv[n-j] to out[n]
            for n in range(j, min(n_out, j + len(deriv))):
                a = deriv[n - j]
                if a != 0:
                    out[n] += c * a
    return TruncSeries(out)


def apply_polys(coeffs: Sequence[Poly], f: TruncSeries) -> TruncSeries:
    """sum coeffs[i] f^(i) over ``Fraction`` on the rows that f's terms
    determine, for a coefficient list that need not be a normal form."""
    shift = max((i - c.valuation() for i, c in enumerate(coeffs) if not c.is_zero()), default=0)
    n_out = max(f.trunc_order - max(shift, 0), 0)
    out = [Q0] * n_out
    deriv = list(f.coeffs)
    for i, c in enumerate(coeffs):
        if i > 0:
            deriv = [deriv[k] * k for k in range(1, len(deriv))]
        for j, cj in enumerate(c.coeffs):
            for n in range(j, min(n_out, j + len(deriv))):
                out[n] += cj * deriv[n - j]
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# Recurrences over Fraction
# ---------------------------------------------------------------------------


def falling_factorial_poly(shift, length: int) -> Poly:
    """(n+shift)(n+shift-1)...(n+shift-length+1) as a polynomial in n."""
    acc = Poly([Q1])
    n = Poly.x()
    for t in range(length):
        acc = acc * (n + Poly.const(QQ(shift) - t))
    return acc


def ode_to_rec_oracle(op: DiffOp) -> RecOp:
    """``ore.ode_to_rec`` with each term's falling factorial built as a
    ``Poly`` over ``Fraction`` and the rows normalized by ``RecOp``."""
    if op.is_zero():
        raise InputError("zero operator")
    table = {}
    for i, ci in enumerate(op.coeffs):
        for j, c in enumerate(ci.coeffs):
            if c == 0:
                continue
            m = i - j
            term = falling_factorial_poly(m, i).scale(c)
            table[m] = table.get(m, Poly()) + term
    m_min = min(table)
    m_max = max(table)
    coeffs = [table.get(m, Poly()) for m in range(m_min, m_max + 1)]
    return RecOp(coeffs, backshift=-m_min)


def rec_row(rec: RecOp, n: int) -> List[Tuple[int, object]]:
    """Row n of rec evaluated at a ``Fraction`` index: [(target index,
    coefficient value)] over the coefficients that do not vanish at n."""
    out = []
    for m, row in zip(rec.shifts(), rec.rows):
        p = Poly(row)
        if p.is_zero():
            continue
        v = p(QQ(n))
        if v != 0:
            out.append((n + m, v))
    return out


def check_rows_oracle(rec: RecOp, coeffs: List, upto: int) -> Optional[int]:
    """``series._check_rows`` over ``Fraction`` terms and ``rec_row``."""
    for n in range(upto):
        total = Q0
        ok = True
        for idx, v in rec_row(rec, n):
            if idx < 0:
                continue  # a_k = 0 for k < 0
            if idx >= len(coeffs):
                ok = False
                break
            total += v * coeffs[idx]
        if ok and total != 0:
            return n
    return None


def checked_recurrence_oracle(op: DiffOp, init: TruncSeries) -> RecOp:
    """``series._checked_recurrence`` on the oracles above."""
    if op.is_zero():
        raise InconsistentInitialConditions("zero operator")
    if init.trunc_order < op.order:
        raise InsufficientInitialConditions("fewer initial terms than the operator order")
    rec = ode_to_rec_oracle(op)
    sing = rec_leading_roots(rec)
    if sing and sing[-1] >= init.trunc_order:
        raise InsufficientInitialConditions(
            "degenerate recurrence index %d not covered" % sing[-1]
        )
    bad = check_rows_oracle(rec, list(init.coeffs), init.trunc_order + rec.backshift)
    if bad is not None:
        raise InconsistentInitialConditions(
            "initial terms violate the recurrence at row %d" % bad
        )
    return rec


def validate_init_oracle(op: DiffOp, init: TruncSeries) -> Tuple[bool, str]:
    try:
        checked_recurrence_oracle(op, init)
    except (InsufficientInitialConditions, InconsistentInitialConditions) as e:
        return False, str(e)
    return True, "ok"


def unroll_oracle(op: DiffOp, init: TruncSeries, n_terms: int) -> TruncSeries:
    """``series.unroll`` with every row evaluated by ``rec_row`` at a
    ``Fraction`` index and the leading coefficient by its own shifted
    polynomial."""
    rec = checked_recurrence_oracle(op, init)
    if n_terms < init.trunc_order:
        raise InputError("cannot unroll to fewer terms than supplied")
    m = rec.max_shift
    lead_at = Poly(rec.rows[-1])(Poly([QQ(-m), 1]))  # evaluated at the target index
    coeffs = list(init.coeffs)
    for idx in range(len(coeffs), n_terms):
        n = idx - m
        total = Q0
        for jdx, v in rec_row(rec, n):
            if jdx < 0:
                continue
            if jdx < idx:
                total += v * coeffs[jdx]
        denom = lead_at(QQ(idx))
        coeffs.append(-total / denom)
    return TruncSeries(coeffs)


# ---------------------------------------------------------------------------
# Q[a]/(m) over Fraction
# ---------------------------------------------------------------------------


class FractionModRing:
    """Quotient ring Q[a]/(m) with monic squarefree modulus m, over Fraction."""

    def __init__(self, modulus: Poly):
        modulus = modulus.monic()
        if modulus.degree < 1:
            raise InputError("modulus must be nonconstant")
        self.modulus = modulus
        self.deg = modulus.degree

    def el(self, coeffs: Sequence) -> "FractionModElt":
        cs = [QQ(c) if isinstance(c, int) else c for c in coeffs]
        if len(cs) > self.deg:
            cs = list(poly_divmod(Poly(cs), self.modulus)[1].coeffs)
        cs = cs + [Q0] * (self.deg - len(cs))
        return FractionModElt(self, tuple(cs[: self.deg]))

    def one(self) -> "FractionModElt":
        return self.el([Q1])

    def gen(self) -> "FractionModElt":
        return self.el([Q0, Q1])

    def from_rat(self, q) -> "FractionModElt":
        return self.el([q])

    def inv(self, x: "FractionModElt") -> "FractionModElt":
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
        raise ZeroDivisorSplit(g, poly_exact_div(self.modulus, g))

    def __eq__(self, other):
        return isinstance(other, FractionModRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("FractionModRing", self.modulus))


class FractionModElt:
    """Element of a FractionModRing: its coordinates as Fractions."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: FractionModRing, coeffs: Tuple):
        self.ring = ring
        self.coeffs = coeffs

    def _lift(self, other) -> "FractionModElt":
        if isinstance(other, FractionModElt):
            return other
        return self.ring.from_rat(QQ(other) if isinstance(other, int) else other)

    def __add__(self, other):
        o = self._lift(other)
        return FractionModElt(self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FractionModElt(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + self._lift(other)

    def __mul__(self, other):
        if not isinstance(other, FractionModElt):
            c = QQ(other) if isinstance(other, int) else other
            return FractionModElt(self.ring, tuple(a * c for a in self.coeffs))
        prod = Poly(self.coeffs) * Poly(other.coeffs)
        rem = poly_divmod(prod, self.ring.modulus)[1]
        cs = list(rem.coeffs) + [Q0] * (self.ring.deg - len(rem.coeffs))
        return FractionModElt(self.ring, tuple(cs[: self.ring.deg]))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FractionModElt):
            return self.ring == other.ring and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self._lift(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)


def _half_xgcd(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """(g, u) with u*a = g mod b, g = gcd(a, b) up to a scalar."""
    r0, r1 = a, b
    u0, u1 = Poly([Q1]), Poly()
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    return r0, u0


# ---------------------------------------------------------------------------
# Local expansion with quotient-ring products
# ---------------------------------------------------------------------------


def _lam_trim(p: List) -> List:
    while p and not p[-1]:
        p.pop()
    return p


def _lam_add(a: List, b: List) -> List:
    return _lam_trim([x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):])


def _lam_eval(a: List, x):
    """Horner evaluation of a nonzero lambda-polynomial at x."""
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def _series_valuation(p: List) -> int:
    """Index of the first nonzero coefficient; -1 for zero."""
    for i, c in enumerate(p):
        if c:
            return i
    return -1


def _lam_mul(a: List, b: List) -> List:
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _lam_trim(out)


def _falling_lam(length: int, one) -> List:
    """lam (lam - 1) ... (lam - length + 1) with coefficients of the type
    of ``one``, a unit."""
    acc = [one]
    for t in range(length):
        acc = _lam_mul(acc, [one * -t, one])
    return acc


def _shifted_mul_t_plus(p: List, alpha) -> List:
    """p(t) * (t + alpha) over alpha's ring."""
    if not p:
        return []
    out = [alpha * 0] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i + 1] = out[i + 1] + c
        out[i] = out[i] + c * alpha
    return out


def op_mul_oracle(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List]:
    """``ore.op_mul_raw`` by Leibniz's rule over ``Poly``: d^i o b_j is
    sum_k C(i, k) b_j^(k) d^(i+j-k).  Rows as coefficient lists."""
    if not a or not b:
        return []
    out = [Poly() for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            d = Poly(bj)  # b_j^(k)
            for k in range(i + 1):
                out[i + j - k] = out[i + j - k] + Poly(ai) * d.scale(math.comb(i, k))
                d = d.derivative()
    return [list(p.coeffs) for p in out]


def rec_to_ode_oracle(rec: RecOp) -> DiffOp:
    """``ore.rec_to_ode`` by Stirling numbers of the second kind,
    theta^t = sum_i S(t, i) z^i d^i, over ``Poly``: the row of shift m
    damped at the non-vacuous boundary rows n = -t, then p(theta - m)
    times z^(m_max - m)."""
    m_max = rec.max_shift
    by_shift = [(m, Poly(row)) for m, row in zip(rec.shifts(), rec.rows)]
    damp = Poly([1])
    for t in range(1, m_max + 1):
        if any(p(QQ(-t)) != 0 for m, p in by_shift if m >= t):
            damp = damp * Poly([t, 1])
    stirling = [[1]]  # stirling[t][i] = S(t, i)
    table: Dict[Tuple[int, int], object] = {}
    for m, p in by_shift:
        q = (p * damp)(Poly([-m, 1]))
        for t, c in enumerate(q.coeffs):
            while len(stirling) <= t:
                prev = stirling[-1] + [0]
                stirling.append([0] + [i * prev[i] + prev[i - 1] for i in range(1, len(prev))])
            for i in range(t + 1):
                key = (i, m_max - m + i)
                table[key] = table.get(key, 0) + c * stirling[t][i]
    rows = [[0] * (max(j for _, j in table) + 1) for _ in range(max(i for i, _ in table) + 1)]
    for (i, j), c in table.items():
        rows[i][j] = c
    return DiffOp(rows)


def transform_infinity_oracle(op: DiffOp) -> DiffOp:
    """The operator in w for the substitution z = 1/w, d/dz = -w^2 d/dw,
    by operator products: (-w^2 d/dw)^i and their weights multiplied out
    with ``op_mul_oracle``."""
    big_d = op.degree()
    e_i = [[1]]  # coefficients of (-w^2 d/dw)^i, built iteratively
    neg_w2_d = [[], [0, 0, -1]]
    total: List[Poly] = []
    for i, a in enumerate(op.rows):
        if i > 0:
            e_i = op_mul_oracle(neg_w2_d, e_i)
        if not a:
            continue
        weight = [0] * (big_d + 1 - len(a)) + a[::-1]  # w^big_d a(1/w)
        for j, p in enumerate(op_mul_oracle([weight], e_i)):
            while len(total) <= j:
                total.append(Poly())
            total[j] = total[j] + Poly(p)
    return DiffOp(total)


def local_coeffs_horner_oracle(op: DiffOp, ring: FractionModRing) -> List[List]:
    """``local._local_coeffs`` at the algebraic point of ``ring``: each
    coefficient shifted by the residue class of z, by Horner over Q[a]/(m)."""
    alpha = ring.gen()
    out = []
    for p in op.coeffs:
        # Horner for p(t + alpha) as a polynomial in t over the quotient ring
        acc: List = []
        for c in reversed(p.coeffs):
            acc = _shifted_mul_t_plus(acc, alpha)
            if not acc:
                acc = [ring.from_rat(c)]
            else:
                acc[0] = acc[0] + ring.from_rat(c)
        out.append(acc)
    return out


def theta_form_oracle(coeffs: List[List]) -> Tuple[int, List[List]]:
    """``ore.theta_form`` with the falling factorial of every coefficient
    rebuilt with coefficients of its type and multiplied into it as such."""
    v = None
    for i, a in enumerate(coeffs):
        val = _series_valuation(a)
        if val < 0:
            continue
        s = val - i
        v = s if v is None else min(v, s)
    if v is None:
        raise InputError("zero operator")
    qs: Dict[int, List] = {}
    for i, a in enumerate(coeffs):
        for u, c in enumerate(a):
            if not c:
                continue
            k = u - i - v
            term = [x * c for x in _falling_lam(i, c * 0 + 1)]
            qs[k] = _lam_add(qs.get(k, []), term)
    kmax = max(qs) if qs else 0
    return v, [qs.get(k, []) for k in range(kmax + 1)]


# ---------------------------------------------------------------------------
# Operators applied to logarithmic series
# ---------------------------------------------------------------------------


def _log_derivative(s: LogSeries) -> LogSeries:
    out = [[c * 0 for c in layer] for layer in s.layers]
    for j, layer in enumerate(s.layers):
        for i, c in enumerate(layer):
            if not c:
                continue
            e = s.exponent + i
            out[j][i] = out[j][i] + c * e
            if j > 0:
                out[j - 1][i] = out[j - 1][i] + c * j
    while len(out) > 1 and not any(out[-1]):
        out.pop()
    return LogSeries(s.exponent - 1, out)


def _log_mul_monomial(s: LogSeries, coeff, power: int) -> LogSeries:
    """Multiply by coeff * t^power (truncation length is preserved)."""
    return LogSeries(s.exponent + power, [[c * coeff if c else c for c in layer] for layer in s.layers])


def _log_add_all(terms: List[LogSeries]) -> LogSeries:
    terms = [t for t in terms if t.layers]
    if not terms:
        raise InputError("empty sum")
    zero = terms[0].layers[0][0] * 0
    base = min(t.exponent for t in terms)
    for t in terms:
        if not is_integer(t.exponent - base):
            raise InputError("cannot align exponents differing by non-integers")
    # valid length: every term must cover the coefficient slot
    length = min(int(t.exponent - base) + len(t.layers[0]) for t in terms)
    nlay = max(len(t.layers) for t in terms)
    out = [[zero] * length for _ in range(nlay)]
    for t in terms:
        off = int(t.exponent - base)
        for j, layer in enumerate(t.layers):
            for i, c in enumerate(layer):
                if i + off < length and c:
                    out[j][i + off] = out[j][i + off] + c
    while len(out) > 1 and not any(out[-1]):
        out.pop()
    return LogSeries(base, out)


def apply_local(coeffs: List[List], series: LogSeries) -> LogSeries:
    """Apply an operator (local coefficient lists of ``local._local_coeffs``)
    to a LogSeries."""
    terms = []
    current = series
    for i, a in enumerate(coeffs):
        if i > 0:
            current = _log_derivative(current)
        for u, c in enumerate(a):
            if not c:
                continue
            terms.append(_log_mul_monomial(current, c, u))
    return _log_add_all(terms)
