"""Linear differential and recurrence operators with polynomial coefficients.

Differential operators live in Q[z]<d/dz> with the commutation rule
d*a = a*d + a'.  The stored normal form is the primitive representative
over Z[z]: integer coefficients with no common polynomial or integer
factor, leading coefficient positive.  It is unique on each Q(z)-line,
so equal normal forms mean equal operators up to a factor in Q(z).

Arithmetic over Q(z) runs fraction-free.  Modulo an operator L with
leading coefficient l, the remainder of d^k is N_k / l^k with N_k over
Z[z], and the next numerator needs only products and one derivative
(``_remainders``).  ``lclm`` and the cofactor of
``minimize.certify_annihilates`` take the first Q(z)-linear dependence
among such numerators by Bareiss elimination over Z[z]
(``linalg._first_dependence``), whose divisions are exact; the only gcds
are the ones of the final normal form.  ``op_right_divrem`` is a
pseudo-division over Z[z]: it keeps den * a = Q o B + R with B the
integer-cleared divisor, multiplies on the left by lc(B) instead of
dividing by it, and returns the integer numerators and den unreduced;
``right_divides`` reads only whether the remainder is empty.

Recurrence operators act on coefficient sequences; the two sides are
linked by ``ode_to_rec`` and ``rec_to_ode`` with the convention that a
term c * z^j * d^i contributes c * (n+m)(n+m-1)...(n+m-i+1) to the
shift m = i - j.  ``ode_to_rec`` runs over Z: the operator is cleared
to integers once and the falling factorials are integer lists, so the
recurrence's normal form (integer coefficients of content 1) comes with
no ``Fraction`` arithmetic, and ``series`` evaluates its rows at integer
indices.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import List, Sequence, Tuple

from .errors import InputError
from .linalg import _first_dependence
from .polys import (
    Poly,
    _zadd,
    _zclear,
    _zderiv,
    _zexquo,
    _zgcd,
    _zmul,
    _zprimitive,
    _zsub,
    format_poly,
)
from .rationals import QQ, Q0, Q1


class DiffOp:
    """Differential operator sum(coeffs[i] * d^i), content-normalized."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, normalize: bool = True):
        cs = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        if normalize and cs:
            cs = _normalize_content(cs)
        self.coeffs = tuple(cs)

    @staticmethod
    def _from_int_rows(rows: List[List[int]]) -> "DiffOp":
        """Normal form of the operator with integer coefficient lists rows."""
        return DiffOp([Poly(p) for p in _primitive_rows(rows)], normalize=False)

    @property
    def order(self) -> int:
        """Order; -1 for the zero operator."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Poly:
        if not self.coeffs:
            return Poly()
        return self.coeffs[-1]

    def degree(self) -> int:
        """Max coefficient degree."""
        return max((c.degree for c in self.coeffs), default=-1)

    def __getitem__(self, i: int) -> Poly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Poly()

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffOp):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self[i] - other[i] for i in range(n)])

    def __repr__(self) -> str:
        if self.is_zero():
            return "DiffOp(0)"
        parts = []
        for i in range(self.order, -1, -1):
            c = self[i]
            if c.is_zero():
                continue
            d = "" if i == 0 else ("*Dz" if i == 1 else "*Dz^%d" % i)
            parts.append("(%s)%s" % (format_poly(c), d))
        return "DiffOp(%s)" % " + ".join(parts)

    def max_shift(self) -> int:
        """Largest i - j over monomials z^j d^i; controls apply_op truncation."""
        m = None
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            v = i - c.valuation()
            m = v if m is None else max(m, v)
        if m is None:
            raise InputError("zero operator has no shift profile")
        return m


def _normalize_content(cs: List[Poly]) -> List[Poly]:
    return [Poly(p) for p in _primitive_rows(_zclear(cs))]


def _primitive_rows(rows: List[List[int]]) -> List[List[int]]:
    """Integer coefficient lists divided by their polynomial gcd and their
    integer content, the leading coefficient of the last one positive:
    the one normal form of the Q(z)-line through them."""
    g = None
    for p in rows:
        if p:
            g = _zprimitive(p) if g is None else _zgcd(g, p)
            if len(g) == 1:
                break
    if len(g) > 1:
        rows = [_zexquo(p, g) for p in rows]
    num = gcd(*(c for p in rows for c in p))
    if rows[-1][-1] < 0:
        num = -num
    return [[c // num for c in p] for p in rows]


def _normalize_int_content(rows: List[List[int]]) -> List[Poly]:
    """Integer coefficient lists divided by their integer content, the
    last coefficient positive."""
    num = gcd(*(c for p in rows for c in p))
    if rows[-1][-1] < 0:
        num = -num
    return [Poly([c // num for c in p]) for p in rows]


def op_mul_raw(a_coeffs: Sequence[Poly], b_coeffs: Sequence[Poly]) -> List[Poly]:
    """Unnormalized coefficient list of the product (apply b first)."""
    if not a_coeffs or not b_coeffs:
        return []
    na, nb = len(a_coeffs) - 1, len(b_coeffs) - 1
    derivs: List[List[Poly]] = []
    for bj in b_coeffs:
        row = [bj]
        for _ in range(na):
            row.append(row[-1].derivative())
        derivs.append(row)
    out = [Poly() for _ in range(na + nb + 1)]
    binom = [[1]]
    for i in range(1, na + 1):
        prev = binom[-1]
        binom.append([1] + [prev[k - 1] + prev[k] for k in range(1, i)] + [1])
    for i, ai in enumerate(a_coeffs):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b_coeffs):
            if bj.is_zero():
                continue
            for k in range(i + 1):
                out[i + j - k] = out[i + j - k] + ai * derivs[j][k].scale(QQ(binom[i][k]))
    return out


def op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Noncommutative product a o b (apply b first), content-normalized."""
    if a.is_zero() or b.is_zero():
        return DiffOp([])
    return DiffOp(op_mul_raw(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# Arithmetic over Q(z): right division and LCLM.
# ---------------------------------------------------------------------------


def op_right_divrem(a: DiffOp, b: DiffOp) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Right division of a by b over Q(z), fraction-free: (quo, rem, den)
    as integer coefficient lists over Z[z], with
    den * a = (sum quo[k] d^k) o b + sum rem[i] d^i
    and rem of order < order(b).  Nothing is reduced; the quotient
    q = quo / den and the remainder r = rem / den over Q(z) are unique.

    Pseudo-division: with A = s_a a and B = s_b b cleared to integers and
    l = lc(B), it keeps den * a = Q o B + R, from den = s_a, Q = 0, R = A,
    and cancels the top coefficient c of R by R <- l R - c d^k o B,
    Q <- l Q + c d^k, den <- l den.  This is exact because a function
    multiplied on the left commutes with o B; quo = s_b Q at the end.
    """
    if b.is_zero():
        raise InputError("right division by the zero operator")
    *rem, den = _zclear([*a.coeffs, Poly([Q1])])
    *rows_b, s_b = _zclear([*b.coeffs, Poly([Q1])])
    nb, lead = b.order, rows_b[-1]
    towers = [rows_b]  # d^k o B
    for _ in range(a.order - nb):
        t = towers[-1]
        towers.append([_zadd(_zderiv(x), t[i - 1] if i else []) for i, x in enumerate(t)] + [t[-1]])
    quo: List[List[int]] = [[] for _ in range(a.order - nb + 1)]
    for k in range(a.order - nb, -1, -1):
        c = rem[nb + k]
        if not c:
            continue
        rem = [_zsub(_zmul(lead, x), _zmul(c, t))
               for x, t in itertools.zip_longest(rem, towers[k], fillvalue=[])]
        quo = [_zmul(lead, x) for x in quo]
        quo[k] = c
        den = _zmul(lead, den)
    while rem and not rem[-1]:
        rem.pop()
    return [_zmul(s_b, x) for x in quo], rem, den


def right_divides(b: DiffOp, a: DiffOp) -> bool:
    """True iff b divides a on the right over Q(z)."""
    return not op_right_divrem(a, b)[1]


def _remainders(ops: List[List[int]], start: List[List[int]], e: int):
    """Numerators N_0, N_1, ... of the remainders of d^k o R modulo L.

    L = sum ops[i] d^i over Z[z] with leading coefficient l; R mod L =
    start / l^e, and ``_rem_step`` carries each numerator to the next.
    ``lclm``, the cofactor of ``minimize.certify_annihilates`` and (on L
    reduced mod p) ``heuristics.p_curvature`` read their rows from here.
    """
    dlead = _zderiv(ops[-1])
    num = start
    for k in itertools.count(e):
        yield num
        num = _rem_step(ops, dlead, num, k)


def _rem_step(ops: List[List[int]], dlead: List[int], num: List[List[int]], k: int) -> List[List[int]]:
    """Numerator of d o (num / l^k) modulo L, over l^(k+1).

    With n the order of L and dlead = l', it is
    N'_i l - k l' N_i + l N_(i-1) - N_(n-1) ops[i],
    since d^n = -sum_(i<n) (ops[i] / l) d^i modulo L: no division at all.
    An operator of order 0 leaves nothing to reduce.
    """
    n = len(ops) - 1
    if not n:
        return num
    lead = ops[-1]
    top = num[-1]
    return [
        _zsub(
            _zmul(lead, _zadd(_zderiv(num[i]), num[i - 1] if i else [])),
            _zadd(_zmul(dlead, [k * c for c in num[i]]), _zmul(top, ops[i])),
        )
        for i in range(n)
    ]


def _unit_rows(ops: List[List[int]]) -> List[List[int]]:
    """Numerator of d^0 = 1 modulo an operator of order n (denominator l^0)."""
    return [[1]] + [[] for _ in range(len(ops) - 2)] if len(ops) > 1 else []


def lclm(a: DiffOp, b: DiffOp) -> DiffOp:
    """Least common left multiple: the first Q(z)-linear dependence among
    the stacked remainders of d^k modulo a and modulo b, k = 0, 1, ...

    The remainders modulo a carry denominators l_a^k (``_remainders``);
    row k is their numerators times l_b^k next to those modulo b times
    l_a^k, over the common denominator (l_a l_b)^k, and the fraction-free
    dependence gives the lclm's coefficients directly.
    """
    if a.is_zero() or b.is_zero():
        raise InputError("lclm of the zero operator")
    ops_a, ops_b = _zclear(a.coeffs), _zclear(b.coeffs)
    rem_a = _remainders(ops_a, _unit_rows(ops_a), 0)
    rem_b = _remainders(ops_b, _unit_rows(ops_b), 0)

    def rows():
        pow_a, pow_b = [1], [1]
        for _ in range(a.order + b.order + 1):
            yield ([_zmul(pow_b, x) for x in next(rem_a)]
                   + [_zmul(pow_a, x) for x in next(rem_b)], _zmul(pow_a, pow_b))
            pow_a, pow_b = _zmul(pow_a, ops_a[-1]), _zmul(pow_b, ops_b[-1])

    dep = _first_dependence(rows())
    if dep is None:
        raise AssertionError("lclm must exist at order <= order(a) + order(b)")
    return DiffOp._from_int_rows(dep)


# ---------------------------------------------------------------------------
# ODE <-> recurrence correspondence.
# ---------------------------------------------------------------------------


class RecOp:
    """Recurrence operator: rows sum(coeffs[j](n) * a_{n + j - backshift}).

    ``coeffs[j]`` is a polynomial in the index n; ``backshift`` is the
    absolute value of the most negative shift.  Normal form divides out
    the integer content only: dividing by a polynomial factor would
    silently strengthen rows at its nonnegative integer roots.
    """

    __slots__ = ("coeffs", "backshift")

    def __init__(self, coeffs: Sequence, backshift: int = 0, normalize: bool = True):
        cs = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        while cs and cs[0].is_zero():
            cs.pop(0)
            backshift -= 1
        if normalize and cs:
            cs = _normalize_int_content(_zclear(cs))
        self.coeffs = tuple(cs)
        self.backshift = backshift if cs else 0

    @property
    def order(self) -> int:
        """Span of shifts (max shift - min shift); -1 for zero."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_shift(self) -> int:
        return len(self.coeffs) - 1 - self.backshift

    @property
    def leading(self) -> Poly:
        return self.coeffs[-1] if self.coeffs else Poly()

    def shifts(self) -> range:
        return range(-self.backshift, len(self.coeffs) - self.backshift)

    def coeff_of_shift(self, m: int) -> Poly:
        j = m + self.backshift
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Poly()

    def __eq__(self, other) -> bool:
        if isinstance(other, RecOp):
            return self.coeffs == other.coeffs and self.backshift == other.backshift
        return NotImplemented

    def __repr__(self) -> str:
        parts = []
        for m in self.shifts():
            p = self.coeff_of_shift(m)
            if p.is_zero():
                continue
            idx = "n" if m == 0 else ("n%+d" % m)
            parts.append("(%s)*a(%s)" % (format_poly(p, "n"), idx))
        return "RecOp(%s)" % " + ".join(parts) if parts else "RecOp(0)"


def ode_to_rec(op: DiffOp) -> RecOp:
    """Recurrence satisfied by coefficient sequences of solutions of op.

    Runs over Z: the operator's coefficients are cleared to integers
    once (a common factor leaves the normal form unchanged).  The row of
    shift m collects c times the falling factorial
    (n+m)(n+m-1)...(n+m-i+1) over the terms c z^j d^i with i - j = m;
    along one m each falling factorial is the previous one times a
    linear factor.
    """
    if op.is_zero():
        raise InputError("zero operator")
    ops = _zclear(op.coeffs)
    table = {}
    for m in range(1 - max(map(len, ops)), len(ops)):
        ff, row = [1], []
        for i, ci in enumerate(ops):
            j = i - m
            if 0 <= j < len(ci) and ci[j]:
                row = _zadd(row, [ci[j] * x for x in ff])
            ff = _zmul(ff, [m - i, 1])
        if row:
            table[m] = row
    m_min = min(table)
    rows = [table.get(m, []) for m in range(m_min, max(table) + 1)]
    return RecOp(_normalize_int_content(rows), -m_min, normalize=False)


_STIRLING2 = [[1]]


def _stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind (cached table)."""
    while len(_STIRLING2) <= n:
        t = len(_STIRLING2)
        prev = _STIRLING2[-1]
        row = [0] * (t + 1)
        for i in range(1, t + 1):
            row[i] = (prev[i] * i if i < t else 0) + prev[i - 1]
        _STIRLING2.append(row)
    return _STIRLING2[n][k] if 0 <= k <= n else 0


def rec_to_ode(rec: RecOp) -> DiffOp:
    """Differential operator whose power-series solutions are exactly the
    generating functions of sequences satisfying rec at every n >= 0.

    Boundary rows n = -1, ..., -max_shift would impose extra conditions
    on a_0, a_1, ...; any non-vacuous one is damped by an (n + t) factor
    before converting, which leaves the n >= 0 rows untouched.
    """
    if rec.is_zero():
        raise InputError("zero recurrence")
    m_max = rec.max_shift
    damp = Poly([Q1])
    for t in range(1, m_max + 1):
        if any(
            m >= t and not rec.coeff_of_shift(m).is_zero()
            and rec.coeff_of_shift(m)(QQ(-t)) != 0
            for m in rec.shifts()
        ):
            damp = damp * Poly([QQ(t), Q1])  # (n + t)
    table = {}
    for m in rec.shifts():
        p = rec.coeff_of_shift(m) * damp
        if p.is_zero():
            continue
        q = p.compose_shift(QQ(-m))  # p(theta - m)
        for t, c in enumerate(q.coeffs):
            if c == 0:
                continue
            for i in range(t + 1):
                s = _stirling2(t, i)
                if s == 0:
                    continue
                j = m_max - m + i
                key = (i, j)
                table[key] = table.get(key, Q0) + c * s
    order = max(i for i, _ in table)
    coeffs = [Poly() for _ in range(order + 1)]
    for (i, j), c in table.items():
        if c != 0:
            coeffs[i] = coeffs[i] + Poly.x(j).scale(c)
    return DiffOp(coeffs)
