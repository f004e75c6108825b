"""Linear differential and recurrence operators with polynomial coefficients.

Differential operators live in Q[z]<d/dz> with the commutation rule
d*a = a*d + a'.  A ``DiffOp`` stores its normal form as integer rows:
``rows[i]`` is the coefficient of d^i as an integer list, lowest degree
first, and the rows have no common polynomial or integer factor, the
leading coefficient positive.  The normal form is unique on each
Q(z)-line, so equal rows mean equal operators up to a factor in Q(z).
The constructor is the one way in: it clears rational input to integers
once and takes the primitive part.  ``coeffs``, ``leading`` and
indexing are read-only ``Poly`` views for display and for callers over
Q[z]; the routines here and in the other modules read the rows.

Every product with d on the left is one step, ``_dstep``, the rule
d o a = a d + a' applied to all rows at once: ``op_mul_raw`` sums
a_i (d^i o b) over one chain of steps, ``op_right_divrem`` builds its
towers d^k o b with it, ``_rem_step`` reduces d o N modulo L, and
``rec_to_ode`` forms the powers of theta = z d with it.

Arithmetic over Q(z) runs fraction-free.  Modulo an operator L with
leading coefficient l, the remainder of d^k is N_k / l^k with N_k over
Z[z], and the next numerator needs only products and one ``_dstep``
(``_remainders``).  The cofactor of s modulo L (``_cofactor``), the A
of least order with A o s = C o L, is the first Q(z)-linear dependence
among the numerators of d^j o s modulo L, by Bareiss elimination over
Z[z] (``linalg._first_dependence``), whose divisions are exact; the
only gcds are the ones of the final normal form.  A o s is the lclm of
s and L, which ``lclm`` multiplies out with L the operand of higher
order: one system of dimension order(L), at most order(L) + 1 rows.
``minimize.certify_annihilates`` runs the zero test of A.
``op_right_divrem`` is a pseudo-division over Z[z]: it keeps
den * a = Q o b + R, multiplies on the left by lc(b) instead of
dividing by it, and returns the integer numerators and den unreduced;
``right_divides`` reads only whether the remainder is empty.

Recurrence operators act on coefficient sequences; the two sides are
linked by ``ode_to_rec`` and ``rec_to_ode`` with the convention that a
term c * z^j * d^i contributes c * (n+m)(n+m-1)...(n+m-i+1) to the
shift m = i - j.  ``ode_to_rec`` reads them off the theta form
L(t^u) = t^(u+v) sum_k q_k(u) t^k at 0: ``theta_form`` builds the rows
q_k over any ring's values, the recurrence row of shift -v - k is
q_k(n - v - k), and ``local`` reads the indicial polynomial q_0 and the
Frobenius recurrence from the same rows at every singular point (at
infinity, the rows at 0 reflected).  ``rec_to_ode`` goes back as
sum_m z^(m_max - m) p_m(theta - m), by Horner in theta = z d.  A
``RecOp`` stores integer rows of content 1, built over Z, so ``series``
evaluates them at integer indices.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from .errors import InputError
from .linalg import _first_dependence
from .polys import (
    Poly,
    _content_free,
    _primitive_rows,
    _zadd,
    _zclear,
    _zderiv,
    _zeval,
    _zmul,
    _zshift,
    _zsub,
    _ztrim,
    format_poly,
)


def _int_rows(coeffs: Sequence) -> List[List[int]]:
    """Coefficients (``Poly``s or rational lists) cleared to integer lists
    by one common factor, trailing zeros and zero top rows dropped."""
    rows = [_ztrim(p) for p in _zclear(coeffs)]
    while rows and not rows[-1]:
        rows.pop()
    return rows


class DiffOp:
    """Differential operator sum(rows[i] * d^i) in normal form."""

    __slots__ = ("rows",)

    def __init__(self, coeffs: Sequence):
        rows = _int_rows(coeffs)
        self.rows = tuple(_primitive_rows(rows)) if rows else ()

    @property
    def coeffs(self) -> Tuple[Poly, ...]:
        return tuple(map(Poly, self.rows))

    @property
    def order(self) -> int:
        """Order; -1 for the zero operator."""
        return len(self.rows) - 1

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def leading(self) -> Poly:
        return self[self.order]

    def degree(self) -> int:
        """Max coefficient degree."""
        return max(map(len, self.rows), default=0) - 1

    def __getitem__(self, i: int) -> Poly:
        return Poly(self.rows[i]) if 0 <= i < len(self.rows) else Poly()

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffOp):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(tuple, self.rows)))

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
        shifts = [i - next(j for j, c in enumerate(p) if c) for i, p in enumerate(self.rows) if p]
        if not shifts:
            raise InputError("zero operator has no shift profile")
        return max(shifts)


def _dstep(rows: Sequence[List[int]]) -> List[List[int]]:
    """Integer rows of d o R for R = sum rows[i] d^i, by d o a = a d + a':
    row i is rows[i]' + rows[i-1], and the new top row is rows[-1].  The
    one left action of d; every product with d on the left runs it."""
    return [_zadd(_zderiv(r), rows[i - 1] if i else []) for i, r in enumerate(rows)] + [rows[-1]]


def op_mul_raw(a: Sequence[List[int]], b: Sequence[List[int]]) -> List[List[int]]:
    """Unnormalized integer rows of the product of the operators with
    integer rows a and b (apply b first): sum_i a_i (d^i o b), each
    d^i o b one ``_dstep`` after the one before."""
    if not a or not b:
        return []
    out: List[List[int]] = [[] for _ in range(len(a) + len(b) - 1)]
    tower = list(b)  # d^i o b
    for i, ai in enumerate(a):
        if i:
            tower = _dstep(tower)
        for j, t in enumerate(tower):
            out[j] = _zadd(out[j], _zmul(ai, t))
    return out


def op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Noncommutative product a o b (apply b first), in normal form."""
    return DiffOp(op_mul_raw(a.rows, b.rows))


# ---------------------------------------------------------------------------
# Arithmetic over Q(z): right division and LCLM.
# ---------------------------------------------------------------------------


def op_right_divrem(a: DiffOp, b: DiffOp) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Right division of a by b over Q(z), fraction-free: (quo, rem, den)
    as integer coefficient lists over Z[z], with
    den * a = (sum quo[k] d^k) o b + sum rem[i] d^i
    and rem of order < order(b).  Nothing is reduced; the quotient
    q = quo / den and the remainder r = rem / den over Q(z) are unique.

    Pseudo-division on the integer rows, with l = lc(b): it keeps
    den * a = Q o b + R, from den = 1, Q = 0, R = a, and cancels the top
    coefficient c of R by R <- l R - c d^k o b, Q <- l Q + c d^k,
    den <- l den.  This is exact because a function multiplied on the
    left commutes with o b.
    """
    if b.is_zero():
        raise InputError("right division by the zero operator")
    rem, den = [list(x) for x in a.rows], [1]
    nb, lead = b.order, b.rows[-1]
    towers = [b.rows]  # d^k o b
    for _ in range(a.order - nb):
        towers.append(_dstep(towers[-1]))
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
    return quo, rem, den


def right_divides(b: DiffOp, a: DiffOp) -> bool:
    """True iff b divides a on the right over Q(z)."""
    return not op_right_divrem(a, b)[1]


def _remainders(ops: List[List[int]], start: List[List[int]], e: int):
    """Numerators N_0, N_1, ... of the remainders of d^k o R modulo L.

    L = sum ops[i] d^i over Z[z] with leading coefficient l; R mod L =
    start / l^e, and ``_rem_step`` carries each numerator to the next.
    ``_cofactor`` (hence ``lclm`` and ``minimize.certify_annihilates``)
    and, on L reduced mod p, ``heuristics.p_curvature`` read their rows
    from here.
    """
    dlead = _zderiv(ops[-1])
    num = start
    for k in itertools.count(e):
        yield num
        num = _rem_step(ops, dlead, num, k)


def _rem_step(ops: List[List[int]], dlead: List[int], num: List[List[int]], k: int) -> List[List[int]]:
    """Numerator of d o (num / l^k) modulo L, over l^(k+1).

    With n the order of L, dlead = l' and D = d o N (``_dstep``), it is
    l D_i - k l' N_i - D_n ops[i],
    since d^n = -sum_(i<n) (ops[i] / l) d^i modulo L: no division at all.
    An operator of order 0 leaves nothing to reduce.
    """
    n = len(ops) - 1
    if not n:
        return num
    lead = ops[-1]
    dnum = _dstep(num)
    top = dnum[n]
    return [
        _zsub(_zmul(lead, dnum[i]), _zadd(_zmul(dlead, [k * c for c in num[i]]), _zmul(top, ops[i])))
        for i in range(n)
    ]


def _unit_rows(ops: List[List[int]]) -> List[List[int]]:
    """Numerator of d^0 = 1 modulo an operator of order n (denominator l^0)."""
    return [[1]] + [[] for _ in range(len(ops) - 2)] if len(ops) > 1 else []


def _cofactor(big: DiffOp, cand: DiffOp) -> DiffOp:
    """The A of minimal order with A o cand = C o big, fraction-free over
    Z[z]; cand.order <= big.order.

    With l the leading coefficient of big (order r), cand modulo big is
    cand itself over l^0 when its order is below r, and otherwise has the
    numerators l cand_i - cand_r big_i over l^1; ``_remainders`` carries
    on to d^j o cand over l^(j+e).  Row j is scaled by l^j only: the
    common factor l^e changes no Q(z)-line, hence not the normal form.
    The first dependence has the least order, so A o cand is the lclm
    of big and cand.
    """
    r = big.order
    ops, cs = big.rows, cand.rows
    lead = ops[-1]
    if cand.order == r:
        start = [_zsub(_zmul(lead, cs[i]), _zmul(cs[r], ops[i])) for i in range(r)]
    else:
        start = list(cs) + [[] for _ in range(r - len(cs))]
    rems = _remainders(ops, start, int(cand.order == r))

    def rows():
        scale = [1]
        for _ in range(r + 1):
            yield next(rems), scale
            scale = _zmul(scale, lead)

    dep = _first_dependence(rows())
    if dep is None:
        raise AssertionError("dependence must appear at order <= order(big)")
    return DiffOp(dep)


def lclm(a: DiffOp, b: DiffOp) -> DiffOp:
    """Least common left multiple A o s, with s the operand of lower order
    (b when the orders agree) and A its cofactor modulo the other
    one: every common left multiple is some A' o s with
    A' o s = 0 modulo the other operand, and ``_cofactor`` finds the A'
    of least order.  The normal form is unique on each Q(z)-line, so the
    argument order does not change the result.
    """
    if a.is_zero() or b.is_zero():
        raise InputError("lclm of the zero operator")
    big, s = (a, b) if a.order >= b.order else (b, a)
    return DiffOp(op_mul_raw(_cofactor(big, s).rows, s.rows))


# ---------------------------------------------------------------------------
# ODE <-> recurrence correspondence.
# ---------------------------------------------------------------------------


class RecOp:
    """Recurrence operator: rows sum(rows[j](n) * a_{n + j - backshift}).

    ``rows[j]`` is an integer list in the index n; ``backshift`` is the
    absolute value of the most negative shift.  The constructor clears
    rational input to integers and divides out the integer content only:
    dividing by a polynomial factor would silently strengthen rows at its
    nonnegative integer roots.
    """

    __slots__ = ("rows", "backshift")

    def __init__(self, coeffs: Sequence, backshift: int = 0):
        rows = _int_rows(coeffs)
        while rows and not rows[0]:
            rows.pop(0)
            backshift -= 1
        self.rows = tuple(_content_free(rows)) if rows else ()
        self.backshift = backshift if rows else 0

    @property
    def order(self) -> int:
        """Span of shifts (max shift - min shift); -1 for zero."""
        return len(self.rows) - 1

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def max_shift(self) -> int:
        return len(self.rows) - 1 - self.backshift

    def shifts(self) -> range:
        return range(-self.backshift, len(self.rows) - self.backshift)

    def __eq__(self, other) -> bool:
        if isinstance(other, RecOp):
            return self.rows == other.rows and self.backshift == other.backshift
        return NotImplemented

    def __repr__(self) -> str:
        parts = []
        for m, row in zip(self.shifts(), self.rows):
            if not row:
                continue
            idx = "n" if m == 0 else ("n%+d" % m)
            parts.append("(%s)*a(%s)" % (format_poly(Poly(row), "n"), idx))
        return "RecOp(%s)" % " + ".join(parts) if parts else "RecOp(0)"


def theta_form(coeffs: Sequence[Sequence]) -> Tuple[int, List[List]]:
    """(v, [q_0, q_1, ...]) with L(t^u) = t^(u+v) * sum_k q_k(u) t^k for
    L = sum_i coeffs[i](t) d^i, over any ring's coefficient values.

    The term c t^s d^i sends t^u to c (u)_i t^(u-i+s), with the falling
    factorial (u)_i = u (u-1) ... (u-i+1) over Z, so it adds c (lam)_i
    to the row of t-offset s - i; v is the least offset, and q_0, the
    indicial polynomial, is nonzero.  ``ode_to_rec`` reads the rows at
    0, and ``local`` reads them at every finite singular point and,
    reflected, at infinity.
    """
    qs: Dict[int, List] = {}  # by t-offset
    falling = [1]  # lam (lam - 1) ... (lam - i + 1) over Z
    for i, a in enumerate(coeffs):
        for s, c in enumerate(a, -i):
            if c:
                qs[s] = _zadd(qs.get(s, []), [c * f for f in falling])
        falling = [lo - i * hi for lo, hi in zip([0] + falling, falling + [0])]
    if not qs:
        raise InputError("zero operator")
    v = min(qs)
    return v, [qs.get(s, []) for s in range(v, max(qs) + 1)]


def ode_to_rec(op: DiffOp) -> RecOp:
    """Recurrence satisfied by coefficient sequences of solutions of op.

    Runs over Z on the theta form at 0: the z^n coefficient of
    op(sum a_u z^u) is sum_k q_k(n - v - k) a_(n-v-k), so the row of
    shift m = -v - k is q_k(n + m), one integer Taylor shift.
    """
    if op.is_zero():
        raise InputError("zero operator")
    v, qs = theta_form(op.rows)
    kmax = len(qs) - 1
    return RecOp([_zshift(qs[k], -v - k)[0] for k in range(kmax, -1, -1)], v + kmax)


def rec_to_ode(rec: RecOp) -> DiffOp:
    """Differential operator whose power-series solutions are exactly the
    generating functions of sequences satisfying rec at every n >= 0:
    sum_m z^(m_max - m) p_m(theta - m) with theta = z d, each p_m(theta - m)
    by Horner in theta, theta o R = z (d o R).

    Boundary rows n = -1, ..., -max_shift would impose extra conditions
    on a_0, a_1, ...; any non-vacuous one is damped by an (n + t) factor
    before converting, which leaves the n >= 0 rows untouched.
    """
    if rec.is_zero():
        raise InputError("zero recurrence")
    m_max = rec.max_shift
    by_shift = list(zip(rec.shifts(), rec.rows))
    damp = [1]
    for t in range(1, m_max + 1):
        if any(_zeval(p, -t) for m, p in by_shift if m >= t):
            damp = _zmul(damp, [t, 1])  # (n + t)
    rows: List[List[int]] = []
    for m, p in by_shift:
        q, _ = _zshift(_zmul(p, damp), -m)
        acc: List[List[int]] = [[]]  # p(theta - m) by Horner in theta
        for c in reversed(q):
            acc = [[0] + r if r else [] for r in _dstep(acc)]  # theta o acc = z (d o acc)
            acc[0] = _zadd(acc[0], [c])
        rows = [_zadd(x, [0] * (m_max - m) + y) for x, y in itertools.zip_longest(rows, acc, fillvalue=[])]
    return DiffOp(rows)
