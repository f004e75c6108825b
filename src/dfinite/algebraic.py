"""Guess-and-prove algebraicity certification.

A candidate polynomial P(z, y) with P(z, f) = O(z^sigma) is guessed by
exact kernel computation on products z^i f^j, ordered by z-degree
first, so that each prime's kernel vector comes from the order basis
the operator guesser uses (``linalg.kernel_vector_exact``).  It is
certified as ``minimize`` certifies any annihilator.  Let ann kill P's
roots and g be the root with g(0) = f(0), a simple root of P(0, y).
Then P(z, f) = (f - g) u with u(0) != 0, so the guesser's integer
system decides f - g = O(z^N) without computing g; ann(f) = 0 exactly
when the right remainder of ann by op kills f (``certify_annihilates``);
so f - g solves ann, and N above ``indicial_bound(ann)`` forces f = g.
A True answer is a proof that P(z, f) = 0; exhaustion proves nothing.

A ``BivarPoly`` stores its normal form, primitive integer y-rows over
Z[z], as ``DiffOp`` stores its rows, and computations over Q(z)[y] run
fraction-free on such rows: one pseudo-division, ``_ydivrem``, serves
the primitive remainder sequence of ``squarefree_in_y`` and the
reductions modulo P of ``annihilator_of_roots``, whose dependences come
from the Bareiss elimination ``linalg._first_dependence`` that ``ore``
uses too.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import InputError, NotSquarefree, PrecisionTooLow, RootNotSeparable
from .linalg import ShiftSystem, _first_dependence, kernel_vector_exact
from .minimize import GUARD_TERMS, certify_annihilates
from .ore import DiffOp, _int_rows, op_right_divrem
from .polys import Poly, _primitive_rows, _zadd, _zderiv, _zmul, _zsub, format_poly
from .rationals import cleared
from .series import TruncSeries, indicial_bound, unroll


class BivarPoly:
    """P(z, y) in normal form: ``rows`` holds its y-coefficients as
    integer lists over Z[z], made primitive over Z[z] with the leading
    coefficient of the last one positive, as ``DiffOp`` stores its rows;
    so polynomials that differ by a factor in Q(z)* are equal."""

    __slots__ = ("rows",)

    def __init__(self, y_coeffs: Sequence):
        rows = _int_rows(y_coeffs)
        self.rows = tuple(_primitive_rows(rows)) if rows else ()

    @property
    def y_coeffs(self) -> Tuple[Poly, ...]:
        return tuple(map(Poly, self.rows))

    @property
    def deg_y(self) -> int:
        return len(self.rows) - 1

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if isinstance(other, BivarPoly):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(tuple, self.rows)))

    def __repr__(self):
        parts = []
        for j in range(self.deg_y, -1, -1):
            c = Poly(self.rows[j])
            if c.is_zero():
                continue
            yj = "" if j == 0 else ("*y" if j == 1 else "*y^%d" % j)
            parts.append("(%s)%s" % (format_poly(c), yj))
        return "BivarPoly(%s)" % " + ".join(parts)


def squarefree_in_y(p: BivarPoly) -> BivarPoly:
    """Squarefree part with respect to y: P divided by its gcd over Q(z)
    with dP/dy, which the primitive remainder sequence over Z[z] gives
    (Collins, JACM 1967): each pseudo-remainder is made primitive over
    Z[z] before the next division."""
    if p.deg_y <= 0:
        return p
    a = p.rows
    b = [[j * c for c in a[j]] for j in range(1, len(a))]
    while len(b) > 1:
        r = _ydivrem(a, b)[1]
        if not r:
            break
        a, b = b, _primitive_rows(r)
    else:
        return p
    q, r, _ = _ydivrem(p.rows, b)
    if r:
        raise AssertionError("gcd does not divide")
    return BivarPoly(q)


def _ymul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    """The product in Z[z][y] of y-coefficient lists over Z[z]."""
    if not a or not b:
        return []
    out: List[List[int]] = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = _zadd(out[i + j], _zmul(x, y))
    return out


def _ydivrem(a: List[List[int]], m: List[List[int]]) -> Tuple[List[List[int]], List[List[int]], int]:
    """Pseudo-division in Z[z][y]: (q, r, e) with lc(m)^e a = q m + r and
    deg_y r < deg_y m, for y-coefficient lists over Z[z] (m's last one
    nonzero).  Each step cancels r's top coefficient c by
    r <- lc(m) r - c y^k m, so no division happens at all."""
    r = list(a)
    while r and not r[-1]:
        r.pop()
    nm, lead = len(m) - 1, m[-1]
    q: List[List[int]] = [[] for _ in range(len(r) - nm)]
    e = 0
    while len(r) > nm:
        c, k = r[-1], len(r) - 1 - nm
        r = [_zsub(_zmul(lead, x), _zmul(c, m[i - k]) if i >= k else []) for i, x in enumerate(r)]
        q = [_zmul(lead, x) for x in q]
        q[k] = c
        e += 1
        while r and not r[-1]:
            r.pop()
    return q, r, e


def _algebraic_system(f: TruncSeries, max_dy: int, max_dz: int) -> ShiftSystem:
    """Row m is the z^m coefficient of sum c_ij z^i f^j times D^max_dy,
    D the least common denominator of f's terms: column (j, i), at
    (max_dy + 1) i + j, is D^(max_dy - j) F^j shifted by i for the
    integer series F = D f.  The scale is one nonzero integer, so the
    kernel is that over f."""
    n = f.trunc_order
    big, den = cleared(f.coeffs)
    powers = [[1] + [0] * (n - 1)]
    for _ in range(max_dy):
        powers.append(_zmul(powers[-1], big)[:n])
    seqs = [[den ** (max_dy - j) * x for x in pw] for j, pw in enumerate(powers)]
    return ShiftSystem(seqs, (max_dy + 1) * (max_dz + 1), n)


def _vanishes_on(p: BivarPoly, f: TruncSeries) -> bool:
    """Whether P(z, f) = O(z^n), n the length of f, decided over Z: the
    algebraic guesser's system times P's rows, in its (j, i) column
    order, i outer, is D^deg_y P(z, f) row by row."""
    dz = max(map(len, p.rows)) - 1
    vec = [r[i] if i < len(r) else 0 for i in range(dz + 1) for r in p.rows]
    return not any(_algebraic_system(f, p.deg_y, dz).times(vec))


def guess_algebraic(f: TruncSeries, max_dy: int, max_dz: int) -> Optional[BivarPoly]:
    """Primitive squarefree-in-y candidate P with P(z, f) = O(z^full), or
    None when the kernel is trivial (rigorous, via a mod-p rank bound)."""
    if max_dy < 0 or max_dz < 0:
        raise InputError("degree bounds must be nonnegative, not (%d, %d)" % (max_dy, max_dz))
    needed = (max_dy + 1) * (max_dz + 1) + GUARD_TERMS
    if f.trunc_order < needed:
        raise PrecisionTooLow(
            "need %d terms for degrees (%d, %d)" % (needed, max_dy, max_dz),
            needed=needed,
        )
    system = _algebraic_system(f, max_dy, max_dz)
    vec = kernel_vector_exact(system, system.times)
    if vec is None:
        return None
    cand = BivarPoly([vec[j::max_dy + 1] for j in range(max_dy + 1)])
    if cand.is_zero() or cand.deg_y < 1:
        return None
    cand = squarefree_in_y(cand)
    if not _vanishes_on(cand, f):
        # squarefree reduction can drop the annihilating multiple factor
        return None
    return cand


def annihilator_of_roots(p: BivarPoly) -> DiffOp:
    """Operator whose solution space is spanned by the roots of P.

    Differentiates the generic root y in Q(z)[y]/(P), with
    y' = -P_z / P_y, and returns the first linear dependence among the
    derivatives of y.  An element is a pair (w, s): n numerators over
    Z[z] (n = deg_y P) and one Z[z] denominator, brought to their
    primitive form after each step; products are reduced modulo P by
    pseudo-division, so the arithmetic stays over Z[z].  1/P_y is the
    first dependence among P_y y^i mod P (i < n) and 1; one among the
    P_y y^i alone means P_y is a zero divisor, i.e. P has a repeated
    root in y (NotSquarefree).
    """
    if p.deg_y < 1:
        raise InputError("need positive y-degree")
    n = p.deg_y
    mod = p.rows
    p_y = [[j * c for c in mod[j]] for j in range(1, n + 1)]
    p_z = [_zderiv(c) for c in mod]

    def reduced(a: List[List[int]], s: List[int]) -> Tuple[List[List[int]], List[int]]:
        # a / s modulo P, as n numerators over one denominator
        _, r, e = _ydivrem(a, mod)
        for _ in range(e):
            s = _zmul(mod[-1], s)
        return r + [[] for _ in range(n - len(r))], s

    rows = [reduced([[]] * i + p_y, [1]) for i in range(n)]
    inv = _first_dependence(rows + [([[1]] + [[] for _ in range(n - 1)], [1])])
    if len(inv) <= n:
        raise NotSquarefree("P and dP/dy share a factor")
    # sum_(i<n) inv_i P_y y^i = -inv_n, so y' = P_z sum inv_i y^i / inv_n
    w_yp, s_yp = _normalized(*reduced(_ymul(p_z, inv[:n]), inv[n]))

    def derive(w: List[List[int]], s: List[int]) -> Tuple[List[List[int]], List[int]]:
        # (w / s)' = ((s w_j' - s' w_j) y^j + s (sum j w_j y^(j-1)) y') / s^2
        chain, t = reduced(_ymul([[j * c for c in w[j]] for j in range(1, n)], w_yp), s_yp)
        ds = _zderiv(s)
        own = [_zmul(t, _zsub(_zmul(s, _zderiv(x)), _zmul(ds, x))) for x in w]
        return _normalized([_zadd(x, _zmul(s, y)) for x, y in zip(own, chain)], _zmul(_zmul(s, s), t))

    def derivatives():
        cur = _normalized(*reduced([[], [1]], [1]))  # y
        for _ in range(n + 1):
            yield cur
            cur = derive(*cur)

    dep = _first_dependence(derivatives())
    if dep is None:
        raise AssertionError("dependence must appear at order <= deg_y")
    return DiffOp(dep)


def _normalized(w: List[List[int]], s: List[int]) -> Tuple[List[List[int]], List[int]]:
    """w / s with the common factor of w and s over Z[z] divided out."""
    *w, s = _primitive_rows(w + [s])
    return w, s


def certify_root(op: DiffOp, init: TruncSeries, p: BivarPoly) -> bool:
    """Proof that P(z, f) = 0 for the solution f of op pinned by init.

    When f(0) is a simple root of P(0, y), P has one power-series root g
    with g(0) = f(0), and P(z, f) = (f - g) u with u(0) != 0, so the
    algebraic guesser's integer system decides f - g = O(z^N).  g solves
    ann, the annihilator of P's roots; den ann = Q o op + R, so ann(f) =
    0 exactly when R(f) = 0, which ``certify_annihilates`` proves.  Then
    f - g solves ann, and N past ann's valuation bound forces f = g.  A
    multiple root f(0) raises RootNotSeparable.
    """
    return _certified_annihilator(op, init, p) is not None


def _certified_annihilator(op: DiffOp, init: TruncSeries, p: BivarPoly) -> Optional[DiffOp]:
    """The annihilator of P's roots if ``certify_root`` proves P(z, f) = 0,
    else None."""
    ann = annihilator_of_roots(p)
    need = max(indicial_bound(ann) + 2, init.trunc_order, op.order + 2) + GUARD_TERMS
    f = unroll(op, init, need)
    y0 = f.coeffs[0]
    p0 = Poly([r[0] if r else 0 for r in p.rows])
    if p0(y0) == 0 and p0.derivative()(y0) == 0:
        raise RootNotSeparable("initial value is a multiple root of P(0, y)")
    if not _vanishes_on(p, f):
        return None
    # f - g = O(z^need) past ann's bound, so ann(f) = 0 forces f = g
    rem = op_right_divrem(ann, op)[1]
    return ann if not rem or certify_annihilates(op, DiffOp(rem), f) else None


def prove_algebraic(
    op: DiffOp,
    init: TruncSeries,
    max_dy: int = 8,
    max_dz: int = 8,
) -> Optional[Tuple[BivarPoly, DiffOp]]:
    """Doubling search for a certified minimal-degree-bounded annihilating
    polynomial; returns (P, annihilator-of-roots) or None on exhaustion
    (which proves nothing)."""
    dy, dz = 1, max(op.degree(), 1)
    while True:
        dy_c = min(dy, max_dy)
        dz_c = min(dz, max_dz)
        needed = (dy_c + 1) * (dz_c + 1) + GUARD_TERMS
        f = unroll(op, init, max(needed, init.trunc_order))
        cand = guess_algebraic(f, dy_c, dz_c)
        if cand is not None:
            try:
                ann = _certified_annihilator(op, init, cand)
                if ann is not None:
                    return cand, ann
            except RootNotSeparable:
                pass
        if dy_c == max_dy and dz_c == max_dz:
            return None
        dy *= 2
        dz *= 2
