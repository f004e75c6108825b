"""Guess-and-prove algebraicity certification.

A candidate polynomial P(z, y) with P(z, f) = O(z^sigma) is guessed by
exact kernel computation on products z^i f^j; it is then certified by
building the operator annihilating all roots of P, forming the LCLM with
the input annihilator, and applying the valuation-bound zero test to
f - g where g is the power-series root of P singled out by Newton
iteration from the initial terms.  A True answer is a proof that
P(z, f) = 0; exhaustion of the search proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, NotSquarefree, PrecisionTooLow, RootNotSeparable
from .linalg import ShiftSystem, _first_dependence, kernel_vector_exact
from .minimize import GUARD_TERMS
from .ore import DiffOp, lclm
from .polys import Poly, RatFunc, _clear_ratfuncs, _zclear, _zmul
from .rationals import QQ, Q0
from .series import TruncSeries, indicial_bound, is_zero_series, unroll, zero_test


@dataclass
class BivarPoly:
    """P(z, y) stored as y-coefficients, each a polynomial in z."""

    y_coeffs: Tuple[Poly, ...]

    def __init__(self, y_coeffs: Sequence[Poly]):
        cs = [c if isinstance(c, Poly) else Poly(c) for c in y_coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.y_coeffs = tuple(cs)

    @property
    def deg_y(self) -> int:
        return len(self.y_coeffs) - 1

    def is_zero(self) -> bool:
        return not self.y_coeffs

    def __eq__(self, other):
        if isinstance(other, BivarPoly):
            return _primitive(self).y_coeffs == _primitive(other).y_coeffs
        return NotImplemented

    def evaluate_series(self, f: TruncSeries) -> TruncSeries:
        """P(z, f(z)) truncated at the precision of f."""
        n = f.trunc_order
        acc = [Q0] * n
        for c in reversed(self.y_coeffs):
            acc = _series_mul(acc, list(f.coeffs), n)
            for i, q in enumerate(c.coeffs):
                if i < n:
                    acc[i] += q
        return TruncSeries(acc)

    def y_derivative(self) -> "BivarPoly":
        return BivarPoly([self.y_coeffs[j].scale(QQ(j)) for j in range(1, len(self.y_coeffs))])

    def z_derivative(self) -> "BivarPoly":
        return BivarPoly([c.derivative() for c in self.y_coeffs])

    def eval_y_at_zero_poly(self) -> Poly:
        """P(0, y) as a univariate polynomial in y."""
        return Poly([c[0] for c in self.y_coeffs])

    def __repr__(self):
        from .polys import format_poly

        parts = []
        for j in range(self.deg_y, -1, -1):
            c = self.y_coeffs[j]
            if c.is_zero():
                continue
            yj = "" if j == 0 else ("*y" if j == 1 else "*y^%d" % j)
            parts.append("(%s)%s" % (format_poly(c), yj))
        return "BivarPoly(%s)" % " + ".join(parts)


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


def _primitive(p: BivarPoly) -> BivarPoly:
    from .ore import _normalize_content

    if p.is_zero():
        return p
    return BivarPoly(_normalize_content(list(p.y_coeffs)))


def squarefree_in_y(p: BivarPoly) -> BivarPoly:
    """Squarefree part with respect to y (gcd over Q(z) with dP/dy)."""
    if p.deg_y <= 0:
        return _primitive(p)
    a = [RatFunc.from_poly(c) for c in p.y_coeffs]
    b = [RatFunc.from_poly(c) for c in p.y_derivative().y_coeffs]
    g = _ratfunc_poly_gcd(a, b)
    if len(g) <= 1:
        return _primitive(p)
    q, r = _ratfunc_poly_divmod(a, g)
    if any(not x.is_zero() for x in r):
        raise AssertionError("gcd does not divide")
    return _primitive(BivarPoly(_clear_ratfuncs(q)[0]))


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


def _ratfunc_poly_gcd(a: List[RatFunc], b: List[RatFunc]) -> List[RatFunc]:
    a = [x for x in a]
    b = [x for x in b]
    while b and any(not x.is_zero() for x in b):
        _, r = _ratfunc_poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _algebraic_system(f: TruncSeries, max_dy: int, max_dz: int) -> ShiftSystem:
    """Row m is the z^m coefficient of sum c_ij z^i f^j times D^max_dy,
    D the least common denominator of f's terms: column (i, j), j outer,
    is D^(max_dy - j) F^j shifted by i for the integer series F = D f.
    The scale is one nonzero integer, so the kernel is that over f."""
    n = f.trunc_order
    den = lcm(*(c.denominator for c in f.coeffs))
    big = [c.numerator * (den // c.denominator) for c in f.coeffs]
    powers = [[1] + [0] * (n - 1)]
    for _ in range(max_dy):
        powers.append(_zmul(powers[-1], big)[:n])
    seqs = [[den ** (max_dy - j) * x for x in pw] for j, pw in enumerate(powers)]
    return ShiftSystem(seqs, [(j, i) for j in range(max_dy + 1) for i in range(max_dz + 1)], n)


def guess_algebraic(f: TruncSeries, max_dy: int, max_dz: int) -> Optional[BivarPoly]:
    """Primitive squarefree-in-y candidate P with P(z, f) = O(z^full), or
    None when the kernel is trivial (rigorous, via a mod-p rank bound)."""
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
    y_coeffs = [[Q0] * (max_dz + 1) for _ in range(max_dy + 1)]
    for (j, i), c in zip(system.cols, vec):
        y_coeffs[j][i] = c
    cand = BivarPoly([Poly(cs) for cs in y_coeffs])
    if cand.is_zero() or cand.deg_y < 1:
        return None
    cand = squarefree_in_y(cand)
    if not is_zero_series(cand.evaluate_series(f)):
        # squarefree reduction can drop the annihilating multiple factor
        return None
    return cand


def annihilator_of_roots(p: BivarPoly) -> DiffOp:
    """Operator whose solution space is spanned by the roots of P.

    Differentiates the generic root (y' = -P_z/P_y in Q(z)[y]/(P)) and
    returns the first linear dependence among the derivatives.
    """
    if p.deg_y < 1:
        raise InputError("need positive y-degree")
    sf = squarefree_in_y(p)
    if sf.deg_y != p.deg_y:
        raise NotSquarefree("polynomial has repeated roots in y")
    n = p.deg_y
    mod = [RatFunc.from_poly(c) for c in p.y_coeffs]
    p_y = [RatFunc.from_poly(c) for c in p.y_derivative().y_coeffs]
    p_z = [RatFunc.from_poly(c) for c in p.z_derivative().y_coeffs]
    inv_py = _invert_mod(p_y, mod)
    if inv_py is None:
        raise NotSquarefree("P and dP/dy share a factor")
    y_prime = _mul_mod([RatFunc.const(-1) * c for c in p_z], inv_py, mod)

    def derive(elt: List[RatFunc]) -> List[RatFunc]:
        # d/dz on Q(z)[y]/(P) with y' = y_prime
        out = [c.derivative() for c in elt]
        dy = [RatFunc.const(QQ(j)) * elt[j] for j in range(1, len(elt))]
        out_dy = _mul_mod(dy, y_prime, mod)
        m = max(len(out), len(out_dy))
        return [
            (out[i] if i < len(out) else RatFunc.const(0))
            + (out_dy[i] if i < len(out_dy) else RatFunc.const(0))
            for i in range(m)
        ]

    def rows():
        _, cur = _ratfunc_poly_divmod([RatFunc.const(0), RatFunc.const(1)], mod)  # y
        for _ in range(n + 1):
            yield _cleared(cur + [RatFunc.const(0)] * (n - len(cur)))
            cur = derive(cur)

    dep = _first_dependence(rows())
    if dep is None:
        raise AssertionError("dependence must appear at order <= deg_y")
    return DiffOp._from_int_rows(dep)


def _cleared(vec: List[RatFunc]) -> Tuple[List[List[int]], List[int]]:
    """(w, s) over Z[z] with vec = w / s: s is the denominators' lcm
    times the integer that clears every coefficient."""
    polys, den = _clear_ratfuncs(vec)
    *w, s = _zclear(polys + [den])
    return w, s


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


def newton_root(p: BivarPoly, init: TruncSeries, n_terms: int) -> Optional[TruncSeries]:
    """Power-series root of P agreeing with the given initial terms.

    Returns None when no root can match (a decisive refutation: the seed
    is not a root of P(0, y), or the unique continuation from a simple
    seed diverges from the supplied terms).  A multiple seed root is a
    genuine ambiguity and raises RootNotSeparable.
    """
    if init.trunc_order < 1:
        raise InputError("need at least one initial term")
    y0 = init.coeffs[0]
    p0 = p.eval_y_at_zero_poly()
    if p0(y0) != 0:
        return None
    if p0.derivative()(y0) == 0:
        raise RootNotSeparable("initial value is a multiple root of P(0, y)")
    py = p.y_derivative()
    cur = [y0]
    prec = 1
    while prec < n_terms:
        prec = min(2 * prec, n_terms)
        g = TruncSeries((cur + [Q0] * prec)[:prec])
        num = p.evaluate_series(g)
        den = py.evaluate_series(g)
        inv_den = _series_inverse(list(den.coeffs), prec)
        corr = _series_mul(list(num.coeffs), inv_den, prec)
        cur = [g.coeffs[i] - corr[i] for i in range(prec)]
    out = TruncSeries(cur[:n_terms])
    for i in range(min(init.trunc_order, n_terms)):
        if out.coeffs[i] != init.coeffs[i]:
            return None  # the unique continuation disagrees, so P(z, f) != 0
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


def certify_root(op: DiffOp, init: TruncSeries, p: BivarPoly) -> bool:
    """Proof that P(z, f) = 0 for the solution f of op pinned by init.

    Forms M = lclm(op, annihilator of P's roots); f - g solves M for the
    Newton root g matching init, so the valuation-bound zero test on the
    truncation of f - g decides equality exactly.
    """
    ann = annihilator_of_roots(p)
    m_op = lclm(op, ann)
    b0 = indicial_bound(m_op)
    need = max(b0 + 2, init.trunc_order, op.order + 2) + GUARD_TERMS
    f = unroll(op, init, need)
    g = newton_root(p, f.prefix(max(op.order, 1)), need)
    if g is None:
        return False
    h = TruncSeries([a - b for a, b in zip(f.coeffs, g.coeffs)])
    return zero_test(m_op, h)


def prove_algebraic(
    op: DiffOp,
    init: TruncSeries,
    max_dy: int = 8,
    max_dz: int = 8,
) -> Optional[Tuple[BivarPoly, DiffOp]]:
    """Doubling search for a certified minimal-degree-bounded annihilating
    polynomial; returns (P, annihilator-of-roots) or None on exhaustion
    (which proves nothing)."""
    ok_pairs = []
    dy, dz = 1, max(op.degree(), 1)
    while True:
        dy_c = min(dy, max_dy)
        dz_c = min(dz, max_dz)
        ok_pairs.append((dy_c, dz_c))
        needed = (dy_c + 1) * (dz_c + 1) + GUARD_TERMS
        f = unroll(op, init, max(needed, init.trunc_order))
        cand = guess_algebraic(f, dy_c, dz_c)
        if cand is not None:
            try:
                if certify_root(op, init, cand):
                    return cand, annihilator_of_roots(cand)
            except RootNotSeparable:
                pass
        if dy_c == max_dy and dz_c == max_dz:
            return None
        dy *= 2
        dz *= 2
