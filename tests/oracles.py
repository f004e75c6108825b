"""Reference implementations the tests compare production code against.

These are the straightforward versions: Euclid over ``Fraction`` for the
polynomial gcd, elimination over Q(z) with a gcd after every ``RatFunc``
operation for lclm and cofactors, and a brute-force fraction iteration
for the p-curvature.  They are slow and deliberately independent of the
fraction-free Z[z] kernels in ``dfinite``.
"""

import math
from typing import List, Optional, Tuple

from dfinite import DiffOp, Poly
from dfinite.algebraic import _invert_mod, _mul_mod, _ratfunc_poly_divmod
from dfinite.heuristics import _FpPoly, _op_mod_p
from dfinite.ore import _d_compose, _to_ratfuncs
from dfinite.polys import RatFunc
from dfinite.rationals import QQ


# ---------------------------------------------------------------------------
# gcd over Q
# ---------------------------------------------------------------------------


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
        _, r = a.divmod(b)
        a, b = b, (_primitive(r) if not r.is_zero() else r)
    return a.monic()


# ---------------------------------------------------------------------------
# Elimination over Q(z)
# ---------------------------------------------------------------------------


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
    return None if dep is None else DiffOp.from_ratfuncs(dep)


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
    p_y = [RatFunc.from_poly(c) for c in p.y_derivative().y_coeffs]
    p_z = [RatFunc.from_poly(c) for c in p.z_derivative().y_coeffs]
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
# p-curvature
# ---------------------------------------------------------------------------


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


def p_curvature_is_zero_oracle(op: DiffOp, p: int) -> Optional[List[List[Tuple[List[int], List[int]]]]]:
    """Independent brute-force iteration with explicit fraction entries
    (numerator, denominator polynomial pairs over F_p); used to cross-check
    the production recursion entry by entry.  Returns the final matrix."""
    if p <= op.order:
        return None
    coeffs = _op_mod_p(op, p)
    if coeffs is None or not coeffs[op.order]:
        return None
    r = op.order
    lead = coeffs[r]

    def f_reduce(a):
        num, den = a
        if not num:
            return ([], [1])
        g = _fp_gcd(num, den, p)
        if len(g) > 1:
            num = _fp_divmod(num, g, p)[0]
            den = _fp_divmod(den, g, p)[0]
        return (num, den)

    def f_add(a, b):
        na, da = a
        nb, db = b
        return f_reduce((
            _FpPoly.add(_FpPoly.mul(na, db, p), _FpPoly.mul(nb, da, p), p),
            _FpPoly.mul(da, db, p)))

    def f_mul(a, b):
        return f_reduce((_FpPoly.mul(a[0], b[0], p), _FpPoly.mul(a[1], b[1], p)))

    def f_deriv(a):
        num, den = a
        dn = _FpPoly.add(
            _FpPoly.mul(_FpPoly.deriv(num, p), den, p),
            _FpPoly.scale(_FpPoly.mul(num, _FpPoly.deriv(den, p), p), p - 1, p),
            p,
        )
        return f_reduce((dn, _FpPoly.mul(den, den, p)))

    a_mat = [[([], [1]) for _ in range(r)] for _ in range(r)]
    for i in range(r - 1):
        a_mat[i][i + 1] = ([1], [1])
    for j in range(r):
        a_mat[r - 1][j] = (_FpPoly.scale(coeffs[j], p - 1, p), list(lead))
    cur = [row[:] for row in a_mat]
    for _ in range(1, p):
        nxt = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                acc = f_deriv(cur[i][j])
                for t in range(r):
                    acc = f_add(acc, f_mul(cur[i][t], a_mat[t][j]))
                nxt[i][j] = acc
        cur = nxt
    return cur
