"""Local analysis at singular points: indicial polynomials, rational
exponents, and Frobenius bases with logarithm detection.

A finite point is handled by shifting it to the origin.  Infinity needs
no substitution: z = 1/t sends theta to -theta, so its theta rows are
the rows at the origin in reverse order, read at -lambda, with one sign
(``_theta_at_infinity``).  Points that are algebraic of degree > 1 over Q
are handled as one cluster through arithmetic in Q[a]/(m(a)); any zero
divisor encountered on the way splits the modulus and the analysis is
rerun per branch (see :mod:`dfinite.quotient`).  The exponent candidates
are the rational roots of the norm Res_a(P(a, lam), m(a)) of the
indicial polynomial P.  The norm is multiplicative in both arguments:
in P, so the factor h(lam) shared by every power of a (lam (lam - 1)
... at a typical cluster) comes out as h^deg(m) and only P / h is
evaluated at points lam; in the modulus, so a branch that the exact
check of a candidate splits off reuses the cluster's candidates instead
of computing its own resultant.

At an algebraic point a the coefficients are re-expanded by Taylor's
formula: the t^u coefficient of p(t + a) is
(p^(u)/u!)(a) = sum_k C(k, u) c_k a^(k-u), so each is one integer
pseudo-remainder by the cleared modulus and no product in the quotient
ring.  Ring elements are integer numerators over one denominator, and
rationals -- the falling factorials of the theta form, exponents, the
points where lambda-polynomials are evaluated -- scale the numerators
and the denominator; they are never lifted into the ring and multiplied
as elements.

The analysis runs on the coefficient values themselves: ``Fraction``s at
rational points and infinity, ``ModElt``s on a cluster branch, from
which ``ore.theta_form`` builds the theta rows as it does over Z for
``ode_to_rec``.  Both
have ``+ - * /`` and are true when nonzero; the ring itself is needed
only to split the modulus.  A constant takes its branch's type from a
value already at hand (``c * 0`` for a zero, one unit per branch).

The series construction follows the classical method of Frobenius.  For
the exponents in one congruence class mod 1, processed downwards, the
solution attached to an exponent mu is extracted from the deformation
series sum_m c_m(mu + eps) t^(mu + eps + m) computed over the truncated
ring K[eps]/(eps^P); expanding t^eps into powers of eps * log(t) turns
the eps-coefficients into genuine (possibly logarithmic) solutions.  A
resonance where division by the indicial value fails with a nonzero
right-hand side is exactly where a logarithm enters.

Frobenius runs only when the rational roots r, with multiplicities m_r,
fill the indicial degree, and then q_0 = lc prod_r (lam - r)^(m_r)
exactly, lc its leading coefficient.  On a cluster branch this holds in
Q[a]/(g)[lam]: the modulus is squarefree, so the ring is a product of
number fields; lc is a unit (``_indicial_over`` splits on it otherwise),
and ``rational_roots_nf`` counted each m_r by exact division by
(lam - r) on a branch where each value it tested is 0 or a unit, so m_r
is the multiplicity in every field and the roots fill the degree in
each.  The pure-series steps that only flag logarithms therefore divide
by q_0(mu + m) as the one inverse of lc times a rational.
"""

from __future__ import annotations

from functools import reduce
from math import comb, factorial, lcm, prod
from typing import Dict, List, Optional, Tuple

from .errors import InputError, IrregularPoint, ZeroDivisorSplit
from .ore import DiffOp, theta_form
from .polys import (Poly, _zclear, _zderiv, _zeval, _zexquo, _zgcd, _zmul, _zprem,
                    _zrational_roots, _zresultant, _zshift, _ztrim, format_poly)
from .quotient import ModRing, split_cases
from .rationals import QQ, Q1


# ---------------------------------------------------------------------------
# Singular points
# ---------------------------------------------------------------------------


class SingularPoint:
    """Rational point, algebraic cluster (by modulus), or infinity."""

    __slots__ = ("kind", "value", "modulus")

    RATIONAL = "rational"
    ALGEBRAIC = "algebraic"
    INFINITY = "infinity"

    def __init__(self, kind: str, value=None, modulus: Optional[Poly] = None):
        self.kind = kind
        self.value = value
        self.modulus = modulus

    @staticmethod
    def rational(v) -> "SingularPoint":
        return SingularPoint(SingularPoint.RATIONAL, value=QQ(v) if isinstance(v, int) else v)

    @staticmethod
    def algebraic(modulus: Poly) -> "SingularPoint":
        return SingularPoint(SingularPoint.ALGEBRAIC, modulus=modulus.monic())

    @staticmethod
    def infinity() -> "SingularPoint":
        return SingularPoint(SingularPoint.INFINITY)

    def sort_key(self):
        if self.kind == self.RATIONAL:
            return (0, abs(self.value), self.value)
        if self.kind == self.ALGEBRAIC:
            return (1, self.modulus.degree, tuple(self.modulus.coeffs))
        return (2,)

    def __eq__(self, other):
        if not isinstance(other, SingularPoint):
            return NotImplemented
        return (self.kind, self.value, self.modulus) == (other.kind, other.value, other.modulus)

    def __hash__(self):
        return hash((self.kind, self.value, self.modulus))

    def __repr__(self):
        if self.kind == self.RATIONAL:
            return "SingularPoint(z=%s)" % (self.value,)
        if self.kind == self.ALGEBRAIC:
            return "SingularPoint(%s = 0)" % format_poly(self.modulus)
        return "SingularPoint(oo)"

    def label(self) -> str:
        if self.kind == self.RATIONAL:
            return str(self.value)
        if self.kind == self.ALGEBRAIC:
            return "root of %s" % format_poly(self.modulus)
        return "infinity"


def singularities(op: DiffOp) -> List[SingularPoint]:
    """Singular points of the operator: rational roots of the leading
    coefficient, the remaining squarefree cofactor as one cluster, and
    infinity (always included; it is cheap to analyze)."""
    if op.is_zero():
        raise InputError("zero operator")
    lead = op.rows[-1]
    points: List[SingularPoint] = []
    if len(lead) > 1:
        sf = _zexquo(lead, _zgcd(lead, _zderiv(lead)))
        for a, b, _ in _zrational_roots(sf):
            points.append(SingularPoint.rational(QQ(a, b)))
            sf = _zexquo(sf, [-a, b])
        if len(sf) > 1:
            points.append(SingularPoint.algebraic(Poly(sf)))
    points.append(SingularPoint.infinity())
    points.sort(key=SingularPoint.sort_key)
    return points


# ---------------------------------------------------------------------------
# Theta form and indicial data.  A lambda-polynomial, a row q_k of
# ``ore.theta_form``, is a plain list of the branch's values:
# ``_rows_over_z`` makes it ready for evaluation over Z at rationals, and
# ``_jet_eval`` evaluates it at a jet.
# ---------------------------------------------------------------------------


def _local_coeffs(op: DiffOp, point: SingularPoint, ring: Optional[ModRing]):
    """Operator coefficients recentred at a finite point: ``Fraction``s,
    or elements of ``ring``, the quotient ring of an algebraic point."""
    if point.kind == SingularPoint.RATIONAL:
        out = []
        for p in op.rows:
            cs, den = _zshift(p, point.value)
            out.append([QQ(c, den) for c in cs])
        return out
    # algebraic: the t^u coefficient of p(t + a) is (p^(u)/u!)(a), read off
    # as the remainder of sum_k C(k, u) c_k z^(k-u) by the modulus
    return [[ring.from_ints([comb(k, u) * p[k] for k in range(u, len(p))], 1) for u in range(len(p))]
            for p in op.rows]


class IndicialData:
    """Indicial polynomial at a point plus its rational-root profile."""

    __slots__ = (
        "point", "branch", "poly", "theta", "degree", "rational_roots",
        "splits_distinct_rational", "ring",
    )

    def __init__(self, point, branch, theta, degree, rational_roots, ring):
        self.point = point
        self.branch = branch  # modulus of the branch for algebraic clusters
        self.theta = theta    # [q_0, q_1, ...] of theta_form, kept for Frobenius
        self.poly = theta[0]  # lambda-coefficients: Fractions, or elements of ring
        self.degree = degree
        self.rational_roots = rational_roots  # [(root, multiplicity)]
        distinct = len(rational_roots)
        total = sum(m for _, m in rational_roots)
        self.splits_distinct_rational = (
            distinct == degree and total == degree and all(m == 1 for _, m in rational_roots)
        )
        self.ring = ring  # the branch's ModRing; None off clusters

    def as_q_poly(self) -> Poly:
        """The indicial polynomial over Q (rational/infinity points only)."""
        if self.ring is None:
            return Poly(self.poly)
        raise InputError("indicial polynomial lives in a quotient ring")

    def monic_q_poly(self) -> Poly:
        return self.as_q_poly().monic()

    def root_multiplicity(self, r) -> int:
        for root, m in self.rational_roots:
            if root == r:
                return m
        return 0

    def __repr__(self):
        return "IndicialData(point=%s, degree=%d, roots=%s)" % (
            self.point.label(), self.degree, self.rational_roots)


def _theta_at_infinity(op: DiffOp) -> List[List]:
    """The theta rows at infinity, reflected from the rows q_k at 0.

    For t = 1/z and u = -lam, L(z^u) = z^(u+v) sum_k q_k(u) z^k reads
    L(t^lam) = t^(lam-v-kmax) sum_j q_(kmax-j)(-lam) t^j, so row j is
    q_(kmax-j)(-lam).  The normal form of L in t differs from L only by
    a power of t and by the sign s that makes its leading coefficient,
    the lowest nonzero coefficient of L's top row times (-1)^order,
    positive: a common integer or non-monomial factor of its rows would
    pull back to a common factor of L's rows, which are primitive."""
    _, qs = theta_form(op.rows)
    top = op.rows[-1]
    s = 1 if (-1) ** op.order * next(c for c in top if c) > 0 else -1
    return [[QQ(s * c if k % 2 == 0 else -s * c) for k, c in enumerate(q)] for q in reversed(qs)]


def _indicial_over(op: DiffOp, point: SingularPoint,
                   ring: Optional[ModRing]) -> Tuple[List[List], int]:
    """(theta rows [q_0, q_1, ...] at the point, indicial degree); the
    indicial polynomial is q_0.  ``ring`` as in :func:`_local_coeffs`."""
    if point.kind == SingularPoint.INFINITY:
        qs = _theta_at_infinity(op)
    else:
        _, qs = theta_form(_local_coeffs(op, point, ring))
    ind = qs[0]
    # a zero-divisor leading coefficient (ind is trimmed, so ind[-1] is
    # nonzero) means the degree differs between branches; force a split
    # before reporting a degree
    if ring is not None:
        ring.split_on(ind[-1].nums)
    return qs, len(ind) - 1


class _CandidateSplit(ZeroDivisorSplit):
    """A split taken by the exact root check of :func:`rational_roots_nf`,
    carrying the sorted candidates it was checking: they still hold every
    root on either factor."""

    def __init__(self, split: ZeroDivisorSplit, candidates: List):
        super().__init__(split.factor, split.cofactor)
        self.candidates = candidates


def rational_roots_nf(ind: List, ring: ModRing,
                      candidates: Optional[List] = None) -> List[Tuple[object, int]]:
    """Rational roots (with multiplicity) of a lambda-polynomial over the
    quotient ring.  A root that holds on only part of the modulus splits
    it (``ModRing.split_on``) so the caller can branch; the split carries
    the sorted candidates, which the caller passes back as ``candidates``
    on each branch in place of the branch's own resultant."""
    # candidates: rational roots of Res_a(P(a, lam), m(a)); a root valid on
    # any branch divides it.  P and m are cleared to integers (P with one
    # common factor), which scales the resultant by a nonzero constant.
    # On a factor g of m that passed this content check, P mod g is the
    # indicial polynomial there and its norm divides the one over m, so
    # m's candidates still hold every root; each is checked exactly, and
    # one that is no root on g evaluates to a unit and splits nothing.
    den = lcm(*(e.den for e in ind))
    p_ints = [_ztrim([x * (den // e.den) for x in e.nums]) for e in ind]
    nonzero = [p for p in p_ints if p]
    if not nonzero:
        raise InputError("zero polynomial")
    # a common factor of the coordinates is where the whole polynomial
    # vanishes: a sub-branch
    ring.split_on(reduce(_zgcd, nonzero))
    if candidates is None:
        cand = _zresultant(p_ints, ring.int_modulus)
        if not cand:
            raise AssertionError("resultant vanished despite trivial content")
        candidates = sorted(QQ(a, b) for a, b, _ in _zrational_roots(cand))
    out = []
    for r in candidates:
        mult = 0
        rem = ind
        while rem:
            # one Horner pass: the partial values are the coefficients of
            # the quotient by (lam - r), the last one is the value at r
            acc = [rem[-1]]
            for c in rem[-2::-1]:
                acc.append(acc[-1] * r + c)
            value = acc.pop()
            if value:
                # r is a root on part of the modulus only, or on none of it
                try:
                    ring.split_on(value.nums)
                except ZeroDivisorSplit as s:
                    raise _CandidateSplit(s, candidates) from None
                break
            mult += 1
            rem = acc[::-1]
        if mult:
            out.append((r, mult))
    out.sort(key=lambda t: t[0])
    return out


def _algebraic_branch(op: DiffOp, m: Poly, candidates: Optional[List] = None) -> IndicialData:
    """Indicial data on the branch of an algebraic cluster with modulus m;
    ``candidates`` as in :func:`rational_roots_nf`."""
    ring = ModRing(m)
    point = SingularPoint.algebraic(m)
    qs, deg = _indicial_over(op, point, ring)
    return IndicialData(point, m, qs, deg, rational_roots_nf(qs[0], ring, candidates), ring)


def indicial_branches(op: DiffOp, point: SingularPoint) -> List[IndicialData]:
    """Indicial data at a point; algebraic clusters may yield several
    branches after zero-divisor splits."""
    if op.is_zero():
        raise InputError("zero operator")
    if point.kind != SingularPoint.ALGEBRAIC:
        qs, deg = _indicial_over(op, point, None)
        roots = Poly(qs[0]).rational_roots()
        return [IndicialData(point, None, qs, deg, roots, None)]
    # the candidates of a split taken in the root check, by branch modulus
    inherited: Dict[Poly, List] = {}

    def branch(m: Poly) -> IndicialData:
        try:
            return _algebraic_branch(op, m, inherited.get(m))
        except _CandidateSplit as s:
            inherited[s.factor] = inherited[s.cofactor] = s.candidates
            raise

    return [data for _, data in split_cases(point.modulus, branch)]


def indicial(op: DiffOp, point: SingularPoint) -> IndicialData:
    """Single-branch convenience wrapper around :func:`indicial_branches`."""
    branches = indicial_branches(op, point)
    if len(branches) != 1:
        raise InputError("modulus split; use indicial_branches")
    return branches[0]


# ---------------------------------------------------------------------------
# Jets: K[eps]/(eps^P)
# ---------------------------------------------------------------------------


class Jet:
    """Truncated power series in a deformation parameter."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: List):
        self.coeffs = list(coeffs)

    @staticmethod
    def const(value, prec: int) -> "Jet":
        return Jet([value] + [value * 0] * (prec - 1))

    @staticmethod
    def eps_power(one, k: int, prec: int) -> "Jet":
        """eps^k, with ``one`` the unit of the coefficients."""
        cs = [one * 0] * prec
        if k < prec:
            cs[k] = one
        return Jet(cs)

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "Jet") -> "Jet":
        return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Jet":
        return Jet([-a for a in self.coeffs])

    def __mul__(self, other: "Jet") -> "Jet":
        p = self.prec
        out = [self.coeffs[0] * 0] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(p - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return Jet(out)

    def valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.prec

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def divide(self, other: "Jet") -> "Jet":
        """Laurent-aware division; requires val(self) >= val(other)."""
        v = other.valuation()
        if v >= other.prec:
            raise ZeroDivisionError("division by zero jet")
        if v and self.valuation() < v:
            raise AssertionError("jet division would need negative powers")
        p = self.prec
        zero = self.coeffs[0] * 0
        num = self.coeffs[v:] + [zero] * v
        den = other.coeffs[v:] + [zero] * v
        inv0 = 1 / den[0]
        out = []
        for n in range(p):
            acc = num[n]
            for k in range(1, n + 1):
                if den[k] and out[n - k]:
                    acc = acc - den[k] * out[n - k]
            out.append(acc * inv0)
        return Jet(out)


def _jet_eval(a: List, x: Jet) -> Jet:
    """Horner evaluation of a nonzero lambda-polynomial at a jet."""
    acc = Jet.const(a[-1], x.prec)
    for c in a[-2::-1]:
        acc = acc * x + Jet.const(c, x.prec)
    return acc


# ---------------------------------------------------------------------------
# Logarithmic generalized series
# ---------------------------------------------------------------------------


class LogSeries:
    """sum_j log(t)^j * t^exponent * (series in t).

    ``layers[j][i]`` is the coefficient of log(t)^j * t^(exponent + i);
    all layers share the truncation length.
    """

    __slots__ = ("exponent", "layers")

    def __init__(self, exponent, layers: List[List]):
        self.exponent = exponent
        self.layers = layers

    def has_logs(self) -> bool:
        return any(any(layer) for layer in self.layers[1:])

    def is_zero(self) -> bool:
        return not any(any(layer) for layer in self.layers)

    def leading(self) -> Tuple[object, int]:
        """(exponent, log power) of the lowest nonzero term."""
        best = None
        for j, layer in enumerate(self.layers):
            for i, c in enumerate(layer):
                if c:
                    if best is None or (i, j) < best:
                        best = (i, j)
                    break
        if best is None:
            raise InputError("zero series has no leading term")
        return self.exponent + best[0], best[1]


# ---------------------------------------------------------------------------
# Frobenius solutions
# ---------------------------------------------------------------------------


class FormalSolutionBasis:
    """Local solutions at a point together with the logarithm flag."""

    __slots__ = ("point", "branch", "solutions", "has_logarithms", "obstructions")

    def __init__(self, point, branch, solutions, has_logarithms, obstructions):
        self.point = point
        self.branch = branch
        self.solutions = solutions
        self.has_logarithms = has_logarithms
        # [(exponent, resonance index)] where a log was forced
        self.obstructions = obstructions

    def __repr__(self):
        return "FormalSolutionBasis(point=%s, %d solutions, logs=%s)" % (
            self.point.label(), len(self.solutions), self.has_logarithms)


def _exponent_classes(roots: List[Tuple[object, int]]) -> List[List[Tuple[object, int]]]:
    classes: Dict[object, List[Tuple[object, int]]] = {}
    for r, m in roots:
        key = r - QQ(r.numerator // r.denominator)  # fractional part
        classes.setdefault(key, []).append((r, m))
    out = []
    for key in sorted(classes):
        cls = sorted(classes[key])
        out.append(cls)
    return out


def _parts(x, ring: Optional[ModRing]) -> Tuple[Tuple[int, ...], int]:
    """(integer numerators, denominator) of a value of the branch: one
    numerator for a rational, one per coordinate for a ring element."""
    return (x.nums, x.den) if ring is not None else ((x.numerator,), x.denominator)


def _rows_over_z(qs: List[List], ring: Optional[ModRing], b: int) -> List:
    """The theta rows q_1, q_2, ... made ready for evaluation over Z at
    points p / b: for q_k, (P, d) with q_k(p / b) = sum_i a^i P[i](p) / d,
    one integer polynomial P[i] per numerator of :func:`_parts`, or None
    for a zero row.  For q_k of degree n with coefficients N_j / D over
    one common denominator D, P[i] has coefficients N_j[i] b^(n-j) and
    d = D b^n."""
    out = []
    for q in qs[1:]:
        if not q:
            out.append(None)
            continue
        parts = [_parts(e, ring) for e in q]
        den = lcm(*(d for _, d in parts))
        n = len(q) - 1
        cols = [[x * (den // d) * b ** (n - j) for x in nums] for j, (nums, d) in enumerate(parts)]
        out.append(([list(col) for col in zip(*cols)], den * b ** n))
    return out


def _class_flag_mode(data: IndicialData, one, inv_lc, cls: List[Tuple[object, int]], order: int):
    """Pure-series attempts: resonance with nonzero right-hand side flags a
    logarithm; a vanishing right-hand side sets that coefficient to zero.
    ``one`` is the unit of the branch's coefficients.

    The branch's rational roots fill the degree of q_0 and ``inv_lc`` is
    the inverse of its leading coefficient, so step m divides by
    q_0(mu + m) = lc prod_r (mu + m - r)^(m_r) as ``inv_lc`` times a
    rational.  Each row q_k, k >= 1, is evaluated over Z at the step's
    point (:func:`_rows_over_z`).  A row's value and the division each
    scale a value of the branch as integer numerators over one
    denominator, normalized once."""
    qs, ring = data.theta, data.ring
    zero = one * 0
    sols = []
    obstructions = []
    has_logs = any(m > 1 for _, m in cls)
    if has_logs:
        for r, m in cls:
            if m > 1:
                obstructions.append((r, 0))
    in_class = {r for r, _ in cls}
    kmax = len(qs) - 1
    # the points mu + m - k of a class share mu's denominator b
    b = cls[0][0].denominator
    rows = _rows_over_z(qs, ring, b)
    # at X / b, r = u / v: prod_r (X / b - r)^e = prod_r (X v - u b)^e / C,
    # C = prod_r (b v)^e
    factors = [(r.denominator, r.numerator * b, e) for r, e in data.rational_roots]
    scale, scale_den = _parts(inv_lc * -prod((b * v) ** e for v, _, e in factors), ring)
    # times(nums, den, x): the value with parts (nums, den) times x
    if ring is None:
        def times(nums, den, x):
            return QQ(nums[0] * x.numerator, den * x.denominator)
    else:
        def times(nums, den, x):
            return ring.from_ints(_zmul(nums, x.nums), den * x.den)
    for pos in range(len(cls) - 1, -1, -1):
        mu, mult = cls[pos]
        top = cls[-1][0]
        needed = int(top - mu) if pos < len(cls) - 1 else 0
        n_steps = max(order, needed) + 1
        coeffs = [one]
        ok = True
        for m in range(1, n_steps + 1):
            rhs = zero
            for k in range(1, min(m, kmax) + 1):
                row = rows[k - 1]
                if row is None:
                    continue
                c = coeffs[m - k]
                if not c:
                    continue
                polys, den = row
                p = mu.numerator + (m - k) * b
                rhs = rhs + times([_zeval(P, p) for P in polys], den, c)
            if mu + m in in_class:
                if not rhs:
                    coeffs.append(zero)
                else:
                    has_logs = True
                    obstructions.append((mu, m))
                    ok = False
                    break
            else:
                x = mu.numerator + m * b
                n = 1
                for v, ub, e in factors:
                    n *= (x * v - ub) ** e
                coeffs.append(times(scale, scale_den * n, rhs))
        if ok:
            sols.append(LogSeries(mu, [coeffs]))
    sols.reverse()
    return sols, has_logs, obstructions


def _class_full_mode(qs: List[List], one, cls: List[Tuple[object, int]], order: int):
    """Deformation construction; emits a full basis including log tails.
    ``one`` as in :func:`_class_flag_mode`."""
    zero = one * 0
    sols = []
    obstructions = []
    has_logs = False
    kmax = len(qs) - 1
    for pos in range(len(cls) - 1, -1, -1):
        mu, mult = cls[pos]
        above = sum(m for r, m in cls if r > mu)
        big_t = mult + above
        prec = 2 * big_t
        top = cls[-1][0]
        n_steps = max(order, int(top - mu) if pos < len(cls) - 1 else 0) + 1
        c: List[Jet] = [Jet.eps_power(one, above, prec)]
        for m in range(1, n_steps + 1):
            num = Jet([zero] * prec)
            for k in range(1, min(m, kmax) + 1):
                if not qs[k]:
                    continue
                if c[m - k].is_zero():
                    continue
                lam = Jet([one * (mu + m - k), one] + [zero] * (prec - 2))
                num = num + _jet_eval(qs[k], lam) * c[m - k]
            num = -num
            lam = Jet([one * (mu + m), one] + [zero] * (prec - 2))
            den = _jet_eval(qs[0], lam)
            c.append(num.divide(den))
        for l in range(above, big_t):
            layers: List[List] = []
            for b in range(l + 1):
                inv_fact = QQ(1, factorial(b))
                layer = [cm.coeffs[l - b] * inv_fact for cm in c]
                layers.append(layer)
            while len(layers) > 1 and not any(layers[-1]):
                layers.pop()
            sol = LogSeries(mu, layers)
            if sol.has_logs():
                has_logs = True
                obstructions.append((mu, -1))
            sols.append(sol)
    sols.sort(key=lambda s: s.exponent)
    return sols, has_logs, obstructions


def formal_solutions(
    op: DiffOp,
    point: SingularPoint,
    order: int,
    mode: str = "full",
    branch: Optional[Poly] = None,
    allow_irregular: bool = False,
) -> FormalSolutionBasis:
    """Frobenius basis at the point to the requested series order.

    ``mode="flag"`` runs the cheap pure-series attempts that only decide
    whether logarithms occur (the transcendence test needs nothing more);
    ``mode="full"`` builds every solution including logarithmic tails.
    This sets up the indicial data at the point (or at the given branch
    of an algebraic cluster, which must be a nonconstant factor of the
    point's modulus on which the analysis does not split) and hands it to
    :func:`_frobenius`, which the transcendence scan calls directly on the
    data it already holds.  All
    indicial roots must be rational; with ``allow_irregular`` the degree
    may drop below the order (the extra "solutions" of an irregular point
    are simply not constructed).  A negative order, or a mode other than
    these two, is an InputError.
    """
    if order < 0:
        raise InputError("series order must be nonnegative, not %d" % order)
    if mode not in ("flag", "full"):
        raise InputError("mode must be 'flag' or 'full', not %r" % (mode,))
    if branch is not None:
        branch = branch.monic()
        if (point.kind != SingularPoint.ALGEBRAIC or branch.degree < 1
                or any(_zprem(*_zclear([point.modulus, branch]))[0])):
            raise InputError("branch %s is not a factor of the modulus at %s"
                             % (format_poly(branch), point.label()))
        try:
            data = _algebraic_branch(op, branch)
        except ZeroDivisorSplit:
            raise InputError("branch %s splits further at %s; call per branch of indicial_branches"
                             % (format_poly(branch), point.label())) from None
    else:
        data = indicial(op, point)
    if data.degree < op.order and not allow_irregular:
        raise IrregularPoint(
            "indicial degree %d below order %d at %s"
            % (data.degree, op.order, data.point.label())
        )
    sols, has_logs, obstructions = _frobenius(data, order, mode)
    return FormalSolutionBasis(data.point, branch, sols, has_logs, obstructions)


def _frobenius(data: IndicialData, order: int, mode: str) -> Tuple[List[LogSeries], bool, List]:
    """(solutions, has_logarithms, obstructions) from the theta rows and
    rational exponents of one branch; ``mode`` as in :func:`formal_solutions`.

    The rational roots r must fill the indicial degree (an InputError
    otherwise), so q_0 = lc prod_r (lam - r)^(m_r), over Q at a rational
    point or infinity and in the branch's ring on a cluster (see the
    module docstring): flag mode inverts lc once per call and divides each
    step by it times a rational."""
    if sum(m for _, m in data.rational_roots) < data.degree:
        raise InputError(
            "indicial polynomial at %s has irrational or complex roots; "
            "only rational exponents are supported" % data.point.label()
        )
    one = Q1 if data.ring is None else data.ring.one()
    if mode == "flag":
        inv_lc = 1 / data.poly[-1]  # the one inversion for every step
    solutions: List[LogSeries] = []
    has_logs = False
    obstructions: List[Tuple[object, int]] = []
    for cls in _exponent_classes(data.rational_roots):
        if mode == "flag":
            sols, logs, obs = _class_flag_mode(data, one, inv_lc, cls, order)
        else:
            sols, logs, obs = _class_full_mode(data.theta, one, cls, order)
        solutions.extend(sols)
        has_logs = has_logs or logs
        obstructions.extend(obs)
        if mode == "flag" and has_logs:
            break
    return solutions, has_logs, obstructions
