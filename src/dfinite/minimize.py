"""Annihilator minimization: guessing plus a sound annihilation certificate.

``guess_annihilator`` finds a candidate operator annihilating a truncated
series, by increasing order and then minimal degree, from exact kernel
vectors of the Hermite-Pade style system.  The system is never written
out as a matrix: it is a ``linalg.ShiftSystem`` over the integer
derivatives F, F', ..., F^(order) of F = D f, D the least common
denominator of f's terms, column (i, j) being F^(i) shifted by j, so
each derivative is reduced once per prime.  ``certify_annihilates``
upgrades a candidate to a proof: it builds a cofactor A with
A o M = C o L from the first Q(z)-linear dependence among the
remainders of d^j o M modulo L, so g = M(f) is a solution of A and the
valuation bound of ``zero_test`` decides g = 0 exactly.  The cofactor
is ``ore._cofactor``, the one ``ore.lclm`` multiplies out: its
remainders are numerators over Z[z] above powers of the leading
coefficient of L and the dependence comes from fraction-free Bareiss
elimination, so no rational-function gcd is taken on the way.

Minimality of the returned operator is heuristic (the search simply finds
no smaller certified annihilator); the annihilation itself is certified.

The search probes once per order: one order basis mod p of the system
at the degree cap (``kernel_rank_mod_p``) gives the rank of every
smaller degree cell as a count of pivot columns, so "no operator of this
order and degree <= d" is proved for every d at once, and exact kernel
vectors are computed only at degrees where a kernel survives mod p, from
the same order basis run on that cell alone at each prime, carrying
each row's polynomial vector.  Each CRT candidate is
checked exactly once, inside ``kernel_vector_exact``'s prime loop, by
applying its operator to F over Z: the system's own sequences and
columns, on every row that F's terms determine (``ShiftSystem.times``),
which covers every row of the system; a candidate that fails brings in
one more prime.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import InputError
from .linalg import ShiftSystem, kernel_rank_mod_p, kernel_vector_exact
from .ore import DiffOp, _cofactor
from .rationals import cleared
from .series import (
    TruncSeries,
    _int_derivatives,
    apply_op,
    indicial_bound,
    unroll,
    validate_init,
    zero_test,
)

GUARD_TERMS = 10

CERTIFIED_ANNIHILATOR = "certified-annihilator"
INPUT_RETURNED = "input-returned"
HEURISTIC_MINIMAL = "heuristic-minimal"
NOT_SEARCHED = "not-searched"


@dataclass
class MinimizeOptions:
    max_degree: Optional[int] = None
    max_precision: int = 700


@dataclass
class MinimizationResult:
    operator: DiffOp
    status: str
    search_log: List[Tuple[int, int, str]] = field(default_factory=list)
    minimality: str = HEURISTIC_MINIMAL


def _guess_system(f: TruncSeries, order: int, degree: int) -> ShiftSystem:
    """Row n states that the z^n coefficient of M(F) vanishes, for the
    integer series F = D f, D the least common denominator of f's terms:
    column (i, j), at (order + 1) j + i, is F^(i) shifted by j.  F has
    f's annihilators, so the system has the same kernel as the one over
    f, and its entries are integers."""
    derivs = _int_derivatives(cleared(f.coeffs)[0], order)
    return ShiftSystem(derivs, (order + 1) * (degree + 1), f.trunc_order - order)


def _vector_to_op(vec: Sequence, order: int) -> DiffOp:
    return DiffOp([vec[i::order + 1] for i in range(order + 1)])


def _probe_degree(system: ShiftSystem, order: int, d_cap: int) -> List[int]:
    """Degrees d <= d_cap, ascending, whose cell has a nontrivial kernel
    mod p.

    One order basis of the full degree-capped system answers every cell:
    the columns are degree-major, so the degree-d cell is the prefix of
    (order+1)(d+1) columns with all rows, and its rank mod p is the number
    of pivot columns inside that prefix.  Every degree left out has full
    column rank mod p, hence a trivial kernel over Q.
    """
    _, piv_cols = kernel_rank_mod_p(system)
    out = []
    for d in range(d_cap + 1):
        ncols = (order + 1) * (d + 1)
        if bisect_left(piv_cols, ncols) < ncols:
            out.append(d)
    return out


def _search_order(f: TruncSeries, order: int, d_cap: int) -> Optional[Tuple[DiffOp, int]]:
    """Minimal-degree verified operator of the given order, or None.

    The one exact check of a candidate is M(f) = 0 up to the precision
    ``apply_op`` keeps, N - max_shift >= N - order terms, which covers
    every row of the system; ``kernel_vector_exact`` runs it over Z
    inside its CRT loop.
    """
    system = _guess_system(f, order, d_cap)
    n, m = f.trunc_order, order + 1
    for d in _probe_degree(system, order, d_cap):
        cell = system.prefix(m * (d + 1))

        def residual(vec: List[int]) -> List[int]:
            # M(F) = D M(f) on the N - s rows that F's N terms determine,
            # s the largest i - j over M's terms z^j d^i: the system's
            # rows, then further ones.  ``apply_op`` on M's normal form M'
            # gives the same verdicts: M = g M' for the content
            # g = z^v u, u(0) != 0, so M(f) = g M'(f) has its first
            # nonzero row v rows after M'(f)'s, and is determined on v
            # more rows.
            s = max((c % m - c // m for c, v in enumerate(vec) if v), default=0)
            return ShiftSystem(cell.seqs, cell.ncols, n - s).times(vec)

        vec = kernel_vector_exact(cell, residual)
        if vec is not None:
            op = _vector_to_op(vec, order)
            if op.order > 0:
                return op, d
        # spurious mod-p kernel: go on to the next candidate degree
    return None


def guess_annihilator(
    f: TruncSeries,
    max_order: int,
    max_degree: Optional[int] = None,
) -> Optional[DiffOp]:
    """First verified annihilator by increasing order, then minimal degree.

    The degree cap per order is limited by the available precision, so
    the answer is "no operator with (order, degree) inside the searched
    boxes", never a statement about larger shapes.
    """
    _check_bounds(max_order=max_order, max_degree=max_degree)
    for order in range(1, max_order + 1):
        d_cap = (f.trunc_order - order - GUARD_TERMS) // (order + 1) - 1
        if max_degree is not None:
            d_cap = min(d_cap, max_degree)
        if d_cap < 0:
            continue
        got = _search_order(f, order, d_cap)
        if got is not None:
            return got[0]
    return None


def _check_bounds(**bounds: Optional[int]) -> None:
    """A negative order, degree or precision bound searches nothing:
    InputError, not an empty answer or a search log that blames the
    precision budget.  A budget of 0 or more that fits no box is a
    computed result, logged as exhausted."""
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise InputError("%s must be nonnegative, not %d" % (name, value))


def certify_annihilates(big: DiffOp, cand: DiffOp, f: TruncSeries) -> bool:
    """Proof that cand annihilates the solution f of big (True = proof).

    Reduces d^j o cand modulo big for j = 0..order(big); the forced
    Q(z)-linear dependence yields a cofactor A with A o cand = C o big,
    so g = cand(f) solves A and the valuation-bound zero test applies.
    f is a prefix of big's solution (at least its initial terms); it is
    unrolled as far as that test needs, indicial_bound(A) + 1 terms of g.
    """
    if big.is_zero() or cand.is_zero():
        raise InputError("zero operator")
    if cand.order >= big.order + 1:
        raise InputError("candidate order exceeds input order")
    cofactor = _cofactor(big, cand)
    need = max(indicial_bound(cofactor) + 1 + max(cand.max_shift(), 0), cand.order)
    if f.trunc_order < need:
        f = unroll(big, f, need)
    return zero_test(cofactor, apply_op(cand, f))


def minimal_annihilator(
    big: DiffOp,
    init: TruncSeries,
    opts: Optional[MinimizeOptions] = None,
) -> MinimizationResult:
    """Certified annihilator of minimal discovered order for the solution
    pinned down by (big, init); falls back to big itself.

    Searches orders below order(big) with degrees up to the ceiling
    (default 4 * deg(big) * order(big)^2, capped by the precision
    budget).  Any candidate must pass ``certify_annihilates``.
    """
    ok, reason = validate_init(big, init)
    if not ok:
        raise InputError("invalid initial terms: %s" % reason)
    return _minimize(big, init, opts or MinimizeOptions())


def _minimize(big: DiffOp, init: TruncSeries, opts: MinimizeOptions) -> MinimizationResult:
    """``minimal_annihilator`` without the up-front check: its one unroll
    of init, made even when no term is added, checks init and raises
    InsufficientInitialConditions or InconsistentInitialConditions."""
    _check_bounds(max_degree=opts.max_degree, max_precision=opts.max_precision)
    r = big.order
    degree_ceiling = opts.max_degree
    if degree_ceiling is None:
        degree_ceiling = 4 * max(big.degree(), 1) * r * r
    log: List[Tuple[int, int, str]] = []
    # each order searches the longest prefix that any order up to it
    # needs; one unroll reaches the deepest of them
    plan = []
    n_terms = init.trunc_order
    for order in range(1, r):
        cap_by_precision = (opts.max_precision - order - GUARD_TERMS) // (order + 1) - 1
        d_cap = min(degree_ceiling, cap_by_precision)
        if d_cap >= 0:
            n_terms = max(n_terms, (order + 1) * (d_cap + 1) + order + GUARD_TERMS)
        plan.append((order, d_cap, n_terms))
    f = unroll(big, init, n_terms)
    for order, d_cap, prefix in plan:
        if d_cap < 0:
            log.append((order, -1, "precision budget exhausted"))
            continue
        found = _search_order(f.prefix(prefix), order, d_cap)
        if found is None:
            log.append((order, d_cap, "empty kernel"))
            continue
        cand, d_min = found
        if certify_annihilates(big, cand, f):
            log.append((order, d_min, "certified"))
            return MinimizationResult(cand, CERTIFIED_ANNIHILATOR, log)
        log.append((order, d_min, "candidate does not annihilate"))
    return MinimizationResult(big, INPUT_RETURNED, log)
