"""Truncated power series with exact rational coefficients.

A ``TruncSeries`` is a prefix of a power series: ``coeffs[n]`` is the
coefficient of z^n and the series is known modulo z^trunc_order with
``trunc_order == len(coeffs)``.

A solution of a differential operator is checked and extended through
the recurrence of ``ore.ode_to_rec``, whose rows are integer coefficient
lists.  One evaluator (``polys._zeval``, Horner at an integer index)
serves both the row check of the initial terms, which runs on the terms
times the least common denominator (the rows are homogeneous, so the
scaling changes no verdict), and ``unroll``.  ``apply_op`` runs over
the same integer terms, through ``linalg.ShiftSystem.times``.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import (
    InconsistentInitialConditions,
    InputError,
    InsufficientInitialConditions,
    PrecisionTooLow,
)
from .linalg import ShiftSystem
from .ore import DiffOp, RecOp, ode_to_rec
from .polys import _zderiv, _zeval, _zrational_roots, _zshift
from .rationals import QQ, Q0, cleared


class TruncSeries:
    """Exact truncated power series; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(QQ(c) if isinstance(c, int) else c for c in coeffs)

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        if len(self.coeffs) > 8:
            shown += ", ..."
        return "TruncSeries([%s] + O(z^%d))" % (shown, self.trunc_order)

    def prefix(self, n: int) -> "TruncSeries":
        if n > len(self.coeffs):
            raise PrecisionTooLow("prefix longer than series", needed=n)
        return TruncSeries(self.coeffs[:n])

    def derivative(self) -> "TruncSeries":
        return TruncSeries(_zderiv(self.coeffs))


def is_zero_series(f: TruncSeries) -> bool:
    """True iff every listed coefficient vanishes (a statement mod z^N only)."""
    if f.trunc_order == 0:
        raise InputError("empty truncation carries no information")
    return all(c == 0 for c in f.coeffs)


def valuation(f: TruncSeries) -> Tuple[int, bool]:
    """(v, exact): first nonzero index, or (trunc_order, False) as a lower bound."""
    if f.trunc_order == 0:
        raise InputError("empty truncation carries no information")
    for n, c in enumerate(f.coeffs):
        if c != 0:
            return n, True
    return f.trunc_order, False


def apply_op(op: DiffOp, f: TruncSeries) -> TruncSeries:
    """Apply a differential operator to a truncated series.

    The result is exact to order trunc_order(f) - s where s is the largest
    shift i - j over the operator's monomials z^j d^i (s <= order).  It
    is computed over Z: op(F) for F = D f, D the least common denominator
    of f's terms, is one ``ShiftSystem.times`` over the operator's box of
    coefficients, whose column (i, j) is F^(i) shifted by j; then
    op(f) = op(F) / D.
    """
    if op.is_zero():
        return TruncSeries([Q0] * f.trunc_order)
    if f.trunc_order < op.order:
        raise PrecisionTooLow(
            "series shorter than operator order", needed=op.order
        )
    n_out = max(f.trunc_order - max(op.max_shift(), 0), 0)
    big, den = cleared(f.coeffs)
    vec = [r[j] if j < len(r) else 0 for j in range(op.degree() + 1) for r in op.rows]
    out = ShiftSystem(_int_derivatives(big, op.order), len(vec), n_out).times(vec)
    return TruncSeries([QQ(x, den) for x in out])


def _int_derivatives(big: List[int], order: int) -> List[List[int]]:
    """F, F', ..., F^(order) for the integer coefficient list F."""
    derivs = [big]
    for _ in range(order):
        derivs.append(_zderiv(derivs[-1]))
    return derivs


def rec_leading_roots(rec: RecOp) -> List[int]:
    """Nonnegative integer indices where the unrolling step degenerates.

    These are the indices idx such that the coefficient determining a_idx
    vanishes; equivalently integer roots >= 0 of the leading recurrence
    polynomial shifted to the index variable.
    """
    shifted = _zshift(rec.rows[-1], -rec.max_shift)[0]  # in idx = n + max_shift
    return sorted(a for a, b, _ in _zrational_roots(shifted) if b == 1 and a >= 0)


def indicial_bound(op: DiffOp) -> int:
    """Largest nonnegative integer root of the indicial polynomial at 0 (-1 if none)."""
    roots = rec_leading_roots(ode_to_rec(op))
    return roots[-1] if roots else -1


def _check_rows(rows: List[List[int]], backshift: int, terms: List[int], upto: int) -> Optional[int]:
    """First index n in [0, upto) where a fully determined row fails, else None.

    Row n is sum_j rows[j](n) a_(n + j - backshift), with a_k = 0 for
    k < 0; it is determined when every coefficient that does not vanish
    at n reads a listed term.  The rows are homogeneous, so integer terms
    D a_k decide them as the a_k do.
    """
    for n in range(upto):
        total = 0
        for idx, p in enumerate(rows, n - backshift):
            v = _zeval(p, n)
            if idx < 0 or not v:
                continue
            if idx >= len(terms):
                break
            total += v * terms[idx]
        else:
            if total:
                return n
    return None


def _checked_recurrence(op: DiffOp, init: TruncSeries) -> RecOp:
    """Recurrence of op after the checks of ``validate_init``; raises
    InsufficientInitialConditions or InconsistentInitialConditions."""
    if op.is_zero():
        raise InconsistentInitialConditions("zero operator")
    if init.trunc_order < op.order:
        raise InsufficientInitialConditions("fewer initial terms than the operator order")
    rec = ode_to_rec(op)
    sing = rec_leading_roots(rec)
    if sing and sing[-1] >= init.trunc_order:
        raise InsufficientInitialConditions(
            "degenerate recurrence index %d not covered" % sing[-1]
        )
    bad = _check_rows(rec.rows, rec.backshift, cleared(init.coeffs)[0], init.trunc_order + rec.backshift)
    if bad is not None:
        raise InconsistentInitialConditions(
            "initial terms violate the recurrence at row %d" % bad
        )
    return rec


def validate_init(op: DiffOp, init: TruncSeries) -> Tuple[bool, str]:
    """Check that init pins down a unique solution of op.

    Requires length >= order, coverage of every degenerate recurrence
    index, and consistency with the recurrence at all determined rows.
    Returns (verdict, reason).
    """
    try:
        _checked_recurrence(op, init)
    except (InsufficientInitialConditions, InconsistentInitialConditions) as e:
        return False, str(e)
    return True, "ok"


def unroll(op: DiffOp, init: TruncSeries, n_terms: int) -> TruncSeries:
    """Extend init to n_terms coefficients of the unique solution of op.

    Unrolls the associated recurrence; degenerate indices must be covered
    by init and determined rows inside init are verified, so every index
    past init has a nonzero leading coefficient.  The recurrence rows are
    integer coefficient lists (its normal form has content 1), evaluated
    at each integer index by Horner, as the row check evaluates them.
    Each new term is one ``Fraction``: the numerators of the terms it
    reads, brought to their least common denominator, are combined with
    the row values over Z in C loops (``map``, ``sum``).
    """
    rec = _checked_recurrence(op, init)
    if n_terms < init.trunc_order:
        raise InputError("cannot unroll to fewer terms than supplied")
    low = -rec.max_shift - rec.backshift  # a_(idx + low + j) carries rec.rows[j]
    coeffs = list(init.coeffs)
    nums = [c.numerator for c in coeffs]
    dens = [c.denominator for c in coeffs]
    for idx in range(len(coeffs), n_terms):
        *vals, lead = [_zeval(p, idx - rec.max_shift) for p in rec.rows]
        start = idx + low
        if start < 0:  # a_k = 0 for k < 0
            vals, start = vals[-start:], 0
        ds = dens[start:idx]
        den = lcm(*ds)
        total = sum(map(mul, vals, map(mul, nums[start:idx], map(den.__floordiv__, ds))))
        c = QQ(-total, den * lead)
        coeffs.append(c)
        nums.append(c.numerator)
        dens.append(c.denominator)
    return TruncSeries(coeffs)


def zero_test(op: DiffOp, g: TruncSeries) -> bool:
    """Decide whether a solution of op that starts with g is identically zero.

    Sound because a nonzero power-series solution has valuation equal to
    a nonnegative integer root of the indicial polynomial at 0; vanishing
    past the largest such root forces the zero series.  The caller must
    guarantee that g is (the truncation of) a solution of op.
    """
    if op.is_zero():
        raise InputError("zero operator annihilates everything")
    if g.trunc_order and any(c != 0 for c in g.coeffs):
        return False
    b0 = indicial_bound(op)
    if g.trunc_order <= b0:
        raise PrecisionTooLow(
            "need more than %d coefficients for the valuation bound" % b0,
            needed=b0 + 1,
        )
    return True
