"""Advisory criteria: denominator scans, p-curvature modulo p, and
coefficient-asymptotics checks.

Everything here is labeled heuristic except the structural parts that
are exact by construction (denominator bookkeeping, the p-curvature
matrix itself, the negative-integer-exponent branch of the asymptotic
criterion).  Nothing in this module upgrades a verdict's confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, PrecisionTooLow
from .linalg import _poly_matrix_rank
from .ore import DiffOp, _rem_step, _unit_rows
from .polys import _zderiv, _ztrim
from .rationals import QQ, is_integer
from .series import TruncSeries

_SMALL_PRIME_BOUND = 100000

# The remainder iteration takes work that grows as p^2, and near 2^64
# the trial-division primality test alone would take 2^32 steps.
P_CURVATURE_MAX_PRIME = 2 ** 10


def _factor_small(n: int) -> Dict[int, int]:
    """Prime factorization by trial division up to the small-prime bound;
    a leftover cofactor > 1 is recorded under its own value (it is prime
    or a product of primes above the bound)."""
    n = abs(int(n))
    out: Dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= _SMALL_PRIME_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += inc[i]
        i = (i + 1) % 8
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass
class EisensteinReport:
    primes: List[int]
    largest_prime: Optional[int]
    candidate_c: Optional[int]
    candidate_c_bound: int
    transcendence_evidence: bool
    first_occurrence: Dict[int, int] = field(default_factory=dict)


def eisenstein_scan(f: TruncSeries, c_bound: int = 10 ** 6) -> EisensteinReport:
    """Denominator prime scan of a truncated series.

    Reports the primes dividing any coefficient denominator, the minimal
    C with a_n * C^n integral over the scanned range (or none below the
    bound), and an advisory flag raised when new denominator primes keep
    appearing deep into the range.  Never a proof of anything.
    """
    if f.trunc_order < 10:
        raise PrecisionTooLow("need at least 10 coefficients to scan", needed=10)
    valuations: Dict[int, int] = {}
    first_seen: Dict[int, int] = {}
    for n in range(1, f.trunc_order):
        den = int(f.coeffs[n].denominator)
        if den == 1:
            continue
        for p, v in _factor_small(den).items():
            need = -(-v // n)  # ceil(v / n)
            valuations[p] = max(valuations.get(p, 0), need)
            first_seen.setdefault(p, n)
    primes = sorted(first_seen)
    candidate = 1
    for p in sorted(valuations):
        for _ in range(valuations[p]):
            candidate *= p
            if candidate > c_bound:
                break
        if candidate > c_bound:
            break
    cand_out: Optional[int] = candidate if candidate <= c_bound else None
    evidence = any(first_seen[p] > f.trunc_order // 2 for p in primes)
    return EisensteinReport(
        primes=primes,
        largest_prime=primes[-1] if primes else None,
        candidate_c=cand_out if primes else 1,
        candidate_c_bound=c_bound,
        transcendence_evidence=evidence,
        first_occurrence=first_seen,
    )


# ---------------------------------------------------------------------------
# p-curvature
# ---------------------------------------------------------------------------


@dataclass
class PCurvatureReport:
    prime: int
    is_zero: bool
    matrix_rank: int
    bad_prime: bool
    reason: str = ""


def p_curvature(op: DiffOp, p: int) -> PCurvatureReport:
    """p-curvature nullity of the operator modulo p.

    Row i of the p-curvature matrix of L (order r, leading coefficient l)
    holds the remainder of d^(p+i) modulo L over F_p(z).  The remainders
    come from the recurrence of ``ore._remainders`` run on the operator's
    integer rows reduced mod p, as numerators over powers of l reduced
    mod p after every step.  The p-curvature is zero iff the remainder of
    d^p is 0; otherwise the reported rank is that of the rows for
    d^p ... d^(p+r-1) over F_p(z).  Primes at most the order, or for which
    the leading coefficient vanishes mod p, are flagged bad and skipped; a
    p that is not prime is an InputError, since the iteration inverts
    numbers mod p, and so is a p above ``P_CURVATURE_MAX_PRIME`` = 2^10,
    checked first.
    """
    if op.is_zero():
        raise InputError("zero operator")
    if p > P_CURVATURE_MAX_PRIME:
        raise InputError("p-curvature modulus %d exceeds the ceiling %d" % (p, P_CURVATURE_MAX_PRIME))
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise InputError("p-curvature modulus %d is not prime" % p)
    r = op.order
    if p <= r:
        return PCurvatureReport(p, False, -1, True, "prime <= order degenerates the iteration")
    ops = [_mod_p(q, p) for q in op.rows]
    if not ops[-1]:
        return PCurvatureReport(p, False, -1, True, "leading coefficient vanishes mod p")
    dlead = _zderiv(ops[-1])
    num = _unit_rows(ops)  # d^0 over l^0
    rows = []
    for k in range(p + r - 1):
        num = [_mod_p(x, p) for x in _rem_step(ops, dlead, num, k)]  # d^(k+1)
        if k + 1 >= p:
            rows.append(num)
    if not any(map(any, rows)):  # all rows vanish iff the one for d^p does
        return PCurvatureReport(p, True, 0, False)
    return PCurvatureReport(p, False, _poly_matrix_rank(rows, p), False)


def _mod_p(a: List[int], p: int) -> List[int]:
    return _ztrim([c % p for c in a])


# ---------------------------------------------------------------------------
# Asymptotic criteria
# ---------------------------------------------------------------------------


@dataclass
class AsymptoticForm:
    """Caller-supplied asymptotic data a_n ~ gamma * beta^n * n^r."""

    r: Optional[object]  # rational exponent, or None for irrational
    beta_algebraic: bool = True
    gamma_gamma_algebraic: bool = True  # gamma * Gamma(r+1) algebraic?


def flajolet_check(a: AsymptoticForm) -> str:
    """"transcendental" or "inconclusive" from the asymptotic shape.

    Transcendence follows when the polynomial exponent is a negative
    integer or irrational, or when one of the two constants is asserted
    non-algebraic; everything else is inconclusive.
    """
    if a.r is None:
        return "transcendental"
    r = QQ(a.r) if isinstance(a.r, int) else a.r
    if is_integer(r) and r < 0:
        return "transcendental"
    if not a.beta_algebraic or not a.gamma_gamma_algebraic:
        return "transcendental"
    return "inconclusive"


def estimate_growth(f: TruncSeries, levels: int = 4) -> Tuple[float, float]:
    """(beta, r) estimates from coefficient ratios; advisory only.

    Richardson extrapolation of a_{n+1}/a_n gives beta; the corrected
    ratios n * (a_{n+1}/(beta * a_n) - 1) extrapolate to r.
    """
    if f.trunc_order < 40:
        raise PrecisionTooLow("need at least 40 terms to estimate growth", needed=40)
    start = max(2, f.trunc_order // 4)
    ratios = []
    for n in range(start, f.trunc_order - 1):
        if f.coeffs[n] == 0:
            raise InputError("zero coefficient in the ratio window")
        ratios.append(float(QQ(f.coeffs[n + 1]) / QQ(f.coeffs[n])))
    beta = _richardson(ratios, start, levels)
    corr = []
    for i, n in enumerate(range(start, f.trunc_order - 1)):
        corr.append(n * (ratios[i] / beta - 1.0))
    r_est = _richardson(corr, start, levels)
    return beta, r_est


def _richardson(seq: List[float], n0: int, levels: int) -> float:
    rows = [list(seq)]
    for k in range(1, levels + 1):
        prev = rows[-1]
        nxt = []
        for i in range(1, len(prev)):
            n = n0 + i
            nxt.append((n * prev[i] - (n - k) * prev[i - 1]) / k)
        rows.append(nxt)
        if len(nxt) < 2:
            break
    return rows[-1][-1]


def apery_asymptotic_decision(powers: Sequence[int]) -> str:
    """Nature of the binomial-sum family by total exponent weight:
    "rational" for weight 1, "algebraic" for weight 2, "transcendental"
    beyond."""
    p = list(powers)
    if not p or p[0] < 1:
        raise InputError("powers[0] must be at least 1")
    total = sum(p)
    if total == 1:
        return "rational"
    if total == 2:
        return "algebraic"
    return "transcendental"
